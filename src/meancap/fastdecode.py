"""Incremental decoding over the model's decoder layers, for beam search; eval only.

Re-decoding every prefix from BOS makes beam search quadratic per token.
``FastDecoder`` keeps its previous ``expand`` call's self-attention rows
instead, one (P, t, d) array per decoder layer, P prefixes of t rows: the
layout of incremental Transformer decoders (fairseq).  It relies on what
``decoding.beam_search`` does: each call passes prefixes of one length, each
extending a prefix of the previous call, and a ``[BOS]`` call starts over.
So a call picks its parents' rows by index and makes one
``model.decode_layers`` pass with one new row per prefix; a call that breaks
that contract raises ValueError.  The image's cross-attention keys and values
are projected once, up front.  Results match the last row of
``model.decode_logits`` over the whole prefix up to floating-point summation
order, which the equivalence tests pin down.
"""

import numpy as np

from . import tensor as T
from .model import ModelConfig, cross_memory, decode_layers
from .tokenizer import BOS_ID


class FastDecoder:
    def __init__(self, params, config: ModelConfig, encoder_layers):
        self.params, self.config = params, config
        with T.no_grad():
            self.memory = cross_memory(encoder_layers, params, config)
        self._rows = {}  # prefix of the previous call -> its row in each array of _past
        self._past = None

    def expand(self, prefixes) -> np.ndarray:
        prefixes = [tuple(p) for p in prefixes]
        if len({len(p) for p in prefixes}) != 1:
            raise ValueError(f"one expand call takes prefixes of one length, got {prefixes}")
        if any(p[:1] != (BOS_ID,) for p in prefixes):
            raise ValueError("decoder prefix must begin with BOS")
        past = None
        if len(prefixes[0]) > 1:  # a [BOS] call starts over
            missing = [p for p in prefixes if p[:-1] not in self._rows]
            if missing:
                raise ValueError(f"prefix {missing[0]} extends no prefix of the previous call")
            parents = [self._rows[p[:-1]] for p in prefixes]
            past = [T.Tensor(layer[parents]) for layer in self._past]
        with T.no_grad():
            logits, rows = decode_layers([p[-1:] for p in prefixes], self.memory, self.params,
                                         self.config, past=past)
        self._rows = {p: i for i, p in enumerate(prefixes)}
        self._past = [layer.data for layer in rows]
        return logits.data[:, 0]
