"""Incremental decoding over the model's decoder layers, for beam search; eval only.

Re-decoding every prefix from BOS makes beam search quadratic per token.
``FastDecoder`` keeps its previous ``expand`` call's self-attention rows
instead, one (P, t, d) array per decoder layer, P prefixes of t rows: the
layout of incremental Transformer decoders (fairseq).  As fairseq's beam
reorders its decoder's state, ``decoding.beam_search`` passes each prefix's
parent row in the previous call, so a call gathers those rows and makes one
``model.decode_layers`` pass with one new row per prefix; the decoder never
looks at the prefixes' history.  The image's cross-attention keys and values
are projected once, up front.  Results match the last row of
``model.decode_logits`` over the whole prefix up to floating-point summation
order, which the equivalence tests pin down.
"""

import numpy as np

from . import tensor as T
from .model import ModelConfig, cross_memory, decode_layers


class FastDecoder:
    def __init__(self, params, config: ModelConfig, encoder_layers):
        self.params, self.config = params, config
        with T.no_grad():
            self.memory = cross_memory(encoder_layers, params, config)
        self._past = None

    def expand(self, prefixes, parents) -> np.ndarray:
        # a call with parents extends the previous call; one without starts over at [BOS]
        if any(len(p) > 1 for p in prefixes) if parents is None else self._past is None:
            raise ValueError("a prefix longer than [BOS] extends a row of a previous call")
        past = None if parents is None else [T.Tensor(layer[parents]) for layer in self._past]
        with T.no_grad():
            logits, rows = decode_layers([p[-1:] for p in prefixes], self.memory, self.params,
                                         self.config, past=past)
        self._past = [layer.data for layer in rows]
        return logits.data[:, 0]
