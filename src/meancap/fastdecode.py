"""Prefix cache over the model's decoder layers, for beam search; eval only.

Re-decoding every prefix from BOS makes beam search quadratic per token.
This cache keeps, for each prefix it has decoded, every decoder layer's
self-attention rows and the logits row, so extending a prefix decodes one
new row against its parent's cached rows.  One ``expand`` call decodes all
of its uncached prefixes in a single ``model.decode_layers`` pass: the
parents' rows are stacked, and a block mask lets each new row see only its
own parent's rows and itself, so prefixes of different lengths share the
pass.  The image's cross-attention keys and values are projected once, up
front; the cache keeps self-attention layer inputs, so each pass projects
the stacked rows again.  The arithmetic is the model's own; results match
``model.decode_step`` up to floating-point summation order, which the
equivalence tests pin down.
"""

import numpy as np

from . import tensor as T
from .model import NEG_INF, ModelConfig, cross_memory, decode_layers
from .tokenizer import BOS_ID


class FastDecoder:
    def __init__(self, params, config: ModelConfig, encoder_layers):
        self.params = params
        self.config = config
        with T.no_grad():
            self.memory = cross_memory(encoder_layers, params, config)
        # prefix tuple -> (per-layer self-attention rows (t, d), logits row)
        self._cache = {}

    def expand(self, prefixes) -> np.ndarray:
        prefixes = [tuple(p) for p in prefixes]
        self._fill(prefixes)
        return np.stack([self._cache[p][1] for p in prefixes])

    def _fill(self, prefixes) -> None:
        missing = [p for p in dict.fromkeys(prefixes) if p not in self._cache]
        parents = [p[:-1] for p in missing if len(p) > 1 and p[:-1] not in self._cache]
        if parents:
            self._fill(parents)
        missing = [p for p in missing if p not in self._cache]
        if missing:
            self._decode(missing)

    def _decode(self, prefixes) -> None:
        """One decoder pass over prefixes whose parents are all cached."""
        if any(p[:1] != (BOS_ID,) for p in prefixes):
            raise ValueError("decoder prefix must begin with BOS")
        parents = [self._cache[p[:-1]][0] for p in prefixes if len(p) > 1]
        past = [T.Tensor(np.concatenate([rows[j] for rows in parents]))
                for j in range(self.config.num_decoder_layers)] if parents else None
        lengths = [len(p) - 1 for p in prefixes]
        ids = np.arange(len(prefixes))
        owner = np.concatenate([np.repeat(ids, lengths), ids])  # the prefix each key row belongs to
        mask = np.where(owner == ids[:, None], 0.0, NEG_INF).astype(self.params["embed.tokens"].dtype)
        with T.no_grad():
            logits, rows = decode_layers([p[-1] for p in prefixes], lengths, self.memory,
                                         self.params, self.config, mask, past=past)
        for i, p in enumerate(prefixes):
            self._cache[p] = ([layer.data[owner == i] for layer in rows], logits.data[i])
