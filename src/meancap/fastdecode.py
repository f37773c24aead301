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
the last row of ``model.decode_logits`` over the whole prefix up to
floating-point summation order, which the equivalence tests pin down.
"""

import functools

import numpy as np

from . import tensor as T
from .model import NEG_INF, ModelConfig, cross_memory, decode_layers
from .tokenizer import BOS_ID

# distinct prefix-length tuples whose block layout is kept.  A beam search
# extends its live beams together, so a tuple is mostly one length repeated
# up to the beam width: seed 1 met 28 tuples in 4,924 passes over 60
# scst-pairs steps and 15 in 824 passes over 100 caption-eval images
LAYOUT_CACHE_SIZE = 256


@functools.lru_cache(maxsize=LAYOUT_CACHE_SIZE)
def _block_layout(lengths: tuple, dtype):
    """Block mask and row order of one pass over prefixes whose parents hold
    ``lengths`` rows: key rows are the parents' rows, stacked, then one new
    row per prefix.  The mask lets each new row see its own parent's rows and
    itself; the stable order groups each prefix's rows, past before new, and
    ``ends[i]`` closes prefix i's group.  Read-only, shared between calls."""
    ids = np.arange(len(lengths))
    owner = np.concatenate([np.repeat(ids, lengths), ids])  # the prefix each key row belongs to
    mask = np.where(owner == ids[:, None], 0.0, NEG_INF).astype(dtype)
    order = np.argsort(owner, kind="stable")
    mask.flags.writeable = order.flags.writeable = False
    return mask, order, np.cumsum(np.asarray(lengths) + 1).tolist()


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
        return np.array([self._cache[p][1] for p in prefixes])

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
        lengths = tuple(len(p) - 1 for p in prefixes)
        mask, order, ends = _block_layout(lengths, self.params["embed.tokens"].dtype)
        with T.no_grad():
            logits, rows = decode_layers([p[-1] for p in prefixes], lengths, self.memory,
                                         self.params, self.config, mask, past=past)
        grouped = [layer.data[order] for layer in rows]
        start = 0
        for i, (p, end) in enumerate(zip(prefixes, ends)):
            self._cache[p] = ([g[start:end] for g in grouped], logits.data[i])
            start = end
