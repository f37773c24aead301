"""Beam search over a pluggable expansion function.

``expand`` maps a list of prefixes to a (B, N) array of next-token logits;
anything that honors that contract can be decoded, which is what the
enumeration-oracle tests and the cached fast decoder both rely on.  Scores
are raw cumulative log-probabilities, no length normalization, and every
tie breaks deterministically: lower token id first, then earlier hypothesis
index.
"""

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .model import decode_logits, encode
from .tokenizer import BOS_ID, EOS_ID


@dataclass
class Hypothesis:
    ids: list
    logprob: float
    logits: list = field(default_factory=list)  # one (N,) row per generated token
    finished: bool = False

    def rescored(self) -> float:
        """Log-probability recomputed from the retained per-step logits."""
        total = 0.0
        for row, tok in zip(self.logits, self.ids[1:]):
            total += float(T._row_log_softmax(row)[tok])
        return total


def beam_search(expand, k: int, max_length: int) -> list:
    """Top-k hypotheses by cumulative log-probability, sorted descending.

    Each live hypothesis proposes its k best next tokens; the global best k
    of (expansions + frozen finished hypotheses) survive.  A hypothesis
    ends when it emits EOS, or stays unfinished if it hits max_length.
    """
    if k < 1:
        raise ValueError(f"beam width must be >= 1, got {k}")
    if max_length < 2:
        raise ValueError(f"max_length must allow BOS plus one token, got {max_length}")
    beam = [Hypothesis([BOS_ID], 0.0)]
    while True:
        live = [i for i, h in enumerate(beam) if not h.finished and len(h.ids) < max_length]
        if not live:
            break
        rows = np.asarray(expand([beam[i].ids for i in live]))
        logp = T._row_log_softmax(rows)
        # a single hypothesis can propose at most every token; the beam
        # itself may be wider than the vocabulary (enumeration regime)
        best = (-logp).argsort(axis=-1, kind="stable")[:, :k]
        best_logp = logp[np.arange(len(live))[:, None], best].tolist()
        # (-logprob, token, hypothesis index, live row); frozen ones use token -1,
        # so no two candidates share a (token, hypothesis) pair and sorting
        # whole tuples never reaches the live row
        candidates = [(-h.logprob, -1, i, None) for i, h in enumerate(beam)
                      if h.finished or len(h.ids) >= max_length]
        for r, (i, toks) in enumerate(zip(live, best.tolist())):
            base = beam[i].logprob
            candidates += [(-(base + lp), tok, i, r) for tok, lp in zip(toks, best_logp[r])]
        candidates.sort()
        survivors = []
        for neg, tok, i, r in candidates[:k]:
            h = beam[i]
            survivors.append(h if r is None else
                             Hypothesis(h.ids + [tok], -neg, h.logits + [rows[r]], tok == EOS_ID))
        beam = survivors
    beam.sort(key=lambda h: -h.logprob)
    return beam


# ---------------------------------------------------------------------------
# model-backed expansion
# ---------------------------------------------------------------------------


def model_expander(params, config, encoder_layers):
    """Gradient-free expansion via full re-decoding; simple, used as the
    reference implementation for the cached decoder's equivalence tests."""

    def expand(prefixes):
        with T.no_grad():
            return np.stack([decode_logits(ids, encoder_layers, params, config).data[-1] for ids in prefixes])

    return expand


def caption_image(params, config, grid, k: int):
    """Encode one image and beam-search a caption; returns the Beam."""
    from .fastdecode import FastDecoder

    if k > config.vocab_size:
        raise ValueError(f"beam width {k} exceeds vocabulary size {config.vocab_size}")
    with T.no_grad():
        enc = encode(grid, params, config)
    fast = FastDecoder(params, config, enc)
    return beam_search(fast.expand, k, config.max_length)
