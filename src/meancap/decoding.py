"""Beam search and greedy decoding over a pluggable expansion function.

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
from .model import decode_step, encode
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
            total += float(_log_softmax(row)[tok])
        return total


def _log_softmax(row: np.ndarray) -> np.ndarray:
    shifted = row - row.max()
    return shifted - np.log(np.exp(shifted).sum())


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
        live = [h for h in beam if not h.finished and len(h.ids) < max_length]
        if not live:
            break
        rows = np.asarray(expand([h.ids for h in live]))
        live_iter = iter(range(len(live)))
        candidates = []
        for idx, h in enumerate(beam):
            if h.finished or len(h.ids) >= max_length:
                candidates.append((-h.logprob, -1, idx, h))
                continue
            row = rows[next(live_iter)]
            logp = _log_softmax(row)
            # a single hypothesis can propose at most every token; the beam
            # itself may be wider than the vocabulary (enumeration regime)
            best = (-logp).argsort(kind="stable")[:min(k, len(logp))]
            for tok in best.tolist():
                nh = Hypothesis(h.ids + [tok], h.logprob + float(logp[tok]),
                                h.logits + [row], tok == EOS_ID)
                candidates.append((-nh.logprob, tok, idx, nh))
        candidates.sort(key=lambda c: c[:3])
        beam = [c[3] for c in candidates[:k]]
    beam.sort(key=lambda h: -h.logprob)
    return beam


def greedy(expand, max_length: int) -> Hypothesis:
    """Argmax decoding; argmax takes the lowest token id on exact ties."""
    h = Hypothesis([BOS_ID], 0.0)
    while not h.finished and len(h.ids) < max_length:
        row = np.asarray(expand([h.ids]))[0]
        logp = _log_softmax(row)
        tok = int(np.argmax(logp))
        h = Hypothesis(h.ids + [tok], h.logprob + float(logp[tok]),
                       h.logits + [row], tok == EOS_ID)
    return h


# ---------------------------------------------------------------------------
# model-backed expansion
# ---------------------------------------------------------------------------


def model_expander(params, config, encoder_layers, gate_override=None):
    """Gradient-free expansion via full re-decoding; simple, used as the
    reference implementation for the cached decoder's equivalence tests."""

    def expand(prefixes):
        out = []
        with T.no_grad():
            for ids in prefixes:
                logits = decode_step(ids, encoder_layers, params, config,
                                     gate_override=gate_override)
                out.append(logits.data[0])
        return np.stack(out)

    return expand


def caption_image(params, config, grid, k: int, max_length=None):
    """Encode one image and beam-search a caption; returns the Beam."""
    from .fastdecode import FastDecoder

    if k > config.vocab_size:
        raise ValueError(f"beam width {k} exceeds vocabulary size {config.vocab_size}")
    max_length = config.max_length if max_length is None else max_length
    with T.no_grad():
        enc = encode(grid, params, config)
    fast = FastDecoder(params, config, enc)
    return beam_search(fast.expand, k, max_length)
