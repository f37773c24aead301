"""Minimum-cost assignment and the caption pairing cost it operates on.

The solver is the classic potentials-and-augmenting-paths method, cubic in
the matrix size.  On top of it, ``hungarian`` picks the lexicographically
smallest permutation among cost ties by fixing rows left to right, so the
pairing a training step produces is reproducible down to tie order.
"""

import numpy as np

from .tokenizer import BOS_ID, EOS_ID, PAD_ID


def _solve_min_cost(cost) -> list:
    """One optimal assignment (row -> column) of a square list of float rows,
    no tie-break guarantees."""
    n = len(cost)
    inf = float("inf")
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    p = [0] * (n + 1)  # p[j]: row matched to column j (1-based)
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = [inf] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = p[j0]
            row, ui = cost[i0 - 1], u[i0]
            delta, j1 = inf, -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - ui - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[p[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if p[j0] == 0:
                break
        while j0 != 0:
            j1 = way[j0]
            p[j0] = p[j1]
            j0 = j1
    perm = [0] * n
    for j in range(1, n + 1):
        perm[p[j] - 1] = j - 1
    return perm


def _total(cost, perm) -> float:
    # always accumulate in row order so equal permutations give equal bits
    t = 0.0
    for i, j in enumerate(perm):
        t += cost[i][j]
    return t


def hungarian(cost) -> np.ndarray:
    """Assignment of rows to columns minimizing total cost.

    Among all optimal assignments, returns the lexicographically smallest
    permutation: each row takes the lowest column index that still allows an
    optimal completion of the remaining rows.  The search runs on the matrix
    as Python floats: the same float64 arithmetic, without numpy's per-element
    overhead.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if cost.size == 0:
        raise ValueError("cost matrix is empty")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")
    cost = cost.tolist()
    n = len(cost)
    chosen = []
    free_cols = list(range(n))
    for i in range(n):
        totals = {}
        for c in free_cols:
            rest_cols = [x for x in free_cols if x != c]
            candidate = chosen + [c]
            if rest_cols:
                sub = [[row[x] for x in rest_cols] for row in cost[i + 1:]]
                candidate += [rest_cols[j] for j in _solve_min_cost(sub)]
            totals[c] = _total(cost, candidate)
        best = min(totals.values())
        pick = min(c for c, t in totals.items() if t == best)
        chosen.append(pick)
        free_cols.remove(pick)
    return np.asarray(chosen, dtype=np.int64)


# ---------------------------------------------------------------------------
# caption embedding for pairing costs
# ---------------------------------------------------------------------------


class BagEmbedder:
    """Idf-weighted bag-of-token caption embedding, unit L2 norm.

    A stand-in for a learned text encoder: deterministic, vocabulary-sized,
    and similarity-faithful enough to pair near-duplicate captions first.
    Tokens appearing in every corpus document carry zero weight; a caption
    whose every token is weightless falls back to raw counts.
    """

    def __init__(self, vocab_size: int, idf):
        self.vocab_size = vocab_size
        self.idf = np.asarray(idf, dtype=np.float64)
        if self.idf.shape != (vocab_size,):
            raise ValueError(f"idf table shape {self.idf.shape} does not match vocab size {vocab_size}")

    @classmethod
    def from_corpus(cls, documents, vocab_size: int) -> "BagEmbedder":
        df = np.zeros(vocab_size)
        count = 0
        for ids in documents:
            count += 1
            for tid in set(_content_ids(ids)):
                df[tid] += 1
        if count == 0:
            raise ValueError("embedder corpus is empty")
        with np.errstate(divide="ignore"):
            idf = np.log(count / np.maximum(1.0, df))
        return cls(vocab_size, idf)

    def embed(self, seq) -> np.ndarray:
        counts = np.zeros(self.vocab_size)
        for tid in _content_ids(seq):
            counts[tid] += 1
        vec = counts * self.idf
        norm = np.linalg.norm(vec)
        if norm == 0.0:
            vec = counts
            norm = np.linalg.norm(vec)
        if norm == 0.0:
            return vec  # nothing to embed; costs against it read as 1
        return vec / norm


def _content_ids(ids):
    return [t for t in ids if t not in (PAD_ID, BOS_ID, EOS_ID)]


def pairing_cost(beam_target, beam_online, embedder: BagEmbedder) -> np.ndarray:
    """cost[i, j] = 1 - cosine(embed(target_i), embed(online_j)), in [0, 2]."""
    te = [embedder.embed(s) for s in beam_target]
    oe = [embedder.embed(s) for s in beam_online]
    cost = np.empty((len(te), len(oe)))
    for i, a in enumerate(te):
        for j, b in enumerate(oe):
            cost[i, j] = 1.0 - float(a @ b)
    return cost
