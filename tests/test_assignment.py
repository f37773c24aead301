"""Assignment solver against brute force, and the pairing cost geometry."""

from itertools import permutations

import numpy as np
import pytest

from meancap import assignment as A
from meancap.tokenizer import BOS_ID, EOS_ID


def brute_force(cost):
    """Lexicographically first permutation achieving the minimal row-order total."""
    n = cost.shape[0]
    best_perm, best_total = None, None
    for perm in permutations(range(n)):
        total = 0.0
        for i in range(n):
            total += float(cost[i, perm[i]])
        if best_total is None or total < best_total:
            best_total, best_perm = total, perm
    return np.asarray(best_perm), best_total


def row_total(cost, perm):
    total = 0.0
    for i, j in enumerate(perm):
        total += float(cost[i, j])
    return total


def test_one_by_one():
    assert A.hungarian([[3.5]]).tolist() == [0]


def test_zero_diagonal_picks_identity():
    cost = 1.0 - np.eye(4)
    perm = A.hungarian(cost)
    assert perm.tolist() == [0, 1, 2, 3]
    assert row_total(cost, perm) == 0.0


def test_matches_brute_force_on_random_matrices():
    rng = np.random.default_rng(123)
    for trial in range(60):
        n = int(rng.integers(2, 8))
        cost = rng.random((n, n)) * rng.uniform(0.5, 20.0)
        perm = A.hungarian(cost)
        assert sorted(perm.tolist()) == list(range(n))
        _, best_total = brute_force(cost)
        assert row_total(cost, perm) == best_total


def test_lexicographic_tie_break_matches_ordered_brute_force():
    # small integer entries force plenty of exact ties
    rng = np.random.default_rng(321)
    for trial in range(60):
        n = int(rng.integers(2, 6))
        cost = rng.integers(0, 3, size=(n, n)).astype(np.float64)
        perm = A.hungarian(cost)
        want_perm, want_total = brute_force(cost)
        assert row_total(cost, perm) == want_total
        assert perm.tolist() == want_perm.tolist()


def test_all_equal_costs_give_identity():
    assert A.hungarian(np.ones((5, 5))).tolist() == [0, 1, 2, 3, 4]


def test_row_constant_shift_preserves_assignment():
    rng = np.random.default_rng(7)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        cost = rng.integers(0, 10, size=(n, n)).astype(np.float64)
        perm = A.hungarian(cost)
        shifted = cost.copy()
        row = int(rng.integers(n))
        shifted[row] += float(rng.integers(1, 50))
        assert A.hungarian(shifted).tolist() == perm.tolist()


def test_rejects_bad_matrices():
    with pytest.raises(ValueError):
        A.hungarian(np.ones((2, 3)))
    with pytest.raises(ValueError):
        A.hungarian(np.array([[1.0, np.inf], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        A.hungarian(np.zeros((0, 0)))


def test_embedder_rejects_a_mismatched_idf_table_and_an_empty_corpus():
    with pytest.raises(ValueError, match="idf table shape"):
        A.BagEmbedder(12, np.ones(11))
    with pytest.raises(ValueError, match="corpus is empty"):
        A.BagEmbedder.from_corpus([], vocab_size=12)


# --- pairing cost ----------------------------------------------------------


def seq(*content):
    return [BOS_ID] + list(content) + [EOS_ID]


def test_bag_embedder_unit_norm_and_identity_cost():
    emb = A.BagEmbedder(12, np.ones(12))
    a = emb.embed(seq(4, 5, 6, 5))
    assert abs(np.linalg.norm(a) - 1.0) < 1e-9
    cost = A.pairing_cost([seq(4, 5, 6, 5)], [seq(4, 5, 6, 5)], emb)
    assert abs(cost[0, 0]) < 1e-9


def test_pairing_cost_range_and_zero_iff_identical():
    rng = np.random.default_rng(5)
    emb = A.BagEmbedder(20, np.ones(20))
    beams = [seq(*rng.integers(3, 20, size=rng.integers(1, 6)).tolist()) for _ in range(6)]
    cost = A.pairing_cost(beams, beams, emb)
    assert np.all(cost >= -1e-12) and np.all(cost <= 2.0 + 1e-12)
    for i in range(6):
        for j in range(6):
            ei, ej = emb.embed(beams[i]), emb.embed(beams[j])
            if cost[i, j] < 1e-9:
                assert np.allclose(ei, ej, atol=1e-9)
            if np.allclose(ei, ej, atol=1e-12):
                assert cost[i, j] < 1e-9


def test_idf_weights_discount_ubiquitous_tokens():
    docs = [seq(3, 4), seq(3, 5), seq(3, 6)]  # token 3 in every document
    emb = A.BagEmbedder.from_corpus(docs, vocab_size=10)
    assert emb.idf[3] == 0.0
    vec = emb.embed(seq(3, 4))
    assert vec[3] == 0.0 and vec[4] > 0.0


def test_all_zero_weight_caption_falls_back_to_counts():
    docs = [seq(3), seq(3, 4)]
    emb = A.BagEmbedder.from_corpus(docs, vocab_size=10)
    vec = emb.embed(seq(3))  # idf[3] == 0, fallback keeps it embeddable
    assert abs(np.linalg.norm(vec) - 1.0) < 1e-9
    empty = emb.embed(seq())
    assert np.all(empty == 0.0)


def test_hungarian_pairs_near_duplicates_first():
    emb = A.BagEmbedder(30, np.ones(30))
    target = [seq(3, 4, 5), seq(6, 7), seq(8, 9, 10)]
    online = [seq(8, 9, 10), seq(3, 4, 5), seq(6, 7)]
    cost = A.pairing_cost(target, online, emb)
    perm = A.hungarian(cost)
    assert perm.tolist() == [1, 2, 0]


def test_hungarian_total_matches_scipy():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(44)
    for n in range(2, 13):
        for _ in range(3):
            cost = rng.random((n, n)) * 10.0
            perm = A.hungarian(cost)
            assert sorted(perm.tolist()) == list(range(n))
            rows, cols = optimize.linear_sum_assignment(cost)
            assert abs(cost[np.arange(n), perm].sum() - cost[rows, cols].sum()) <= 1e-9


# --- the numpy solver the list-based one replaced ----------------------------
# Copied verbatim from the numpy-array implementation (only the names carry
# an "oracle" prefix): the list-based solver must make exactly its choices.


def oracle_solve_min_cost(cost: np.ndarray) -> np.ndarray:
    """One optimal assignment (row -> column), no tie-break guarantees."""
    n = cost.shape[0]
    u = np.zeros(n + 1)
    v = np.zeros(n + 1)
    p = np.zeros(n + 1, dtype=np.int64)  # p[j]: row matched to column j (1-based)
    way = np.zeros(n + 1, dtype=np.int64)
    for i in range(1, n + 1):
        p[0] = i
        j0 = 0
        minv = np.full(n + 1, np.inf)
        used = np.zeros(n + 1, dtype=bool)
        while True:
            used[j0] = True
            i0 = p[j0]
            delta, j1 = np.inf, -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1, j - 1] - u[i0] - v[j]
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
    perm = np.zeros(n, dtype=np.int64)
    for j in range(1, n + 1):
        perm[p[j] - 1] = j - 1
    return perm


def oracle_total(cost: np.ndarray, perm) -> float:
    # always accumulate in row order so equal permutations give equal bits
    t = 0.0
    for i, j in enumerate(perm):
        t += float(cost[i, j])
    return t


def oracle_hungarian(cost) -> np.ndarray:
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2 or cost.shape[0] != cost.shape[1]:
        raise ValueError(f"cost matrix must be square, got shape {cost.shape}")
    if cost.size == 0:
        raise ValueError("cost matrix is empty")
    if not np.all(np.isfinite(cost)):
        raise ValueError("cost matrix contains non-finite entries")
    n = cost.shape[0]
    chosen = []
    free_cols = list(range(n))
    for i in range(n):
        totals = {}
        for c in free_cols:
            rest_cols = [x for x in free_cols if x != c]
            candidate = chosen + [c]
            if rest_cols:
                sub = cost[np.ix_(range(i + 1, n), rest_cols)]
                sub_perm = oracle_solve_min_cost(sub)
                candidate += [rest_cols[j] for j in sub_perm]
            totals[c] = oracle_total(cost, candidate)
        best = min(totals.values())
        pick = min(c for c, t in totals.items() if t == best)
        chosen.append(pick)
        free_cols.remove(pick)
    return np.asarray(chosen, dtype=np.int64)


def _one_ulp_apart(rng, cost):
    """``cost`` with a random half of its entries moved one ulp up or down."""
    moved = rng.random(cost.shape) < 0.5
    toward = np.where(rng.random(cost.shape) < 0.5, np.inf, -np.inf)
    return np.where(moved, np.nextafter(cost, toward), cost)


@pytest.mark.parametrize("n", range(1, 8))
def test_list_solver_matches_the_numpy_solver_exactly(n):
    rng = np.random.default_rng(n)
    matrices = [np.full((n, n), 0.5), np.ones((n, n))]
    for _ in range(12):
        matrices.append(rng.random((n, n)) * rng.uniform(0.5, 2.0))
        ties = rng.integers(0, 3, size=(n, n)).astype(np.float64)
        matrices += [ties, _one_ulp_apart(rng, ties), _one_ulp_apart(rng, 1.0 - np.eye(n))]
    for cost in matrices:
        want = oracle_hungarian(cost)
        got = A.hungarian(cost)
        assert got.dtype == want.dtype and got.tolist() == want.tolist(), cost
        assert A._solve_min_cost(cost.tolist()) == oracle_solve_min_cost(cost).tolist()
