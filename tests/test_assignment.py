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


# --- pairing cost ----------------------------------------------------------


def seq(*content):
    return [BOS_ID] + list(content) + [EOS_ID]


def test_bag_embedder_unit_norm_and_identity_cost():
    emb = A.BagEmbedder(vocab_size=12)
    a = emb.embed(seq(4, 5, 6, 5))
    assert abs(np.linalg.norm(a) - 1.0) < 1e-9
    cost = A.pairing_cost([seq(4, 5, 6, 5)], [seq(4, 5, 6, 5)], emb)
    assert abs(cost[0, 0]) < 1e-9


def test_pairing_cost_range_and_zero_iff_identical():
    rng = np.random.default_rng(5)
    emb = A.BagEmbedder(vocab_size=20)
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
    emb = A.BagEmbedder(vocab_size=30)
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
