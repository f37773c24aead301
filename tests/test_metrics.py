"""Metric implementations against independent explicit-formula oracles.

The oracles below recompute every quantity with plain dict/loop code and no
shared helpers, so agreement is evidence rather than tautology.
"""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from meancap import metrics as M


# --- oracles ---------------------------------------------------------------


def _grams(words, n):
    out = {}
    for i in range(len(words) - n + 1):
        g = tuple(words[i:i + n])
        out[g] = out.get(g, 0) + 1
    return out


def oracle_bleu(cands, refs, n):
    clipped = {k: 0 for k in range(1, n + 1)}
    total = {k: 0 for k in range(1, n + 1)}
    c_len, r_len = 0, 0
    for cand, rlist in zip(cands, refs):
        cw = cand.lower().split()
        rws = [r.lower().split() for r in rlist]
        c_len += len(cw)
        best = None
        for rw in rws:
            key = (abs(len(rw) - len(cw)), len(rw))
            if best is None or key < best:
                best = key
        r_len += best[1]
        for k in range(1, n + 1):
            cg = _grams(cw, k)
            for g, cnt in cg.items():
                most = 0
                for rw in rws:
                    rc = _grams(rw, k).get(g, 0)
                    if rc > most:
                        most = rc
                clipped[k] += min(cnt, most)
                total[k] += cnt
    prod = 1.0
    for k in range(1, n + 1):
        if total[k] == 0 or clipped[k] == 0:
            return 0.0
        prod *= clipped[k] / total[k]
    bp = 1.0 if c_len > r_len else math.exp(1.0 - r_len / c_len)
    return bp * prod ** (1.0 / n)


def oracle_lcs(a, b):
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            if a[i - 1] == b[j - 1]:
                table[i][j] = table[i - 1][j - 1] + 1
            else:
                table[i][j] = max(table[i - 1][j], table[i][j - 1])
    return table[len(a)][len(b)]


def oracle_rouge(cands, refs):
    scores = []
    for cand, rlist in zip(cands, refs):
        cw = cand.lower().split()
        best = 0.0
        for r in rlist:
            rw = r.lower().split()
            lcs = oracle_lcs(cw, rw)
            if lcs == 0 or not cw or not rw:
                continue
            p, rec = lcs / len(cw), lcs / len(rw)
            f = (1 + 1.2 ** 2) * p * rec / (rec + 1.2 ** 2 * p)
            if f > best:
                best = f
        scores.append(best)
    return sum(scores) / len(scores)


def oracle_cider(cands, refs):
    num_images = len(refs)
    df = {}
    for rlist in refs:
        seen = set()
        for r in rlist:
            rw = r.lower().split()
            for n in range(1, 5):
                seen .update(_grams(rw, n))
        for g in seen:
            df[g] = df.get(g, 0) + 1

    def idf(g):
        return math.log(num_images / max(1.0, df.get(g, 0)))

    per_image = []
    for cand, rlist in zip(cands, refs):
        cw = cand.lower().split()
        acc = 0.0
        for n in range(1, 5):
            cg = _grams(cw, n)
            cvec = {g: c * idf(g) for g, c in cg.items()}
            cnorm = math.sqrt(sum(v * v for v in cvec.values()))
            sim_sum = 0.0
            for r in rlist:
                rw = r.lower().split()
                rg = _grams(rw, n)
                rvec = {g: c * idf(g) for g, c in rg.items()}
                rnorm = math.sqrt(sum(v * v for v in rvec.values()))
                if cnorm == 0 or rnorm == 0:
                    continue
                dot = 0.0
                for g in cvec:
                    if g in rvec:
                        dot += min(cvec[g], rvec[g]) * rvec[g]
                delta = len(cw) - len(rw)
                sim_sum += (dot / (cnorm * rnorm)) * math.exp(-delta * delta / 72.0)
            acc += sim_sum / len(rlist)
        per_image.append(10.0 * acc / 4.0)
    return sum(per_image) / len(per_image), per_image


def random_corpus(rng, max_images=5, max_refs=5):
    alphabet = ["cat", "dog", "sat", "ran", "big", "red", "the", "a"]
    def sentence():
        return " ".join(rng.choice(alphabet) for _ in range(rng.integers(1, 9)))
    images = int(rng.integers(1, max_images + 1))
    cands = [sentence() for _ in range(images)]
    refs = [[sentence() for _ in range(rng.integers(1, max_refs + 1))] for _ in range(images)]
    return cands, refs


# --- trivial cases ---------------------------------------------------------


def test_perfect_match_bleu4_is_one():
    cands = ["a red ball on the mat", "two dogs run fast today"]
    refs = [[c] for c in cands]
    assert M.bleu(cands, refs, 4) == 1.0


def test_disjoint_tokens_score_zero():
    cands, refs = ["a b c d"], [["e f g h"]]
    assert M.bleu(cands, refs, 1) == 0.0
    assert M.rouge_l(cands, refs) == 0.0
    df = M.DocumentFrequency(refs)
    assert M.cider_d(cands, refs, df) == 0.0


def test_identical_rouge_is_one():
    assert M.rouge_l(["x y z"], [["x y z"]]) == pytest.approx(1.0, abs=1e-12)


def test_empty_candidate_cider_is_zero():
    refs = [["a red ball"]]
    df = M.DocumentFrequency(refs)
    assert M.cider_d([""], refs, df) == 0.0


def test_rouge_handles_known_lcs():
    # candidate "a b c d" vs reference "a c d": LCS=3, P=3/4, R=1
    p, r = 0.75, 1.0
    expect = (1 + 1.44) * p * r / (r + 1.44 * p)
    got = M.rouge_l(["a b c d"], [["a c d"]])
    assert got == pytest.approx(expect, abs=1e-12)
    assert got == pytest.approx(oracle_rouge(["a b c d"], [["a c d"]]), abs=1e-12)


def test_bleu_hand_computed_corpus():
    cands = ["the cat sat on the mat", "a quick brown fox jumps"]
    refs = [
        ["the cat sat on a mat"],
        ["the quick brown fox jumps over", "a quick brown fox leaps high"],
    ]
    # clipped/total by hand: p1=10/11, p2=7/9, p3=5/7, p4=3/5; c=11, r=12
    expect = math.exp(1 - 12 / 11) * (10 / 11 * 7 / 9 * 5 / 7 * 3 / 5) ** 0.25
    assert M.bleu(cands, refs, 4) == pytest.approx(expect, abs=1e-12)


def test_brevity_tie_prefers_shorter_reference():
    # candidate length 4; references of length 3 and 5 tie on distance.
    # precision is 1 either way, so the score isolates the brevity penalty:
    # r=3 (shorter wins) gives bp=1; r=5 would give exp(1-5/4).
    cands = ["a b c d"]
    refs = [["a b c", "a b c d e"]]
    got = M.bleu(cands, refs, 1)
    assert got == pytest.approx(1.0, abs=1e-12)


# --- oracle sweeps ---------------------------------------------------------


def per_image_cider(cands, refs, df) -> list:
    """Each image's CIDEr-D, scored the way an SCST step rewards a caption."""
    return [M.reward(c, M.reference_vectors(r, df), df) for c, r in zip(cands, refs)]


def test_metrics_match_oracles_on_random_corpora():
    rng = np.random.default_rng(99)
    for _ in range(25):
        cands, refs = random_corpus(rng)
        for n in range(1, 5):
            got = M.bleu(cands, refs, n)
            assert abs(got - oracle_bleu(cands, refs, n)) < 1e-9
            assert 0.0 <= got <= 1.0
        got_r = M.rouge_l(cands, refs)
        assert abs(got_r - oracle_rouge(cands, refs)) < 1e-9
        assert 0.0 <= got_r <= 1.0
        df = M.DocumentFrequency(refs)
        got_c = M.cider_d(cands, refs, df)
        want_mean, want_per = oracle_cider(cands, refs)
        assert abs(got_c - want_mean) < 1e-9
        assert got_c >= 0.0
        for a, b in zip(per_image_cider(cands, refs, df), want_per):
            assert abs(a - b) < 1e-9


def test_reference_order_invariance():
    rng = np.random.default_rng(41)
    cands, refs = random_corpus(rng)
    refs2 = [list(reversed(r)) for r in refs]
    df1, df2 = M.DocumentFrequency(refs), M.DocumentFrequency(refs2)
    for n in range(1, 5):
        assert M.bleu(cands, refs, n) == M.bleu(cands, refs2, n)
    assert M.rouge_l(cands, refs) == M.rouge_l(cands, refs2)
    assert M.cider_d(cands, refs, df1) == M.cider_d(cands, refs2, df2)


def test_duplicate_image_changes_df_deterministically():
    cands = ["a red ball", "a blue cube"]
    refs = [["a red ball sits"], ["a blue cube spins"]]
    base = per_image_cider(cands, refs, M.DocumentFrequency(refs))
    # duplicating image 1 raises df for its grams and the corpus size
    cands3, refs3 = cands + [cands[0]], refs + [refs[0]]
    df3 = M.DocumentFrequency(refs3)
    dup, dup_per = M.cider_d(cands3, refs3, df3), per_image_cider(cands3, refs3, df3)
    want_mean, want_per = oracle_cider(cands3, refs3)
    assert dup == pytest.approx(want_mean, abs=1e-12)
    for a, b in zip(dup_per, want_per):
        assert a == pytest.approx(b, abs=1e-12)
    assert dup_per[0] != base[0]


def test_reward_is_pure_and_matches_cider():
    cands, refs = random_corpus(np.random.default_rng(17))
    df = M.DocumentFrequency(refs)
    r1 = M.reward(cands[0], M.reference_vectors(refs[0], df), df)
    r2 = M.reward(cands[0], M.reference_vectors(refs[0], df), df)
    assert r1 == r2
    assert r1 == M.cider_d(cands[:1], refs[:1], df)


def test_error_paths():
    with pytest.raises(ValueError):
        M.bleu([], [], 4)
    good = M.DocumentFrequency([["a"]])
    with pytest.raises(ValueError, match="every image needs at least one reference"):
        M.reference_vectors([], good)
    with pytest.raises(ValueError, match="CIDEr-D needs a document-frequency table"):
        M.reference_vectors(["a"], None)
    with pytest.raises(ValueError):
        M.bleu(["a"], [["a"], ["b"]], 4)
    with pytest.raises(ValueError):
        M.rouge_l(["a"], [[]])
    with pytest.raises(ValueError):
        M.DocumentFrequency([])
    df = M.DocumentFrequency([["a"]])
    df.df.clear()
    with pytest.raises(ValueError):
        M.cider_d(["a"], [["a"]], df)


def test_evaluate_all_reports_all_keys():
    cands, refs = random_corpus(np.random.default_rng(3))
    out = M.evaluate_all(cands, refs)
    assert set(out) == {"BLEU-1", "BLEU-2", "BLEU-3", "BLEU-4", "ROUGE-L", "CIDEr-D"}


# --- BLEU-1..4 from one pass -----------------------------------------------------
# ``per_order_bleu`` is copied verbatim from the implementation that counted
# orders 1..n again for each n (only the name differs): every BLEU value must
# equal it bit for bit.


def per_order_bleu(candidates, references, n):
    clipped = [0] * n
    total = [0] * n
    cand_len_sum = 0
    ref_len_sum = 0
    for cand, refs in zip(candidates, references):
        cand_toks = M.metric_tokens(cand)
        refs_toks = [M.metric_tokens(r) for r in refs]
        cand_len_sum += len(cand_toks)
        ref_len_sum += M._closest_ref_length(len(cand_toks), [len(r) for r in refs_toks])
        for k in range(1, n + 1):
            counts = M.ngram_counts(cand_toks, k)
            if not counts:
                continue
            max_ref = Counter()
            for rt in refs_toks:
                for gram, c in M.ngram_counts(rt, k).items():
                    if c > max_ref[gram]:
                        max_ref[gram] = c
            clipped[k - 1] += sum(min(c, max_ref[gram]) for gram, c in counts.items())
            total[k - 1] += sum(counts.values())
    if any(t == 0 for t in total) or any(c == 0 for c in clipped):
        return 0.0
    log_mean = sum(math.log(c / t) for c, t in zip(clipped, total)) / n
    bp = 1.0 if cand_len_sum > ref_len_sum else math.exp(1.0 - ref_len_sum / cand_len_sum)
    return bp * math.exp(log_mean)


# short texts over few words, so that captions under four words (zero
# precision at the higher orders) and clipped repeats are common
_texts = st.lists(st.sampled_from(["a", "red", "ball", "Red", "the", "cube"]),
                  min_size=0, max_size=7).map(" ".join)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_texts, st.lists(_texts.filter(bool), min_size=1, max_size=4)),
                min_size=1, max_size=5))
def test_evaluate_all_bleu_equals_four_separate_bleu_calls(images):
    cands = [c for c, _ in images]
    refs = [r for _, r in images]
    out = M.evaluate_all(cands, refs)
    for n in range(1, M.MAX_N + 1):
        assert out[f"BLEU-{n}"] == M.bleu(cands, refs, n) == per_order_bleu(cands, refs, n)


# --- the uncached reward ------------------------------------------------------
# Copied verbatim from the implementation that rebuilt every reference's
# vectors per hypothesis (only the names carry an "oracle" prefix, and idf is
# the table's Counter lookup it used): the reward against vectors built once
# per image must equal it bit for bit.


def oracle_idf(df, gram) -> float:
    return math.log(df.num_images / max(1.0, df.df[gram]))


def oracle_tfidf_vectors(tokens, df):
    vecs, norms = [], []
    for n in range(1, M.MAX_N + 1):
        vec = {g: c * oracle_idf(df, g) for g, c in M.ngram_counts(tokens, n).items()}
        vecs.append(vec)
        norms.append(math.sqrt(sum(v * v for v in vec.values())))
    return vecs, norms


def oracle_cider_image(cand_toks, refs_toks, df) -> float:
    cand_vecs, cand_norms = oracle_tfidf_vectors(cand_toks, df)
    totals = [0.0] * M.MAX_N
    for ref_toks in refs_toks:
        ref_vecs, ref_norms = oracle_tfidf_vectors(ref_toks, df)
        delta = float(len(cand_toks) - len(ref_toks))
        penalty = math.exp(-(delta * delta) / (2.0 * M.CIDER_SIGMA * M.CIDER_SIGMA))
        for i in range(M.MAX_N):
            if cand_norms[i] == 0.0 or ref_norms[i] == 0.0:
                continue
            # candidate counts clipped by the reference before the dot product
            num = sum(min(v, ref_vecs[i].get(g, 0.0)) * ref_vecs[i].get(g, 0.0)
                      for g, v in cand_vecs[i].items())
            totals[i] += penalty * num / (cand_norms[i] * ref_norms[i])
    per_n = [t / len(refs_toks) for t in totals]
    return M.CIDER_SCALE * sum(per_n) / M.MAX_N


def oracle_reward(text, refs, df) -> float:
    return oracle_cider_image(M.metric_tokens(text), [M.metric_tokens(r) for r in refs], df)


def test_reward_equals_the_uncached_reward_bit_for_bit():
    rng = np.random.default_rng(5)
    for _ in range(40):
        cands, refs = random_corpus(rng, max_images=4, max_refs=5)
        df = M.DocumentFrequency(refs)
        # each image scored against several hypotheses in turn, as an SCST
        # step does: all of them against the image's vectors, built once
        for image_refs in refs:
            vectors = M.reference_vectors(image_refs, df)
            for text in cands + ["", "zebra", "zebra quokka the cat", "THE Cat sat sat sat"]:
                assert M.reward(text, vectors, df) == oracle_reward(text, image_refs, df)
            # a list or a tuple of the same references builds the same vectors
            assert (M.reward(cands[0], M.reference_vectors(tuple(image_refs), df), df)
                    == oracle_reward(cands[0], image_refs, df))


def test_reward_reads_the_table_its_reference_vectors_were_built_with():
    refs = ["a red ball on the mat", "the red ball sits"]
    # the same references inside two corpora give two idf tables
    df_small = M.DocumentFrequency([refs, ["a blue cube"]])
    df_large = M.DocumentFrequency([refs] + [["the red cube spins", "a ball"]] * 4)
    texts = ["a red ball", "the ball", "red red mat", ""]
    small = [M.reward(t, M.reference_vectors(refs, df_small), df_small) for t in texts]
    large = [M.reward(t, M.reference_vectors(refs, df_large), df_large) for t in texts]
    for t, want_small, want_large in zip(texts, small, large):
        assert want_small == oracle_reward(t, refs, df_small)
        assert want_large == oracle_reward(t, refs, df_large)
    assert small[:3] != large[:3]
