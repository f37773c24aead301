"""Caption quality metrics: corpus BLEU, ROUGE-L, CIDEr-D.

These serve double duty as the evaluation protocol and as the sequence-level
reward, so the scoring path is pure and deterministic: same inputs, same
bits.  Text is normalised by lowercasing and whitespace splitting only.
"""

import math
from collections import Counter

MAX_N = 4
ROUGE_BETA = 1.2
CIDER_SIGMA = 6.0
CIDER_SCALE = 10.0


def metric_tokens(text: str) -> list:
    return text.lower().split()


def ngram_counts(tokens, n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _check_aligned(candidates, references):
    if not candidates:
        raise ValueError("no candidates to score")
    if len(candidates) != len(references):
        raise ValueError(f"{len(candidates)} candidates vs {len(references)} reference lists")
    for refs in references:
        if not refs:
            raise ValueError("every image needs at least one reference")


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------


def _closest_ref_length(cand_len: int, ref_lens) -> int:
    # closest wins; on a tie the shorter reference does
    return min(ref_lens, key=lambda r: (abs(r - cand_len), r))


def _bleu_values(candidates, references, n: int) -> list:
    """Corpus BLEU-1..n from one pass of clipped n-gram counts."""
    _check_aligned(candidates, references)
    if not 1 <= n <= MAX_N:
        raise ValueError(f"BLEU order must be 1..{MAX_N}, got {n}")
    clipped = [0] * n
    total = [0] * n
    cand_len_sum = 0
    ref_len_sum = 0
    for cand, refs in zip(candidates, references):
        cand_toks = metric_tokens(cand)
        refs_toks = [metric_tokens(r) for r in refs]
        cand_len_sum += len(cand_toks)
        ref_len_sum += _closest_ref_length(len(cand_toks), [len(r) for r in refs_toks])
        for k in range(1, n + 1):
            counts = ngram_counts(cand_toks, k)
            if not counts:
                continue
            max_ref = Counter()
            for rt in refs_toks:
                max_ref |= ngram_counts(rt, k)  # the largest count in any reference
            clipped[k - 1] += sum(min(c, max_ref[gram]) for gram, c in counts.items())
            total[k - 1] += sum(counts.values())
    if not cand_len_sum:  # no candidate words, so every precision is zero
        return [0.0] * n
    bp = 1.0 if cand_len_sum > ref_len_sum else math.exp(1.0 - ref_len_sum / cand_len_sum)
    # a zero precision zeroes every higher order; clipped <= total covers empty orders
    return [0.0 if 0 in clipped[:m] else
            bp * math.exp(sum(math.log(c / t) for c, t in zip(clipped[:m], total[:m])) / m)
            for m in range(1, n + 1)]


def bleu(candidates, references, n: int = 4) -> float:
    """Corpus-level BLEU-n: clipped precision geometric mean times brevity penalty."""
    return _bleu_values(candidates, references, n)[-1]


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------


def _lcs_length(a, b) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[-1]


def _lcs_f(cand_toks, ref_toks) -> float:
    lcs = _lcs_length(cand_toks, ref_toks)
    if lcs == 0:
        return 0.0
    p = lcs / len(cand_toks)
    r = lcs / len(ref_toks)
    b2 = ROUGE_BETA * ROUGE_BETA
    return (1 + b2) * p * r / (r + b2 * p)


def rouge_l(candidates, references) -> float:
    """Longest-common-subsequence F-measure, best reference per image."""
    _check_aligned(candidates, references)
    per_image = []
    for cand, refs in zip(candidates, references):
        cand_toks = metric_tokens(cand)
        per_image.append(max(_lcs_f(cand_toks, metric_tokens(r)) for r in refs))
    return sum(per_image) / len(per_image)


# ---------------------------------------------------------------------------
# CIDEr-D
# ---------------------------------------------------------------------------


class DocumentFrequency:
    """N-gram document frequencies and their idf, immutable once built."""

    def __init__(self, references):
        if not references:
            raise ValueError("cannot build document frequencies from an empty corpus")
        self.num_images = len(references)
        self.df = Counter()
        for refs in references:
            if not refs:
                raise ValueError("every image needs at least one reference")
            # an n-gram counts once per image, however many references hold it
            self.df.update({tuple(toks[i:i + n]) for toks in map(metric_tokens, refs)
                            for n in range(1, MAX_N + 1) for i in range(len(toks) - n + 1)})
        self.idf = {g: math.log(self.num_images / max(1.0, c)) for g, c in self.df.items()}
        self.unseen_idf = math.log(self.num_images / 1.0)  # as if one image held it


def _tfidf_vectors(tokens, df: DocumentFrequency):
    vecs, norms = [], []
    for n in range(1, MAX_N + 1):
        vec = {g: c * df.idf.get(g, df.unseen_idf) for g, c in ngram_counts(tokens, n).items()}
        vecs.append(vec)
        norms.append(math.sqrt(sum(v * v for v in vec.values())))
    return vecs, norms


def reference_vectors(refs, df: DocumentFrequency) -> list:
    """(length, tf-idf vectors, norms) of each of an image's references, in
    order: built once per image, then ``reward`` scores each caption against them."""
    if not refs:
        raise ValueError("every image needs at least one reference")
    if df is None or not df.df:
        raise ValueError("CIDEr-D needs a document-frequency table built from a reference corpus")
    out = []
    for ref in refs:
        toks = metric_tokens(ref)
        out.append((len(toks), *_tfidf_vectors(toks, df)))
    return out


def _cider_image(cand_toks, ref_vectors, df: DocumentFrequency) -> float:
    cand_vecs, cand_norms = _tfidf_vectors(cand_toks, df)
    totals = [0.0] * MAX_N
    for ref_len, ref_vecs, ref_norms in ref_vectors:
        delta = float(len(cand_toks) - ref_len)
        penalty = math.exp(-(delta * delta) / (2.0 * CIDER_SIGMA * CIDER_SIGMA))
        for i in range(MAX_N):
            if cand_norms[i] == 0.0 or ref_norms[i] == 0.0:
                continue
            # candidate counts clipped by the reference before the dot product;
            # n-grams the reference lacks add exact zeros, so they are skipped
            ref = ref_vecs[i]
            num = sum(min(v, ref[g]) * ref[g] for g, v in cand_vecs[i].items() if g in ref)
            totals[i] += penalty * num / (cand_norms[i] * ref_norms[i])
    per_n = [t / len(ref_vectors) for t in totals]
    return CIDER_SCALE * sum(per_n) / MAX_N


def cider_d(candidates, references, df: DocumentFrequency) -> float:
    """Consensus metric: tf-idf cosine with count clipping and length penalty."""
    _check_aligned(candidates, references)
    per_image = [_cider_image(metric_tokens(c), reference_vectors(refs, df), df)
                 for c, refs in zip(candidates, references)]
    return sum(per_image) / len(per_image)


def reward(hypothesis_text: str, ref_vectors, df: DocumentFrequency) -> float:
    """Sequence-level reward: CIDEr-D of one caption against an image's
    ``reference_vectors``, built with the same table."""
    return _cider_image(metric_tokens(hypothesis_text), ref_vectors, df)


def evaluate_all(candidates, references) -> dict:
    """The standard evaluation bundle keyed the way the CLI reports it."""
    out = {f"BLEU-{n}": v for n, v in enumerate(_bleu_values(candidates, references, MAX_N), 1)}
    out["ROUGE-L"] = rouge_l(candidates, references)
    out["CIDEr-D"] = cider_d(candidates, references, DocumentFrequency(references))
    return out
