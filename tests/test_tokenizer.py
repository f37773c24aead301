"""Vocabulary learning, encode/decode round-trips, sequence invariants."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from meancap import tokenizer as tok
from meancap.data import COLORS, OBJECTS, TEMPLATES, caption_corpus, render_reference


def test_reserved_ids_are_fixed():
    vocab = tok.build_vocab(["a a a"], 4)
    assert vocab.tokens[:3] == [tok.PAD, tok.BOS, tok.EOS]
    assert (tok.PAD_ID, tok.BOS_ID, tok.EOS_ID) == (0, 1, 2)


def test_single_symbol_corpus_fills_exactly_four():
    vocab = tok.build_vocab(["a a a"], 4)
    assert len(vocab) == 4
    assert vocab.tokens[3] == "a" + tok.WORD_END
    assert vocab.merges == []


def test_first_merge_is_the_repeated_pair():
    # base symbols "a" and "b</w>" fill five slots; the sixth learns the merge
    vocab = tok.build_vocab(["ab ab"], 6)
    assert vocab.merges == [("a", "b" + tok.WORD_END)]
    assert "ab" + tok.WORD_END in vocab.tokens
    seq = tok.tokenize("ab ab", vocab)
    assert seq.ids == [tok.BOS_ID, vocab.id_of("ab</w>"), vocab.id_of("ab</w>"), tok.EOS_ID]


def test_merge_ties_break_lexicographically():
    # "xy" and "ab" both occur once; ("a","b</w>") sorts first
    vocab = tok.build_vocab(["xy ab"], 8)
    assert vocab.merges[0] == ("a", "b" + tok.WORD_END)


def test_empty_corpus_rejected():
    with pytest.raises(ValueError):
        tok.build_vocab([], 10)
    with pytest.raises(ValueError):
        tok.build_vocab(["a"], 3)


def test_no_target_learns_every_merge_and_a_small_target_keeps_the_floor():
    corpus = caption_corpus()
    assert tok.build_vocab(corpus) == tok.build_vocab(corpus, 200)
    assert len(tok.build_vocab(corpus)) == 117
    assert len(tok.build_vocab(corpus, 10)) == 33  # 3 reserved tokens and 30 symbols


def test_round_trip_on_caption_corpus():
    corpus = caption_corpus()
    vocab = tok.build_vocab(corpus, 200)
    for line in corpus:
        seq = tok.tokenize(line, vocab)
        assert tok.detokenize_ids(seq.ids, vocab) == line


def test_round_trip_with_small_vocab_forces_subwords():
    corpus = caption_corpus()
    vocab = tok.build_vocab(corpus, 40)
    multi = 0
    for line in corpus:
        seq = tok.tokenize(line, vocab)
        assert tok.detokenize_ids(seq.ids, vocab) == line
        multi += sum(1 for _ in seq.ids) > len(line.split()) + 2
    assert multi  # at least one line actually split into subword pieces


def test_tokenize_is_deterministic():
    corpus = caption_corpus()
    v1 = tok.build_vocab(corpus, 120)
    v2 = tok.build_vocab(corpus, 120)
    assert v1.tokens == v2.tokens and v1.merges == v2.merges
    assert tok.tokenize(corpus[0], v1).ids == tok.tokenize(corpus[0], v2).ids


def test_unknown_symbol_rejected():
    vocab = tok.build_vocab(["a a"], 5)
    with pytest.raises(KeyError):
        tok.tokenize("z", vocab)


def test_sequence_invariants_enforced():
    with pytest.raises(ValueError):
        tok.TokenSequence([tok.EOS_ID, tok.BOS_ID])  # no BOS first
    with pytest.raises(ValueError):
        tok.TokenSequence([tok.BOS_ID, 5, 5])  # missing EOS
    with pytest.raises(ValueError):
        tok.TokenSequence([tok.BOS_ID, tok.EOS_ID, tok.EOS_ID])  # double EOS
    with pytest.raises(ValueError):
        tok.TokenSequence([tok.BOS_ID, tok.PAD_ID, tok.EOS_ID])  # PAD inside


def test_detokenize_ids_stops_at_eos():
    vocab = tok.build_vocab(caption_corpus(), 200)
    seq = tok.tokenize("a red ball", vocab)
    noisy = seq.ids[1:-1] + [tok.EOS_ID] + seq.ids[1:-1]
    assert tok.detokenize_ids(noisy, vocab) == "a red ball"


@st.composite
def _scenes(draw):
    """A reference the template grammar can emit: pairs, an order, a template."""
    pairs = draw(st.lists(st.tuples(st.sampled_from(COLORS), st.sampled_from(OBJECTS)),
                          min_size=1, max_size=9))
    order = draw(st.permutations(range(len(pairs))))
    return render_reference(pairs, order, draw(st.integers(0, len(TEMPLATES) - 1)))


@settings(max_examples=300, deadline=None)
@given(_scenes(), st.integers(4, 200))
def test_round_trip_over_the_template_grammar(text, size):
    vocab = tok.build_vocab(caption_corpus(), size)
    assert tok.detokenize_ids(tok.tokenize(text, vocab).ids, vocab) == text


# ---------------------------------------------------------------------------
# the per-vocabulary word cache
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _warm_vocab(size):
    """One vocabulary per size, shared by every example so its cache stays warm."""
    vocab = tok.build_vocab(caption_corpus(), size)
    for line in caption_corpus():
        tok.tokenize(line, vocab)
    return vocab


@settings(max_examples=300, deadline=None)
@given(_scenes(), st.integers(4, 200))
def test_a_warm_cache_gives_the_ids_of_a_fresh_vocabulary(text, size):
    warm = _warm_vocab(size)
    fresh = tok.Vocabulary(list(warm.tokens), list(warm.merges))
    assert tok.tokenize(text, warm).ids == tok.tokenize(text, fresh).ids
    assert fresh.word_cache and all(fresh.word_cache[w] == warm.word_cache[w]
                                    for w in fresh.word_cache)


def test_each_distinct_word_is_encoded_once(monkeypatch):
    vocab = tok.build_vocab(caption_corpus(), 60)
    encoded = []
    original = tok._encode_word
    monkeypatch.setattr(tok, "_encode_word", lambda w, v: encoded.append(w) or original(w, v))
    for _ in range(3):
        tok.tokenize("a red ball and a red cube", vocab)
    assert sorted(encoded) == ["a", "and", "ball", "cube", "red"]


def test_a_word_with_an_unknown_symbol_fails_every_time_and_is_never_stored():
    vocab = tok.build_vocab(caption_corpus(), 200)
    for _ in range(3):
        with pytest.raises(KeyError, match="'q'"):
            tok.tokenize("a quixotic ball", vocab)
    assert "quixotic" not in vocab.word_cache
    assert set(vocab.word_cache) <= {"a", "ball"}


def test_the_word_cache_stops_growing_at_its_cap(monkeypatch):
    monkeypatch.setattr(tok, "WORD_CACHE_SIZE", 3)
    vocab = tok.build_vocab(caption_corpus(), 200)
    fresh = tok.build_vocab(caption_corpus(), 200)
    text = "the picture shows a red ball and a blue cube"
    for _ in range(2):
        assert tok.tokenize(text, vocab).ids == tok.tokenize(text, fresh).ids
    assert list(vocab.word_cache) == ["the", "picture", "shows"]


def test_equality_and_repr_ignore_the_word_cache():
    cold = tok.build_vocab(caption_corpus(), 120)
    warm = tok.build_vocab(caption_corpus(), 120)
    tok.tokenize(caption_corpus()[0], warm)
    assert warm.word_cache and not cold.word_cache
    assert cold == warm
    assert repr(cold) == repr(warm)
