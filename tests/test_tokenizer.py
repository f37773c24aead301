"""Vocabulary learning, encode/decode round-trips, sequence invariants."""

import pytest

from meancap import tokenizer as tok
from meancap.data import caption_corpus


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
