"""Subword vocabulary built by greedy pair merging.

Words are split on whitespace; the final character of each word carries a
word-end marker so decoding can restore spaces exactly.  Merge learning is
deterministic: the most frequent adjacent pair wins, frequency ties break
by lexicographic pair order.
"""

from dataclasses import dataclass, field

PAD_ID = 0
BOS_ID = 1
EOS_ID = 2
PAD, BOS, EOS = "<pad>", "<bos>", "<eos>"
WORD_END = "</w>"


@dataclass
class Vocabulary:
    """Token/id bijection plus the merge table that produced it."""

    tokens: list
    merges: list  # [(left, right), ...] in learned order

    token_to_id: dict = field(init=False, repr=False)
    merge_rank: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.token_to_id = {t: i for i, t in enumerate(self.tokens)}
        if len(self.token_to_id) != len(self.tokens):
            raise ValueError("duplicate token in vocabulary")
        if self.tokens[:3] != [PAD, BOS, EOS]:
            raise ValueError(f"reserved tokens must open the vocabulary, got {self.tokens[:3]}")
        self.merge_rank = {pair: r for r, pair in enumerate(self.merges)}

    def __len__(self):
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        if token not in self.token_to_id:
            raise KeyError(f"token not in vocabulary: {token!r}")
        return self.token_to_id[token]


@dataclass
class TokenSequence:
    """Caption as ids: BOS, subword pieces, one EOS; never padded."""

    ids: list

    def __post_init__(self):
        if not self.ids or self.ids[0] != BOS_ID:
            raise ValueError("sequence must begin with BOS")
        if self.ids.count(EOS_ID) != 1 or self.ids[-1] != EOS_ID:
            raise ValueError("sequence must contain exactly one EOS, at the end")
        if PAD_ID in self.ids:
            raise ValueError("PAD inside the sequence")


def _word_symbols(word: str) -> list:
    symbols = list(word)
    symbols[-1] = symbols[-1] + WORD_END
    return symbols


def _pair_counts(words: dict) -> dict:
    counts = {}
    for symbols, freq in words.items():
        for a, b in zip(symbols, symbols[1:]):
            counts[(a, b)] = counts.get((a, b), 0) + freq
    return counts


def _merge_word(symbols: tuple, pair: tuple) -> tuple:
    merged, i = [], 0
    while i < len(symbols):
        if i + 1 < len(symbols) and (symbols[i], symbols[i + 1]) == pair:
            merged.append(symbols[i] + symbols[i + 1])
            i += 2
        else:
            merged.append(symbols[i])
            i += 1
    return tuple(merged)


def build_vocab(corpus, target_size: int) -> Vocabulary:
    """Learn a subword vocabulary of at most ``target_size`` tokens.

    Tokens are the three reserved ids, the corpus character symbols, then
    one token per learned merge; learning stops when the vocabulary is full
    or no adjacent pair repeats.
    """
    if target_size < 4:
        raise ValueError(f"target size must be at least 4, got {target_size}")
    words = {}
    for line in corpus:
        for word in line.split():
            key = tuple(_word_symbols(word))
            words[key] = words.get(key, 0) + 1
    if not words:
        raise ValueError("empty corpus")

    base = sorted({s for symbols in words for s in symbols})
    tokens = [PAD, BOS, EOS] + base
    merges = []
    while len(tokens) < target_size:
        counts = _pair_counts(words)
        if not counts:
            break
        best = min(counts, key=lambda p: (-counts[p], p))
        merges.append(best)
        tokens.append(best[0] + best[1])
        words = {_merge_word(symbols, best): freq for symbols, freq in words.items()}
    return Vocabulary(tokens, merges)


def _encode_word(word: str, vocab: Vocabulary) -> list:
    symbols = _word_symbols(word)
    while len(symbols) > 1:
        ranked = [
            (vocab.merge_rank[(a, b)], i)
            for i, (a, b) in enumerate(zip(symbols, symbols[1:]))
            if (a, b) in vocab.merge_rank
        ]
        if not ranked:
            break
        _, i = min(ranked)
        symbols = symbols[:i] + [symbols[i] + symbols[i + 1]] + symbols[i + 2:]
    return symbols


def tokenize(text: str, vocab: Vocabulary) -> TokenSequence:
    """Encode whitespace-separated text as BOS + subword ids + EOS."""
    ids = [BOS_ID]
    for word in text.split():
        for symbol in _encode_word(word, vocab):
            ids.append(vocab.id_of(symbol))
    ids.append(EOS_ID)
    return TokenSequence(ids)


def detokenize_ids(ids, vocab: Vocabulary) -> str:
    """Decode a raw id list (a decoder sample): stop at the first EOS."""
    pieces = []
    for tid in ids:
        if tid == EOS_ID:
            break
        if tid in (PAD_ID, BOS_ID):
            continue
        pieces.append(vocab.tokens[tid])
    return "".join(pieces).replace(WORD_END, " ").rstrip()
