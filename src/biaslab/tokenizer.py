"""Character-level tokenization with explicit word-boundary markers.

Every word-initial character gets a boundary-marked token variant (prefixed
with U+2581), word-internal characters map to plain tokens, and a reserved
end-of-sequence token closes every utterance.  Word starts are therefore
exact, which is what the bias trie needs.
"""

from __future__ import annotations

from dataclasses import dataclass

BOUNDARY = "▁"
EOS_TOKEN = "<eos>"


@dataclass(frozen=True)
class Vocab:
    """Immutable token inventory. Token id 0 is always the EOS token."""

    tokens: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.tokens)) != len(self.tokens):
            raise ValueError("duplicate token strings in vocabulary")
        if self.tokens[:1] != (EOS_TOKEN,):
            raise ValueError("token id 0 must be the end-of-sequence token")
        object.__setattr__(self, "_ids", {t: i for i, t in enumerate(self.tokens)})

    @property
    def size(self) -> int:
        return len(self.tokens)

    @property
    def eos_id(self) -> int:
        return 0

    def id_of(self, token: str) -> int:
        return self._ids[token]

    def token_of(self, token_id: int) -> str:
        return self.tokens[token_id]

    def is_boundary(self, token_id: int) -> bool:
        return self.tokens[token_id].startswith(BOUNDARY)


@dataclass(frozen=True)
class TokenizedUtterance:
    """Token sequence for a word list, EOS-terminated.

    ``word_spans`` holds (word_index, token_start, token_end) triples covering
    every non-EOS position exactly once; ``size`` counts all tokens including
    the final EOS.
    """

    tokens: tuple[int, ...]
    word_spans: tuple[tuple[int, int, int], ...]
    words: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.tokens)


def build_vocab(corpus_words: list[str]) -> Vocab:
    """Build the character inventory for a word corpus.

    Word-initial characters get a boundary-marked variant; characters seen
    word-internally get a plain token.  Ordering is lexicographic after the
    reserved EOS token, so ids are stable across runs.
    """
    if not corpus_words:
        raise ValueError("empty vocabulary source")
    initial: set[str] = set()
    internal: set[str] = set()
    for word in corpus_words:
        if not word:
            raise ValueError("empty word in vocabulary source")
        if word != word.lower() or any(ch.isspace() for ch in word):
            raise ValueError(f"word {word!r} must be lowercase without whitespace")
        initial.add(word[0])
        internal.update(word[1:])
    tokens = sorted(internal | {BOUNDARY + ch for ch in initial})
    return Vocab((EOS_TOKEN, *tokens))


def tokenize_word(vocab: Vocab, word: str) -> list[int]:
    """Token ids for one word: boundary-marked first character, plain rest."""
    ids = vocab._ids
    try:
        return [ids[BOUNDARY + word[0]], *map(ids.__getitem__, word[1:])] if word else []
    except KeyError as exc:
        ch = exc.args[0][-1]  # every token is one character, boundary-marked or not
        raise ValueError(f"character {ch!r} of word {word!r} is not in the inventory") from None


def tokenize(vocab: Vocab, words: list[str]) -> TokenizedUtterance:
    """Tokenize a word sequence and append EOS, recording word spans."""
    lowered = [word.lower() for word in words]
    tokens: list[int] = []
    spans: list[tuple[int, int, int]] = []
    for idx, word in enumerate(lowered):
        start = len(tokens)
        tokens.extend(tokenize_word(vocab, word))
        spans.append((idx, start, len(tokens)))
    tokens.append(vocab.eos_id)
    return TokenizedUtterance(tuple(tokens), tuple(spans), tuple(lowered))


MALFORMED = "<malformed>"


def detokenize(vocab: Vocab, token_ids: list[int]) -> list[str]:
    """Reassemble words, splitting at boundary-marked tokens; EOS tokens are skipped.

    Only a leading run of plain tokens lacks a word start (every later one
    extends the word before it); it collapses to the ``<malformed>`` placeholder.
    """
    words: list[str | None] = []  # None for a leading run with no boundary marker
    eos_id, token_of = vocab.eos_id, vocab.token_of
    for tid in token_ids:
        if tid == eos_id:
            continue
        token = token_of(tid)
        if token.startswith(BOUNDARY):
            words.append(token[len(BOUNDARY):])
        elif not words:
            words.append(None)
        elif words[-1] is not None:
            words[-1] += token
    return [MALFORMED if word is None else word for word in words]


def read_word_list(path: str) -> list[str]:
    """Read a UTF-8 word list, one word per line; blank lines are skipped."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: byte {exc.start} is not UTF-8") from None
    return [line.strip().lower() for line in text.splitlines() if line.strip()]
