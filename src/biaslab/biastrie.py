"""Prefix tree over bias-word token sequences, walked one node at a time.

The cursor is a single node id; 0 is the root and means "no partial word".
One node suffices because ``tokenize_word`` starts every bias word with a
boundary token (two characters) and continues it with plain tokens (one
character each), so the root's children and every other node's children are
disjoint token ids, for any vocabulary.  After a boundary token only the
root can step; after a plain token only the active node can.  So at most one
partial word is ever under way, and the tokens that may continue a bias word
next are the root's children plus the active node's children.

Each node's valid set is memoized in the tree on first use, as a bool row
over the vocabulary (the mask of ``pointer.masked_forward``); the memo lives
and dies with the tree.  ``walk`` stacks the rows along a token path, for
``losses.prepare_example`` and each round of ``decoder.greedy_decode``.
Bias words' token ids are memoized on the vocabulary, so each distinct word
is tokenized once per vocabulary.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .tokenizer import Vocab, tokenize_word


class PrefixTree:
    """Token trie of bias words' token sequences over ``vocab_size`` tokens; immutable."""

    def __init__(self, sequences, vocab_size: int):
        self._children = children = [{}]
        for ids in sequences:
            node = 0
            for tid in ids:
                node = children[node].setdefault(tid, len(children))
                if node == len(children):  # a new node
                    children.append({})
        self._vocab_size = vocab_size
        self._rows: dict[int, np.ndarray] = {}

    def _row(self, node: int) -> np.ndarray:
        """Flags the tokens that may extend some bias word at ``node``."""
        row = self._rows.get(node)
        if row is None:
            row = self._rows[node] = np.zeros(self._vocab_size, dtype=bool)
            row.put([*self._children[0], *self._children[node]], True)
        return row

    def valid(self, node: int) -> tuple[tuple[int, ...], np.ndarray]:
        """The tokens that may extend some bias word at ``node``, sorted, and
        the same set as the node's bool row over the vocabulary."""
        row = self._row(node)
        return tuple(np.flatnonzero(row).tolist()), row

    def walk(self, tokens, node: int = 0) -> tuple[list[int], np.ndarray]:
        """Walk ``tokens`` from ``node``: the node before each token, and those
        nodes' bool rows stacked, shape (len(tokens), vocabulary)."""
        nodes = list(accumulate(tokens, self.advance, initial=node))[:-1]
        return nodes, np.array([self._row(n) for n in nodes], bool).reshape(-1, self._vocab_size)

    def advance(self, node: int, emitted: int) -> int:
        """The node after ``emitted``.  A reached node is kept only if it has
        continuations; reaching a childless node (a bias word just completed)
        or matching nothing goes back to the root, where re-matching needs a
        fresh boundary token."""
        children = self._children
        reached = children[0].get(emitted) or children[node].get(emitted)
        return reached if reached and children[reached] else 0


def _word_ids(vocab: Vocab, word: str) -> tuple[int, ...]:
    """``word``'s token ids, lowercased; memoized on ``vocab`` unless untokenizable."""
    memo = vars(vocab).setdefault("_bias_word_ids", {})
    ids = memo.get(word)
    if ids is None:
        try:
            ids = memo[word] = tuple(tokenize_word(vocab, word.lower()))
        except ValueError as exc:
            raise ValueError(f"bias word {word!r} is not tokenizable: {exc}") from None
    return ids


def build_trie(vocab: Vocab, bias_words: list[str]) -> PrefixTree:
    """Compile a bias word list into a prefix tree; duplicates collapse."""
    return PrefixTree((_word_ids(vocab, word) for word in bias_words), vocab.size)


def build_tries(vocab: Vocab, lists: dict[str, list[str]]) -> dict[str, PrefixTree]:
    """``build_trie`` of every list, keyed like ``lists``; an untokenizable
    word names the first utterance (key) whose list holds it."""
    trees = {}
    for utt_id, words in lists.items():
        try:
            trees[utt_id] = build_trie(vocab, words)
        except ValueError as exc:
            raise ValueError(f"utterance {utt_id}: {exc}") from None
    return trees
