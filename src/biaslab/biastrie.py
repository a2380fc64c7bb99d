"""Prefix tree over bias-word token sequences, walked one node at a time.

The cursor is a single node id; 0 is the root and means "no partial word".
One node suffices because ``tokenize_word`` starts every bias word with a
boundary token (two characters) and continues it with plain tokens (one
character each), so the root's children and every other node's children are
disjoint token ids, for any vocabulary.  After a boundary token only the
root can step; after a plain token only the active node can.  So at most one
partial word is ever under way, and the tokens that may continue a bias word
next are the root's children plus the active node's children.

A tree grows on first visit, as TCPGen's decoder reads only the nodes it is
at (Sun et al. 2021): a node other than the root keeps its depth and the
sequences through it until ``advance`` first reaches it, and only then groups
them by their next token into children.  So a tree costs the nodes its walks
reach, not its list's size; growing mutates it, so it is single-threaded.

Each node's valid set is memoized in the tree on first use, as a bool row
over the vocabulary (the mask of ``pointer.masked_forward``); the memo lives
and dies with the tree.  ``walk`` stacks the rows along a token path, for
``losses.prepare_example`` and each round of ``decoder.decode_corpus``.
Bias words' token ids are memoized on the vocabulary, so each distinct word
is tokenized once per vocabulary, and a list's ids are fetched in one pass.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .tokenizer import Vocab, tokenize_word


class PrefixTree:
    """Token trie of bias words' token ids over ``vocab_size`` tokens, grown on first visit."""

    def __init__(self, sequences, vocab_size: int):
        self._children: list[dict[int, int] | None] = [None]  # None until first reached
        self._pending = {0: (0, list(sequences))}  # such a node -> (depth, sequences through it)
        self._vocab_size = vocab_size
        self._rows: dict[int, np.ndarray] = {}
        self._expand(0)

    def _expand(self, node: int) -> None:
        """Give ``node`` its children: the sequences through it, grouped by next token."""
        depth, through = self._pending.pop(node)
        groups: dict[int, list] = {}
        for ids in through:
            if len(ids) > depth:
                groups.setdefault(ids[depth], []).append(ids)
        kids = self._children[node] = {}
        for tid, group in groups.items():
            kid = kids[tid] = len(self._children)
            self._pending[kid] = (depth + 1, group)
            self._children.append(None)

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
        if reached and children[reached] is None:
            self._expand(reached)
        return reached if reached and children[reached] else 0


def _word_ids(vocab: Vocab, words: list[str]) -> list[tuple[int, ...]]:
    """Each word's token ids, lowercased; memoized on ``vocab`` unless untokenizable."""
    memo = vars(vocab).setdefault("_bias_word_ids", {})
    ids = list(map(memo.get, words))
    if None in ids:
        for k, word in enumerate(words):
            if ids[k] is None:
                try:
                    ids[k] = memo[word] = tuple(tokenize_word(vocab, word.lower()))
                except ValueError as exc:
                    raise ValueError(f"bias word {word!r} is not tokenizable: {exc}") from None
    return ids


def build_trie(vocab: Vocab, bias_words: list[str]) -> PrefixTree:
    """Compile a bias word list into a prefix tree; duplicates collapse."""
    return PrefixTree(_word_ids(vocab, bias_words), vocab.size)


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
