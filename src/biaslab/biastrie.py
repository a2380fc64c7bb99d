"""Prefix tree over bias-word token sequences, walked one node at a time.

The cursor is a single node id; 0 is the root and means "no partial word".
One node suffices because ``tokenize_word`` starts every bias word with a
boundary token (two characters) and continues it with plain tokens (one
character each), so the root's children and every other node's children are
disjoint token ids, for any vocabulary.  After a boundary token only the
root can step; after a plain token only the active node can.  So at most one
partial word is ever under way, and the tokens that may continue a bias word
next are the root's children plus the active node's children.

Each node's valid set is memoized inside the tree on first use; the memo
lives and dies with the tree.  A corpus's tries are built in one
``build_tries`` call, which tokenizes each distinct word once.
"""

from __future__ import annotations

import numpy as np

from .tokenizer import Vocab, tokenize_word


class PrefixTree:
    """Token trie of the given token sequences (bias words); immutable once built."""

    def __init__(self, sequences):
        self._children = children = [{}]
        for ids in sequences:
            node = 0
            for tid in ids:
                node = children[node].setdefault(tid, len(children))
                if node == len(children):  # a new node
                    children.append({})
        self._valid: dict[int, tuple[tuple[int, ...], np.ndarray]] = {}

    def valid(self, node: int) -> tuple[tuple[int, ...], np.ndarray]:
        """Tokens that may extend some bias word at ``node``, sorted, as a
        tuple and as an index array."""
        found = self._valid.get(node)
        if found is None:
            members = tuple(sorted({*self._children[0], *self._children[node]}))
            found = self._valid[node] = (members, np.array(members, dtype=np.intp))
        return found

    def advance(self, node: int, emitted: int) -> int:
        """The node after ``emitted``.  A reached node is kept only if it has
        continuations; reaching a childless node (a bias word just completed)
        or matching nothing goes back to the root, where re-matching needs a
        fresh boundary token."""
        children = self._children
        reached = children[0].get(emitted) or children[node].get(emitted)
        return reached if reached and children[reached] else 0


def _word_ids(vocab: Vocab, word: str) -> list[int]:
    try:
        return tokenize_word(vocab, word.lower())
    except ValueError as exc:
        raise ValueError(f"bias word {word!r} is not tokenizable: {exc}") from None


def build_trie(vocab: Vocab, bias_words: list[str]) -> PrefixTree:
    """Compile a bias word list into a prefix tree; duplicates collapse."""
    return PrefixTree(_word_ids(vocab, word) for word in bias_words)


def build_tries(vocab: Vocab, lists: dict[str, list[str]]) -> dict[str, PrefixTree]:
    """``build_trie`` of every list, keyed like ``lists``; each distinct word is
    tokenized once, and an untokenizable one names the first utterance (key) whose
    list holds it."""
    ids: dict[str, list[int]] = {}
    for utt_id, words in lists.items():
        try:
            for word in words:
                if word not in ids:
                    ids[word] = _word_ids(vocab, word)
        except ValueError as exc:
            raise ValueError(f"utterance {utt_id}: {exc}") from None
    return {utt_id: PrefixTree(map(ids.__getitem__, words)) for utt_id, words in lists.items()}
