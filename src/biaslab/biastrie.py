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
lives and dies with the tree.
"""

from __future__ import annotations

import numpy as np

from .tokenizer import Vocab, tokenize_word


class PrefixTree:
    """Token trie of a bias list; immutable once built via ``build_trie``."""

    def __init__(self):
        self._children: list[dict[int, int]] = [{}]
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


def build_trie(vocab: Vocab, bias_words: list[str]) -> PrefixTree:
    """Compile a bias word list into a prefix tree; duplicates collapse."""
    tree = PrefixTree()
    children = tree._children
    for word in bias_words:
        try:
            ids = tokenize_word(vocab, word.lower())
        except ValueError as exc:
            raise ValueError(f"bias word {word!r} is not tokenizable: {exc}") from None
        node = 0
        for tid in ids:
            node = children[node].setdefault(tid, len(children))
            if node == len(children):  # a new node
                children.append({})
    return tree
