"""Prefix tree over bias-word token sequences and its decoding cursor.

The cursor tracks every node reachable by some suffix of the emitted token
stream, so one stream can simultaneously extend one bias word and begin
another.  The set of tokens that may continue a bias word at the next step
is the union of child tokens over the active nodes plus the root's children.

A tree compiles its cursor into an automaton lazily (subset construction,
as in Aho & Corasick 1975): the valid set of each cursor it has seen and
each (cursor, token) transition it has taken are memoized inside the tree,
so repeated states cost a dictionary lookup.  The memo lives and dies with
the tree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tokenizer import Vocab, tokenize_word


@dataclass(frozen=True)
class TrieCursor:
    """Active trie nodes after some emitted stream; root is implicit."""

    active_nodes: frozenset[int] = frozenset()


class PrefixTree:
    """Token trie of a bias list; immutable once built via ``build_trie``."""

    def __init__(self):
        self._children: list[dict[int, int]] = [{}]
        self._terminal: set[int] = set()
        self._valid: dict[frozenset[int], tuple[tuple[int, ...], np.ndarray]] = {}
        self._next: dict[tuple[frozenset[int], int], TrieCursor] = {}

    @property
    def root(self) -> int:
        return 0

    @property
    def word_count(self) -> int:
        return len(self._terminal)

    def children(self, node: int) -> dict[int, int]:
        return self._children[node]

    def is_terminal(self, node: int) -> bool:
        return node in self._terminal

    def _insert(self, token_ids: list[int]) -> None:
        children = self._children
        node = 0
        for tid in token_ids:
            kids = children[node]
            node = kids.get(tid)
            if node is None:
                node = kids[tid] = len(children)
                children.append({})
        self._terminal.add(node)

    def valid(self, cursor: TrieCursor) -> tuple[tuple[int, ...], np.ndarray]:
        """The cursor's valid set, sorted, as a tuple and as an index array."""
        found = self._valid.get(cursor.active_nodes)
        if found is None:
            out = set(self._children[0])
            for node in cursor.active_nodes:
                out.update(self._children[node])
            members = tuple(sorted(out))
            found = self._valid[cursor.active_nodes] = (members, np.array(members, dtype=np.intp))
        return found

    def advance(self, cursor: TrieCursor, emitted: int) -> TrieCursor:
        """The cursor after ``emitted``; see ``advance_cursor``."""
        key = (cursor.active_nodes, emitted)
        found = self._next.get(key)
        if found is None:
            children = self._children
            reached = (children[node].get(emitted) for node in (0, *cursor.active_nodes))
            found = self._next[key] = TrieCursor(
                frozenset(c for c in reached if c is not None and children[c])
            )
        return found


def build_trie(vocab: Vocab, bias_words: list[str]) -> PrefixTree:
    """Compile a bias word list into a prefix tree; duplicates collapse."""
    tree = PrefixTree()
    for word in bias_words:
        try:
            ids = tokenize_word(vocab, word.lower())
        except ValueError as exc:
            raise ValueError(f"bias word {word!r} is not tokenizable: {exc}") from None
        tree._insert(ids)
    return tree


def valid_set(tree: PrefixTree, cursor: TrieCursor) -> list[int]:
    """Tokens that may extend some bias word now, in sorted order."""
    return list(tree.valid(cursor)[0])


def advance_cursor(tree: PrefixTree, cursor: TrieCursor, emitted: int) -> TrieCursor:
    """Step every active path (and the root) through ``emitted``.

    A reached node stays active only if it has continuations; reaching a
    childless node means a bias word just completed and that path retires.
    Re-matching afterwards needs a fresh boundary token from the root.
    """
    return tree.advance(cursor, emitted)
