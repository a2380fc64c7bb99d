import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslab.biastrie import TrieCursor, advance_cursor, build_trie, valid_set
from biaslab.tokenizer import BOUNDARY, build_vocab, tokenize_word


def tid(vocab, name):
    return vocab.id_of(name)


def oracle_valid(vocab, bias_words, emitted):
    """Brute force: a token is valid iff some suffix of the emitted stream is
    a proper prefix of some bias word's tokenization."""
    out = set()
    for word in bias_words:
        toks = tokenize_word(vocab, word)
        for length in range(0, min(len(emitted), len(toks) - 1) + 1):
            if length >= len(toks):
                continue
            if length == 0 or tuple(emitted[-length:]) == tuple(toks[:length]):
                out.add(toks[length])
    return out


def test_empty_trie():
    vocab = build_vocab(["tom"])
    tree = build_trie(vocab, [])
    assert tree.word_count == 0
    assert valid_set(tree, TrieCursor()) == []


def test_single_word_path():
    vocab = build_vocab(["tom"])
    tree = build_trie(vocab, ["tom"])
    assert tree.word_count == 1
    node = tree.root
    for name in (BOUNDARY + "t", "o", "m"):
        node = tree.children(node)[tid(vocab, name)]
    assert tree.is_terminal(node)


def test_two_word_structure_hand_built():
    vocab = build_vocab(["kerry", "tom"])
    tree = build_trie(vocab, ["kerry", "tom"])
    roots = {vocab.token_of(t) for t in tree.children(tree.root)}
    assert roots == {BOUNDARY + "k", BOUNDARY + "t"}

    def depth(word):
        node, count = tree.root, 0
        for t in tokenize_word(vocab, word):
            node = tree.children(node)[t]
            count += 1
        assert tree.is_terminal(node)
        return count

    assert depth("kerry") == 5
    assert depth("tom") == 3


def test_duplicates_deduplicated():
    vocab = build_vocab(["tom"])
    tree = build_trie(vocab, ["tom", "tom"])
    assert tree.word_count == 1


def test_untokenizable_bias_word_named():
    vocab = build_vocab(["tom"])
    with pytest.raises(ValueError, match="'zap'"):
        build_trie(vocab, ["zap"])


def test_fresh_cursor_sees_root_children():
    vocab = build_vocab(["kerry", "tom"])
    tree = build_trie(vocab, ["kerry", "tom"])
    got = {vocab.token_of(t) for t in valid_set(tree, TrieCursor())}
    assert got == {BOUNDARY + "k", BOUNDARY + "t"}


def test_valid_set_mid_word_matches_prefix_scan():
    vocab = build_vocab(["kerry", "tom"])
    tree = build_trie(vocab, ["kerry", "tom"])
    cursor = TrieCursor()
    stream = tokenize_word(vocab, "kerry")[:4]
    for tok in stream:
        cursor = advance_cursor(tree, cursor, tok)
    got = set(valid_set(tree, cursor))
    assert got == {tid(vocab, "y"), tid(vocab, BOUNDARY + "k"), tid(vocab, BOUNDARY + "t")}
    assert got == oracle_valid(vocab, ["kerry", "tom"], stream)


def test_advance_on_match_and_mismatch():
    vocab = build_vocab(["tom"])
    tree = build_trie(vocab, ["tom"])
    stepped = advance_cursor(tree, TrieCursor(), tid(vocab, BOUNDARY + "t"))
    assert len(stepped.active_nodes) == 1
    # non-boundary token matches nothing from the root
    assert advance_cursor(tree, TrieCursor(), tid(vocab, "o")).active_nodes == frozenset()


def test_word_completion_retires_path():
    vocab = build_vocab(["tom"])
    tree = build_trie(vocab, ["tom"])
    cursor = TrieCursor()
    for tok in tokenize_word(vocab, "tom"):
        cursor = advance_cursor(tree, cursor, tok)
    assert cursor.active_nodes == frozenset()
    got = {vocab.token_of(t) for t in valid_set(tree, cursor)}
    assert got == {BOUNDARY + "t"}


def test_advance_does_not_mutate_input_cursor():
    vocab = build_vocab(["tom"])
    tree = build_trie(vocab, ["tom"])
    fresh = TrieCursor()
    advance_cursor(tree, fresh, tid(vocab, BOUNDARY + "t"))
    assert fresh.active_nodes == frozenset()


def test_nested_word_keeps_longer_continuation():
    # "to" finishing must not retire the shared path to "tom"
    vocab = build_vocab(["to", "tom"])
    tree = build_trie(vocab, ["to", "tom"])
    cursor = TrieCursor()
    stream = []
    for tok in tokenize_word(vocab, "to"):
        stream.append(tok)
        cursor = advance_cursor(tree, cursor, tok)
    got = set(valid_set(tree, cursor))
    assert tid(vocab, "m") in got
    assert got == oracle_valid(vocab, ["to", "tom"], stream)


def test_eos_never_valid():
    vocab = build_vocab(["tom", "to"])
    tree = build_trie(vocab, ["tom", "to"])
    cursor = TrieCursor()
    for tok in tokenize_word(vocab, "tom") * 2:
        assert vocab.eos_id not in valid_set(tree, cursor)
        cursor = advance_cursor(tree, cursor, tok)


def walk_matches_oracle(tree, vocab, words, stream):
    """Walk ``stream`` through ``tree``, checking every step's valid set."""
    cursor = TrieCursor()
    for n, tok in enumerate(stream):
        assert valid_set(tree, cursor) == sorted(oracle_valid(vocab, words, stream[:n]))
        members, index = tree.valid(cursor)
        assert index.dtype == np.intp and index.tolist() == list(members)
        cursor = advance_cursor(tree, cursor, tok)
    assert valid_set(tree, cursor) == sorted(oracle_valid(vocab, words, stream))


@pytest.mark.parametrize("seed", range(12))
def test_oracle_equivalence_random_streams(seed):
    rng = np.random.default_rng(seed)
    alphabet = "abk"
    n_words = int(rng.integers(1, 9))
    words = set()
    while len(words) < n_words:
        length = int(rng.integers(1, 9))
        words.add("".join(alphabet[int(rng.integers(3))] for _ in range(length)))
    words = sorted(words)
    vocab = build_vocab(words)
    tree = build_trie(vocab, words)
    token_pool = list(range(vocab.size))
    stream = [token_pool[int(rng.integers(len(token_pool)))] for _ in range(40)]
    walk_matches_oracle(tree, vocab, words, stream)


def stream_of(vocab, words, chunks):
    """Token stream from (pick, cut) chunks: a bias word's first ``cut``
    tokens when ``pick`` names a word, else one token of the vocabulary."""
    stream = []
    for pick, cut in chunks:
        if pick < len(words):
            stream.extend(tokenize_word(vocab, words[pick])[:cut])
        else:
            stream.append((pick * 7 + cut) % vocab.size)
    return stream


CHUNKS = st.lists(st.tuples(st.integers(0, 15), st.integers(1, 8)), max_size=14)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    words=st.lists(st.text("abk", min_size=1, max_size=8), min_size=1, max_size=8, unique=True),
    first=CHUNKS,
    second=CHUNKS,
)
def test_memoized_cursor_matches_oracle_on_fresh_and_walked_trees(words, first, second):
    vocab = build_vocab(words)
    tree = build_trie(vocab, words)
    walk_matches_oracle(tree, vocab, words, stream_of(vocab, words, first))
    # the same tree again, its memo already filled by the first stream
    walk_matches_oracle(tree, vocab, words, stream_of(vocab, words, second))
    walk_matches_oracle(tree, vocab, words, stream_of(vocab, words, first))
    walk_matches_oracle(build_trie(vocab, words), vocab, words, stream_of(vocab, words, second))
