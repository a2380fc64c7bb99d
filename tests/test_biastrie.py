import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslab import biastrie, harness
from biaslab.biastrie import build_trie, build_tries
from biaslab.tokenizer import BOUNDARY, Vocab, build_vocab, tokenize_word
from biaslab.trainer import prepare_batch
from conftest import shared_start_setup, shared_starts, toy_experiment


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
    assert tree.valid(0)[0] == ()
    assert tree.advance(0, tid(vocab, BOUNDARY + "t")) == 0
    nodes, rows = tree.walk([])
    assert nodes == [] and rows.shape == (0, vocab.size) and rows.dtype == bool


def walk(tree, tokens):
    """The (node, valid set) pairs met walking ``tokens`` from the root, and the end node."""
    node, seen = 0, []
    for tok in tokens:
        seen.append((node, tree.valid(node)[0]))
        node = tree.advance(node, tok)
    return seen, node


def test_single_word_path():
    vocab = build_vocab(["tom"])
    tree = build_trie(vocab, ["tom"])
    seen, end = walk(tree, tokenize_word(vocab, "tom"))
    names = [{vocab.token_of(t) for t in valid} for _, valid in seen]
    assert names == [{BOUNDARY + "t"}, {BOUNDARY + "t", "o"}, {BOUNDARY + "t", "m"}]
    inner = [node for node, _ in seen][1:]
    assert 0 not in inner and len(set(inner)) == 2 and end == 0


def test_two_word_structure_hand_built():
    vocab = build_vocab(["kerry", "tom"])
    tree = build_trie(vocab, ["kerry", "tom"])
    roots = {vocab.token_of(t) for t in tree.valid(0)[0]}
    assert roots == {BOUNDARY + "k", BOUNDARY + "t"}

    def inner_nodes(word):
        seen, end = walk(tree, tokenize_word(vocab, word))
        assert end == 0  # the completed word retires its path
        return [node for node, _ in seen][1:]

    kerry, tom = inner_nodes("kerry"), inner_nodes("tom")
    assert len(set(kerry)) == 4 and len(set(tom)) == 2
    assert 0 not in kerry + tom and not set(kerry) & set(tom)


def test_duplicates_deduplicated():
    vocab = build_vocab(["tom"])
    stream = tokenize_word(vocab, "tom") * 2
    once, twice = build_trie(vocab, ["tom"]), build_trie(vocab, ["tom", "tom"])
    assert walk(twice, stream) == walk(once, stream)


def test_untokenizable_bias_word_named():
    """The build raises, before any walk, naming the first such word in list
    order, whether the words before it are memoized or met for the first time."""
    warm = build_vocab(["tom"])
    build_trie(warm, ["tom"])
    for words, first in [(["zap"], "zap"), (["tom", "zap", "x9"], "zap"),
                         (["x9", "Tom", "zap"], "x9")]:
        for vocab in (warm, build_vocab(["tom"])):
            with pytest.raises(ValueError, match=rf"^bias word '{first}' is not tokenizable"):
                build_trie(vocab, words)


def test_fresh_cursor_sees_root_children():
    vocab = build_vocab(["kerry", "tom"])
    tree = build_trie(vocab, ["kerry", "tom"])
    got = {vocab.token_of(t) for t in tree.valid(0)[0]}
    assert got == {BOUNDARY + "k", BOUNDARY + "t"}


def test_valid_set_mid_word_matches_prefix_scan():
    vocab = build_vocab(["kerry", "tom"])
    tree = build_trie(vocab, ["kerry", "tom"])
    stream = tokenize_word(vocab, "kerry")[:4]
    _, node = walk(tree, stream)
    got = set(tree.valid(node)[0])
    assert got == {tid(vocab, "y"), tid(vocab, BOUNDARY + "k"), tid(vocab, BOUNDARY + "t")}
    assert got == oracle_valid(vocab, ["kerry", "tom"], stream)


def test_advance_on_match_and_mismatch():
    vocab = build_vocab(["tom"])
    tree = build_trie(vocab, ["tom"])
    assert tree.advance(0, tid(vocab, BOUNDARY + "t")) != 0
    # non-boundary token matches nothing from the root
    assert tree.advance(0, tid(vocab, "o")) == 0


def test_word_completion_retires_path():
    vocab = build_vocab(["tom"])
    tree = build_trie(vocab, ["tom"])
    _, node = walk(tree, tokenize_word(vocab, "tom"))
    assert node == 0
    got = {vocab.token_of(t) for t in tree.valid(node)[0]}
    assert got == {BOUNDARY + "t"}


def test_nested_word_keeps_longer_continuation():
    # "to" finishing must not retire the shared path to "tom"
    vocab = build_vocab(["to", "tom"])
    tree = build_trie(vocab, ["to", "tom"])
    stream = tokenize_word(vocab, "to")
    _, node = walk(tree, stream)
    got = set(tree.valid(node)[0])
    assert tid(vocab, "m") in got
    assert got == oracle_valid(vocab, ["to", "tom"], stream)


def test_eos_never_valid():
    vocab = build_vocab(["tom", "to"])
    tree = build_trie(vocab, ["tom", "to"])
    seen, _ = walk(tree, tokenize_word(vocab, "tom") * 2)
    assert all(vocab.eos_id not in valid for _, valid in seen)


def walk_matches_oracle(tree, vocab, words, stream):
    """Walk ``stream`` through ``tree``, checking every step's valid set."""
    node = 0
    for n, tok in enumerate(stream):
        members, row = tree.valid(node)
        assert list(members) == sorted(oracle_valid(vocab, words, stream[:n]))
        assert row.dtype == bool and row.shape == (vocab.size,)
        assert np.flatnonzero(row).tolist() == list(members)
        node = tree.advance(node, tok)
    assert list(tree.valid(node)[0]) == sorted(oracle_valid(vocab, words, stream))


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


LAZY_WORDS = ["kerry", "kate", "tom", "to", "Tom"]


def expansions(monkeypatch):
    """The nodes ``PrefixTree`` expands from now on, in order."""
    calls = []
    expand = biastrie.PrefixTree._expand
    monkeypatch.setattr(biastrie.PrefixTree, "_expand",
                        lambda tree, node: calls.append(node) or expand(tree, node))
    return calls


def test_fresh_trie_holds_only_the_root_and_its_children(monkeypatch):
    vocab = build_vocab(LAZY_WORDS[:4])
    calls = expansions(monkeypatch)
    tree = build_trie(vocab, LAZY_WORDS)
    assert calls == [0] and len(tree._children) == 3  # the root, ▁k and ▁t
    assert set(tree.valid(0)[0]) == {tid(vocab, BOUNDARY + "k"), tid(vocab, BOUNDARY + "t")}
    assert calls == [0] and len(tree._children) == 3  # reading a valid set grows nothing


def test_a_walk_expands_only_the_nodes_it_reaches(monkeypatch):
    vocab = build_vocab(LAZY_WORDS[:4])
    tree = build_trie(vocab, LAZY_WORDS)
    calls = expansions(monkeypatch)
    ka = tokenize_word(vocab, "ka")
    nodes, _ = tree.walk(ka)
    end = tree.advance(nodes[-1], ka[-1])
    assert calls == [nodes[1], end]  # ▁k and "ka"; stepping to "ka" again grows nothing
    assert len(tree._children) == 3 + 2 + 1  # ▁k's children e, a; "ka"'s child t
    tom = tokenize_word(vocab, "tom")
    nodes, _ = tree.walk(tom)
    assert tree.advance(nodes[-1], tom[-1]) == 0  # "tom" complete: back to the root
    assert calls[2:4] == nodes[1:] and len(calls) == 5  # ▁t, "to", then the leaf "tom"
    assert tree._children[calls[4]] == {}
    assert len(tree._children) == 6 + 1 + 1  # ▁t's child o; "to"'s child m; "tom" none
    tree.walk([*ka, *tom])
    assert len(calls) == 5  # a node grows once


@pytest.mark.parametrize("words, head, tail", [
    (["to", "tom"], "▁t o", "m ▁t o m ▁t"),  # a word that is a prefix of another
    (["Tom", "tom", "kate"], "▁k a", "t e ▁t o m ▁k"),  # mixed-case duplicates; words complete
    (["kerry", "kate"], "▁k e", "a ▁k e r r y ▁k a"),  # a mismatch mid-word
])
def test_walks_from_interior_nodes_match_the_oracle(words, head, tail):
    """A walk that starts at an interior node of a partly grown tree gives the
    oracle's valid sets, and stepwise ``advance`` ends where the oracle says."""
    low = sorted({word.lower() for word in words})
    vocab = build_vocab(low)
    head, tail = ([tid(vocab, name) for name in names.split()] for names in (head, tail))
    tree = build_trie(vocab, words)
    nodes, _ = tree.walk(head)
    start = tree.advance(nodes[-1], head[-1])
    assert start != 0
    nodes, rows = tree.walk(tail, start)
    for i, row in enumerate(rows):
        want = sorted(oracle_valid(vocab, low, head + tail[:i]))
        assert np.flatnonzero(row).tolist() == want
        assert list(tree.valid(nodes[i])[0]) == want
    node = start
    for tok in tail:
        node = tree.advance(node, tok)
    assert list(tree.valid(node)[0]) == sorted(oracle_valid(vocab, low, head + tail))


def toy_lists():
    vocab, train, _, lists, _ = toy_experiment(n_train=60, n_test=10)
    return vocab, train, lists


def count_tokenize(monkeypatch):
    """The words ``biastrie`` tokenizes from now on, in call order."""
    calls = []
    tokenize = biastrie.tokenize_word
    monkeypatch.setattr(biastrie, "tokenize_word",
                        lambda vocab, word: calls.append(word) or tokenize(vocab, word))
    return calls


def test_build_tries_tokenizes_each_distinct_word_once(monkeypatch):
    vocab, _, lists = toy_lists()
    calls = count_tokenize(monkeypatch)
    trees = build_tries(vocab, lists)
    assert list(trees) == list(lists)
    distinct = {word for words in lists.values() for word in words}
    assert sorted(calls) == sorted(distinct) and len(calls) < sum(map(len, lists.values()))
    # the memo is the vocabulary's: per-list build_trie calls tokenize nothing new,
    # and an equal vocabulary object of its own starts afresh
    for words in lists.values():
        build_trie(vocab, words)
    assert sorted(calls) == sorted(distinct)
    first = next(iter(lists.values()))
    build_trie(Vocab(vocab.tokens), first)
    assert sorted(calls[len(distinct):]) == sorted(set(first))


def test_build_tries_walk_like_build_trie():
    vocab, corpus, lists = toy_lists()
    trees = build_tries(vocab, lists)
    for utt in corpus:
        words = lists[utt.utt_id]
        one = build_trie(vocab, words)
        stream = [*utt.ref.tokens, *(t for word in words for t in tokenize_word(vocab, word))]
        node_a = node_b = 0
        for tok in stream:
            assert trees[utt.utt_id].valid(node_a)[0] == one.valid(node_b)[0]
            node_a, node_b = trees[utt.utt_id].advance(node_a, tok), one.advance(node_b, tok)
            assert node_a == node_b


def test_build_tries_untokenizable_word_names_first_utterance(monkeypatch):
    vocab, corpus, lists = toy_lists()
    second, fifth = corpus[1].utt_id, corpus[4].utt_id
    bad = {**lists, second: [*lists[second], "x9"], fifth: ["x9", *lists[fifth]]}
    calls = count_tokenize(monkeypatch)
    with pytest.raises(ValueError,
                       match=rf"^utterance {second}: bias word 'x9' is not tokenizable"):
        build_tries(vocab, bad)
    # never memoized: a later compile tokenizes it again and names its own first utterance
    with pytest.raises(ValueError, match=rf"^utterance {fifth}: bias word 'x9'"):
        build_tries(vocab, {fifth: bad[fifth], second: bad[second]})
    assert calls.count("x9") == 2


def toy_examples(monkeypatch):
    """The AC-4-style toy corpus's training examples, with their corpus and lists."""
    vocab, corpus, lists = toy_lists()
    return vocab, corpus, lists, prepare_batch(vocab, corpus, lists, build_tries(vocab, lists))


def shared_start_examples(monkeypatch):
    """``shared_start_setup``'s examples, with the corpus and lists the harness
    built them from."""
    seen = {}

    def keep(vocab, corpus, lists, trees):
        seen.update(vocab=vocab, corpus=corpus, lists=lists)
        return prepare_batch(vocab, corpus, lists, trees)

    monkeypatch.setattr(harness, "prepare_batch", keep)
    _, batch, _ = shared_start_setup(11, n_utterances=6)
    assert shared_starts(batch) > 0
    return seen["vocab"], seen["corpus"], seen["lists"], batch


@pytest.mark.parametrize("source", [toy_examples, shared_start_examples],
                         ids=["toy", "shared_starts"])
def test_prepared_labels_match_the_brute_force(monkeypatch, source):
    """At every position of every prepared example, the ``allowed`` row is the
    brute-force scan's set after the reference prefix, and ``mask`` flags the
    positions inside reference words on the list, and no others."""
    vocab, corpus, lists, batch = source(monkeypatch)
    assert any(ex.mask.any() for ex in batch)
    for utt, ex in zip(corpus, batch, strict=True):
        ref, words = utt.ref, sorted({word.lower() for word in lists[utt.utt_id]})
        assert ex.allowed.dtype == bool and ex.allowed.shape == (ref.size, vocab.size)
        for i in range(ref.size):
            want = sorted(oracle_valid(vocab, words, ref.tokens[:i]))
            assert np.flatnonzero(ex.allowed[i]).tolist() == want, (utt.utt_id, i)
        inside = [any(start <= i < end and ref.words[w] in words
                      for w, start, end in ref.word_spans) for i in range(ref.size)]
        assert ex.mask.dtype == bool and ex.mask.tolist() == inside, utt.utt_id
