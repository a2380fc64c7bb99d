import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biaslab.tokenizer import (
    BOUNDARY,
    EOS_TOKEN,
    MALFORMED,
    build_vocab,
    detokenize,
    tokenize,
    tokenize_word,
)


def names(vocab, ids):
    return [vocab.token_of(t) for t in ids]


def test_single_word_inventory():
    vocab = build_vocab(["tom"])
    assert set(vocab.tokens) == {EOS_TOKEN, BOUNDARY + "t", "o", "m"}
    assert vocab.size == 4


def test_subset_word_adds_nothing():
    assert build_vocab(["tom"]).tokens == build_vocab(["tom", "to"]).tokens


def test_two_word_inventory_enumerated_by_hand():
    vocab = build_vocab(["kerry", "tom"])
    expected = {EOS_TOKEN, BOUNDARY + "k", BOUNDARY + "t", "e", "r", "y", "o", "m"}
    assert set(vocab.tokens) == expected
    assert vocab.size == 8


def test_empty_corpus_rejected():
    with pytest.raises(ValueError, match="empty vocabulary source"):
        build_vocab([])


def test_vocab_ordering_is_stable():
    a = build_vocab(["kerry", "tom"])
    b = build_vocab(["tom", "kerry"])
    assert a.tokens == b.tokens
    assert a.tokens[0] == EOS_TOKEN
    assert a.tokens[1:] == tuple(sorted(a.tokens[1:]))


def test_lookup_roundtrip():
    vocab = build_vocab(["kerry", "tom"])
    for i, token in enumerate(vocab.tokens):
        assert vocab.id_of(token) == i
        assert vocab.token_of(i) == token


def test_tokenize_single_word():
    vocab = build_vocab(["tom"])
    utt = tokenize(vocab, ["tom"])
    assert names(vocab, utt.tokens) == [BOUNDARY + "t", "o", "m", EOS_TOKEN]
    assert utt.word_spans == ((0, 0, 3),)
    assert utt.size == 4


def test_tokenize_two_words_hand_checked():
    vocab = build_vocab(["tom", "to"])
    utt = tokenize(vocab, ["to", "tom"])
    assert names(vocab, utt.tokens) == [
        BOUNDARY + "t", "o", BOUNDARY + "t", "o", "m", EOS_TOKEN,
    ]
    assert utt.word_spans == ((0, 0, 2), (1, 2, 5))


def test_tokenize_empty_utterance():
    vocab = build_vocab(["tom"])
    utt = tokenize(vocab, [])
    assert names(vocab, utt.tokens) == [EOS_TOKEN]
    assert utt.word_spans == ()


def test_out_of_inventory_character_named():
    vocab = build_vocab(["tom"])
    with pytest.raises(ValueError, match="'m' of word 'max'"):
        tokenize(vocab, ["max"])
    with pytest.raises(ValueError, match="'x' of word 'tox'"):
        tokenize(vocab, ["tox"])


def test_boundary_only_at_span_starts():
    vocab = build_vocab(["kerry", "tom", "otto"])
    utt = tokenize(vocab, ["otto", "kerry", "tom"])
    starts = {start for _, start, _ in utt.word_spans}
    for pos, tid in enumerate(utt.tokens[:-1]):
        assert vocab.is_boundary(tid) == (pos in starts)


def test_roundtrip_many_word_lists():
    words = ["kerry", "tom", "otto", "to", "express"]
    vocab = build_vocab(words)
    for subset in ([], ["tom"], ["to", "tom"], words, words[::-1]):
        utt = tokenize(vocab, subset)
        assert detokenize(vocab, list(utt.tokens)) == subset


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.lists(st.text(alphabet="abcdeABCDE", min_size=1, max_size=6), max_size=6))
def test_detokenize_inverts_tokenize_up_to_case(words):
    vocab = build_vocab([ch * 2 for ch in "abcde"])  # every letter may start or continue a word
    assert detokenize(vocab, list(tokenize(vocab, words).tokens)) == [w.lower() for w in words]


def test_uppercase_input_is_lowered():
    vocab = build_vocab(["kerry"])
    assert tokenize(vocab, ["Kerry"]).words == ("kerry",)


def test_malformed_run_becomes_placeholder():
    vocab = build_vocab(["tom"])
    o, m = vocab.id_of("o"), vocab.id_of("m")
    t = vocab.id_of(BOUNDARY + "t")
    assert detokenize(vocab, [o, m]) == [MALFORMED]
    assert detokenize(vocab, [o, t, o, m]) == [MALFORMED, "tom"]


def test_read_word_list_lowercases_and_skips_blanks(tmp_path):
    from biaslab.tokenizer import read_word_list

    path = tmp_path / "words.txt"
    path.write_text("Kerry\n\n tom \nOTTO\n", encoding="utf-8")
    assert read_word_list(str(path)) == ["kerry", "tom", "otto"]
