import dataclasses
import json
import sys
import typing
from pathlib import Path

import numpy as np
import pytest

from biaslab.biastrie import build_trie
from biaslab.decoder import greedy_decode
from biaslab.losses import loss_asr
from biaslab.pointer import forward_step, init_params, interpolate
from biaslab.simulator import (
    Count,
    Range,
    Share,
    SimConfig,
    Size,
    build_sim_vocab,
    check,
    gen_corpus,
    make_inventories,
    read_corpus,
    render_condition,
    write_corpus,
)
from biaslab.tokenizer import tokenize_word


def toy_config(**overrides):
    common, rare, confusion = make_inventories(8, 4, 2, seed=1)
    base = dict(
        seed=42,
        n_utterances=12,
        words_per_utterance=(2, 4),
        common_words=common,
        rare_words=rare,
        rare_word_rate=0.4,
        base_accuracy_common=0.95,
        base_accuracy_rare=0.8,
        confusion_map=confusion,
        state_dim=8,
        domain_shift=0.3,
    )
    base.update(overrides)
    return SimConfig(**base)


def test_inventories_disjoint_and_confusables_aligned():
    common, rare, confusion = make_inventories(20, 10, 5, seed=7)
    assert len(common) == 20 and len(rare) == 10 and len(confusion) == 5
    assert not set(common) & set(rare)
    for word, conf in confusion.items():
        assert len(word) == len(conf)
        assert conf not in common and conf not in rare
        assert word[1:] == conf[1:]
    # rare initials never start a common word
    assert not {w[0] for w in rare} & {w[0] for w in common}


def test_corpus_deterministic():
    a = gen_corpus(toy_config())
    b = gen_corpus(toy_config())
    for ua, ub in zip(a, b):
        assert ua.ref_words == ub.ref_words
        assert np.array_equal(ua.p_mdl_seq, ub.p_mdl_seq)
        assert np.array_equal(ua.h_dec_seq, ub.h_dec_seq)


def test_zero_rare_rate_yields_no_rare_words():
    config = toy_config(rare_word_rate=0.0)
    rare = set(config.rare_words)
    for utt in gen_corpus(config):
        assert not set(utt.ref_words) & rare


def test_perfect_base_model_argmax_reproduces_reference():
    config = toy_config(
        base_accuracy_common=1.0, base_accuracy_rare=1.0, confusion_map={}
    )
    for utt in gen_corpus(config):
        assert [int(np.argmax(row)) for row in utt.p_mdl_seq] == list(utt.ref.tokens)


def test_rows_are_stochastic():
    for utt in gen_corpus(toy_config()):
        assert np.all(np.abs(utt.p_mdl_seq.sum(axis=1) - 1.0) < 1e-9)


@pytest.mark.parametrize("common", [0.95, 1], ids=["float", "int_from_json"])
def test_model_rows_equal_a_row_by_row_reference(common):
    """Each row puts its position's accuracy on its target token (the confusable's
    token inside a confused word) and spreads the rest evenly, bit for bit as
    rows written one position at a time."""
    config = toy_config(n_utterances=30, base_accuracy_common=common)
    vocab = build_sim_vocab(config)
    seen = set()
    for utt in gen_corpus(config):
        spans = [(utt.ref.words[k], start, end) for k, start, end in utt.ref.word_spans]
        # the EOS position last, under no word, with target token 0
        for word, start, end in [*spans, (None, utt.ref.size - 1, utt.ref.size)]:
            rare = word in config.rare_words
            acc = config.base_accuracy_rare if rare else config.base_accuracy_common
            target = tokenize_word(vocab, config.confusion_map.get(word, word)) if word else [0]
            seen.add((rare, word in config.confusion_map))
            for offset, i in enumerate(range(start, end)):
                want = np.full(vocab.size, (1.0 - acc) / (vocab.size - 1))
                want[target[offset]] = acc
                assert np.array_equal(utt.p_mdl_seq[i], want), (utt.utt_id, i)
    assert seen == {(False, False), (True, False), (True, True)}


def test_confused_positions_argmax_is_confusable():
    config = toy_config(rare_word_rate=0.9)
    vocab = build_sim_vocab(config)
    seen = 0
    for utt in gen_corpus(config):
        for word_idx, start, end in utt.ref.word_spans:
            word = utt.ref.words[word_idx]
            conf = config.confusion_map.get(word)
            if conf is None:
                continue
            seen += 1
            conf_tokens = tokenize_word(vocab, conf)
            got = [int(np.argmax(utt.p_mdl_seq[i])) for i in range(start, end)]
            assert got == conf_tokens
    assert seen > 0


def test_render_condition_shift_zero_identical():
    config = toy_config(domain_shift=0.0)
    corpus = gen_corpus(config)
    test_render = render_condition(corpus, "test", config)
    for a, b in zip(corpus, test_render):
        assert np.array_equal(a.h_dec_seq, b.h_dec_seq)
        assert np.array_equal(a.p_mdl_seq, b.p_mdl_seq)


def test_render_condition_shift_one_is_pure_noise():
    config = toy_config(domain_shift=1.0)
    corpus = gen_corpus(config)
    test_render = render_condition(corpus, "test", config)
    for a, b in zip(corpus, test_render):
        assert a.ref_words == b.ref_words
        assert not np.array_equal(a.h_dec_seq, b.h_dec_seq)


def test_render_condition_half_shift_deterministic_distinct():
    config = toy_config(domain_shift=0.5)
    corpus = gen_corpus(config)
    one = render_condition(corpus, "test", config)
    two = render_condition(corpus, "test", config)
    for a, b, orig in zip(one, two, corpus):
        assert np.array_equal(a.h_dec_seq, b.h_dec_seq)
        assert not np.array_equal(a.h_dec_seq, orig.h_dec_seq)


def test_contradictory_config_rejected():
    with pytest.raises(ValueError, match="rare"):
        toy_config(rare_words=[], confusion_map={}, rare_word_rate=0.5).validate()


def test_overlapping_inventories_rejected():
    config = toy_config()
    config.rare_words = config.rare_words + [config.common_words[0]]
    with pytest.raises(ValueError, match="overlap"):
        config.validate()


def test_confusable_length_mismatch_rejected():
    config = toy_config()
    word = config.rare_words[0]
    config.confusion_map = {word: word + "x"}
    with pytest.raises(ValueError, match="length"):
        config.validate()


def test_negative_utterance_noise_rejected():
    with pytest.raises(ValueError, match=r"utterance_noise must be in \[0, inf\), got -0.1"):
        toy_config(utterance_noise=-0.1).validate()


@pytest.mark.parametrize("sizes", [(-1, 8, 4), (12, -8, 0)], ids=["common", "rare"])
def test_negative_inventory_size_rejected(sizes):
    with pytest.raises(ValueError, match=r"n_(common|rare) must be in \[0, inf\), got -\d"):
        make_inventories(*sizes, seed=50)


def test_corpus_file_roundtrip(tmp_path):
    config = toy_config()
    corpus = gen_corpus(config)
    vocab = build_sim_vocab(config)
    path = str(tmp_path / "corpus.jsonl")
    write_corpus(path, corpus, vocab, config.seed, "train")
    vocab2, loaded, meta = read_corpus(path)
    assert vocab2.tokens == vocab.tokens
    assert meta["condition"] == "train"
    for a, b in zip(corpus, loaded):
        assert a.utt_id == b.utt_id
        assert a.ref_words == b.ref_words
        assert a.ref.tokens == b.ref.tokens
        assert np.array_equal(a.p_mdl_seq, b.p_mdl_seq)
        assert np.array_equal(a.h_dec_seq, b.h_dec_seq)


def _set(rows, i, j, value):
    rows[i][j] = value


@pytest.mark.parametrize("change, problem", [
    (lambda r: r["h_dec_seq"][0].pop(), "not a"),  # one ragged state row
    (lambda r: [row.pop() for row in r["h_dec_seq"]], "shape"),  # narrower than state_dim
    (lambda r: _set(r["h_dec_seq"], 1, 0, float("nan")), "non-finite"),
    (lambda r: _set(r["p_mdl_seq"], 1, 0, float("nan")), "non-finite"),
    (lambda r: _set(r["p_mdl_seq"], 0, 2, float("inf")), "non-finite"),
    (lambda r: _set(r["p_mdl_seq"], 0, 2, None), "non-finite"),  # JSON null reads as NaN
    (lambda r: _set(r["h_dec_seq"], 1, 0, "x"), "not a"),
    (lambda r: r.update(id="utt00000"), "repeated utterance id"),  # the first record's id
    (lambda r: r.update(ref_words=" ".join(r["ref_words"])), "'ref_words' must be a list"),
], ids=["ragged_state_row", "narrow_states", "nan_state", "nan_model_row", "inf_model_row",
        "null_model_cell", "string_state_cell", "repeated_id", "string_ref_words"])
def test_malformed_rows_rejected_naming_file_and_utterance(tmp_path, change, problem):
    config = toy_config()
    path = str(tmp_path / "corpus.jsonl")
    write_corpus(path, gen_corpus(config), build_sim_vocab(config), config.seed, "train")
    lines = Path(path).read_text().splitlines(keepends=True)
    record = json.loads(lines[3])
    change(record)
    lines[3] = json.dumps(record) + "\n"
    Path(path).write_text("".join(lines))
    with pytest.raises(ValueError, match=problem) as caught:
        read_corpus(path)
    assert path in str(caught.value) and record["id"] in str(caught.value)


def _write_and_read(tmp_path, config, vocab, utt):
    path = str(tmp_path / "corpus.jsonl")
    write_corpus(path, [utt], vocab, config.seed, "train")
    read_corpus(path)


def _decode(tmp_path, config, vocab, utt):
    params = init_params(0, vocab.size, 4, config.state_dim)
    greedy_decode(utt, vocab, params, build_trie(vocab, config.rare_words), "scaled")


def _interpolate(tmp_path, config, vocab, utt):
    params = init_params(0, vocab.size, 4, config.state_dim)
    interpolate(utt.p_mdl_seq[0], forward_step(params, utt.h_dec_seq[0], []), "unscaled")


def _loss_asr(tmp_path, config, vocab, utt):
    loss_asr(utt.p_mdl_seq, utt.ref)


@pytest.mark.parametrize("reader", [_write_and_read, _decode, _interpolate, _loss_asr],
                         ids=["read_corpus", "greedy_decode", "interpolate", "loss_asr"])
def test_an_off_simplex_row_is_rejected_in_one_wording(tmp_path, reader):
    """The same base-model row, summing to 0.5, fails every reader with the one
    message of ``simulator.off_simplex``."""
    config = toy_config()
    vocab = build_sim_vocab(config)
    utt = gen_corpus(config)[0]
    rows = utt.p_mdl_seq.copy()
    rows[0] = 0.0
    rows[0, 1] = 0.5
    with pytest.raises(ValueError, match=r"must sum to 1, got 0\.5$"):
        reader(tmp_path, config, vocab, dataclasses.replace(utt, p_mdl_seq=rows))


@pytest.mark.parametrize("render", [
    lambda config: gen_corpus(config, "dev"),
    lambda config: render_condition(gen_corpus(config), "dev", config),
], ids=["gen_corpus", "render_condition"])
def test_unknown_condition_rejected_by_the_choice_rule(render):
    with pytest.raises(ValueError) as caught:
        render(toy_config())
    assert str(caught.value) == "condition must be 'train' or 'test', got 'dev'"


def test_meta_line_without_state_dim_rejected(tmp_path):
    config = toy_config()
    path = str(tmp_path / "corpus.jsonl")
    write_corpus(path, gen_corpus(config), build_sim_vocab(config), config.seed, "train")
    lines = Path(path).read_text().splitlines(keepends=True)
    meta = json.loads(lines[0])
    del meta["state_dim"]
    Path(path).write_text(json.dumps(meta) + "\n" + "".join(lines[1:]))
    with pytest.raises(ValueError, match="not a corpus file"):
        read_corpus(path)


@pytest.mark.parametrize("kept", [0, 2, 7], ids=["none", "truncated", "extra"])
def test_record_count_must_match_the_meta_line(tmp_path, kept):
    """A file cut short, or one with records past its count, is rejected
    naming the file and both counts."""
    config = toy_config()
    path = str(tmp_path / "corpus.jsonl")
    write_corpus(path, gen_corpus(config)[:5], build_sim_vocab(config), config.seed, "train")
    lines = Path(path).read_text().splitlines(keepends=True)
    assert json.loads(lines[0])["n_utterances"] == 5 and len(lines) == 6
    extra = [json.dumps({**json.loads(line), "id": f"copy{i}"}) + "\n"
             for i, line in enumerate(lines[1:3])]
    Path(path).write_text("".join((lines + extra)[:1 + kept]))
    with pytest.raises(ValueError) as caught:
        read_corpus(path)
    assert str(caught.value) == (
        f"{path}: the meta line says 5 utterances, but the file holds {kept}")


def test_utterance_record_lacking_a_key_is_named(tmp_path):
    config = toy_config()
    path = str(tmp_path / "corpus.jsonl")
    write_corpus(path, gen_corpus(config), build_sim_vocab(config), config.seed, "train")
    lines = Path(path).read_text().splitlines(keepends=True)
    record = json.loads(lines[2])
    del record["index"]
    lines[2] = json.dumps(record) + "\n"
    Path(path).write_text("".join(lines))
    with pytest.raises(ValueError, match="lacks key 'index'") as caught:
        read_corpus(path)
    assert path in str(caught.value)


@pytest.mark.parametrize("first_line", ["", "{not json\n", "[1, 2]\n"],
                         ids=["empty_file", "not_json", "not_an_object"])
def test_corpus_without_a_meta_line_is_named(tmp_path, first_line):
    path = tmp_path / "corpus.jsonl"
    path.write_text(first_line)
    with pytest.raises(ValueError, match="not a corpus file") as caught:
        read_corpus(str(path))
    assert str(path) in str(caught.value)


def test_utterance_line_that_is_not_json_is_named(tmp_path):
    config = toy_config()
    path = str(tmp_path / "corpus.jsonl")
    write_corpus(path, gen_corpus(config), build_sim_vocab(config), config.seed, "train")
    lines = Path(path).read_text().splitlines(keepends=True)
    lines[2] = "{not json\n"
    Path(path).write_text("".join(lines))
    with pytest.raises(ValueError, match="line 3: not a JSON object") as caught:
        read_corpus(path)
    assert path in str(caught.value)


@pytest.mark.parametrize("value, kind, read", [
    (3, int, 3), (3, float, 3.0), (0.5, float, 0.5), ([2, 4], tuple[int, int], (2, 4)),
    ({"a": "b"}, dict[str, str], {"a": "b"}), ("meta", typing.Literal["meta"], "meta"),
    ([[0, 1.0, True, 3]], list[tuple[int, float, bool, int]], [(0, 1.0, True, 3)]),
    ((2, 4), tuple[Count, Count], (2, 4)), (np.float64(0.25), Share, 0.25),
    (np.int64(7), Size, 7), (sys.float_info.max, float, sys.float_info.max),
], ids=["int", "int_as_float", "float", "tuple", "dict", "literal", "trace", "tuple_of_counts",
        "numpy_float", "numpy_int", "largest_float"])
def test_check_reads_each_declared_kind(value, kind, read):
    got = check(value, kind, "f")
    assert got == read and type(got) is type(read)


@pytest.mark.parametrize("value, kind, problem", [
    (True, int, "'k' must be a number written as an integer, got True"),
    (3.9, int, "must be a number written as an integer, got 3.9"),
    (24.0, int, "must be a number written as an integer, got 24.0"),
    (True, float, "'k' must be a finite number, got True"),
    (float("nan"), float, "must be a finite number, got nan"),
    (10**400, float, "must be a finite number"),
    ([1, 2, 3], tuple[int, int], "'k' must be a list of 2, got [1, 2, 3]"),
    ({"a": 5}, dict[str, str], "'k.a' must be a string, got 5"),
    (["x", 7], list[str], "'k.1' must be a string, got 7"),
    ([2.0], list[int], "'k.0' must be a number written as an integer, got 2.0"),
    ([float("inf")], list[float], "'k.0' must be a finite number, got inf"),
    ({"a": 1}, int, "'k' must be a number written as an integer, got {'a': 1}"),
    (2, typing.Literal[1], "'k' must be 1, got 2"),
    ({"b": {}}, {"b": {"c": int}}, "f lacks key 'k.b.c'"),
    ([2, 0], tuple[Count, Count], "'k.1' must be in [1, inf), got 0"),
    (1.5, Share, "'k' must be in [0, 1], got 1.5"),
    (2.5, Count, "'k' must be a number written as an integer, got 2.5"),
    (float("nan"), Range(0, 1, "()"), "'k' must be in (0, 1), got nan"),
], ids=["bool_for_int", "float_for_int", "integral_float_for_int", "bool_for_float", "nan",
        "past_the_float_range", "long_tuple", "dict_value", "list_item", "list_of_floats_for_ints",
        "infinite_list_item", "object_for_int", "literal", "nested_key",
        "count_below_1", "share_above_1", "float_for_a_count", "nan_outside_a_range"])
def test_check_names_the_part_that_does_not_fit(value, kind, problem):
    with pytest.raises(ValueError) as caught:
        check(value, kind, "f", ("k",))
    assert problem in str(caught.value)
