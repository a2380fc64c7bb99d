import json
from pathlib import Path

import numpy as np
import pytest

from biaslab import simulator
from biaslab.simulator import (
    SimConfig,
    build_sim_vocab,
    gen_corpus,
    make_inventories,
    read_corpus,
    render_condition,
    write_corpus,
)


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


def test_confused_positions_argmax_is_confusable():
    from biaslab.tokenizer import tokenize_word

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


def test_size_warning(tmp_path, monkeypatch):
    monkeypatch.setattr(simulator, "SIZE_WARNING_THRESHOLD", 2)
    config = toy_config(n_utterances=3)
    corpus = gen_corpus(config)
    vocab = build_sim_vocab(config)
    with pytest.warns(UserWarning, match="large file"):
        write_corpus(str(tmp_path / "c.jsonl"), corpus, vocab, config.seed, "train")


def _set(rows, i, j, value):
    rows[i][j] = value


@pytest.mark.parametrize("change, problem", [
    (lambda r: r["h_dec_seq"][0].pop(), "not a"),  # one ragged state row
    (lambda r: [row.pop() for row in r["h_dec_seq"]], "shape"),  # narrower than state_dim
    (lambda r: _set(r["h_dec_seq"], 1, 0, float("nan")), "non-finite"),
    (lambda r: _set(r["p_mdl_seq"], 1, 0, float("nan")), "non-finite"),
    (lambda r: _set(r["p_mdl_seq"], 0, 2, float("inf")), "non-finite"),
    (lambda r: r.update(id="utt00000"), "repeated utterance id"),  # the first record's id
], ids=["ragged_state_row", "narrow_states", "nan_state", "nan_model_row", "inf_model_row",
        "repeated_id"])
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
