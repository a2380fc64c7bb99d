import logging

import pytest

from biaslab.biaslist import (
    build_utterance_list,
    extract_rarewords,
    read_bias_lists,
    write_bias_lists,
)
from biaslab.simulator import gen_corpus, make_inventories, SimConfig


def test_extract_all_common():
    assert extract_rarewords([["my", "name"], ["is"]], {"my", "name", "is"}) == set()


def test_extract_single_rare():
    refs = [["my", "name", "is", "kerry"]]
    assert extract_rarewords(refs, {"my", "name", "is"}) == {"kerry"}


def test_extract_covers_full_inventory():
    common, rare, _ = make_inventories(10, 40, 0, seed=3)
    config = SimConfig(
        seed=9,
        n_utterances=400,
        words_per_utterance=(3, 6),
        common_words=common,
        rare_words=rare,
        rare_word_rate=0.5,
        confusion_map={},
        state_dim=4,
    )
    corpus = gen_corpus(config)
    extracted = extract_rarewords([u.ref_words for u in corpus], set(common))
    assert extracted == set(rare)


def test_list_with_no_distractors():
    got = build_utterance_list("u1", {"kerry"}, {"kerry", "tom", "verus"}, 0, seed=5)
    assert got == ["kerry"]


def test_list_exhausts_candidates(caplog):
    with caplog.at_level(logging.WARNING):
        got = build_utterance_list("u1", {"kerry"}, {"kerry", "tom"}, 10, seed=5)
    assert got == ["kerry", "tom"]
    assert any("distractor" in rec.message for rec in caplog.records)


def test_list_deterministic():
    pool = {f"rare{i:02d}" for i in range(40)}
    a = build_utterance_list("u7", {"rare01"}, pool, 10, seed=5)
    b = build_utterance_list("u7", {"rare01"}, pool, 10, seed=5)
    assert a == b
    assert len(a) == 11


def test_list_differs_by_utterance_and_seed():
    pool = {f"rare{i:02d}" for i in range(40)}
    a = build_utterance_list("u7", set(), pool, 10, seed=5)
    b = build_utterance_list("u8", set(), pool, 10, seed=5)
    c = build_utterance_list("u7", set(), pool, 10, seed=6)
    assert a != b or a != c


def test_own_words_always_present_and_never_duplicated():
    pool = {f"rare{i:02d}" for i in range(30)}
    own = {"rare00", "rare29"}
    got = build_utterance_list("u2", own, pool, 5, seed=1)
    assert own <= set(got)
    assert len(got) == len(set(got)) == 7
    distractors = set(got) - own
    assert not distractors & own


def test_lists_file_roundtrip(tmp_path):
    lists = {"utt00000": ["kerry", "tom"], "utt00001": []}
    path = str(tmp_path / "lists.jsonl")
    write_bias_lists(path, lists)
    assert read_bias_lists(path) == lists


def test_list_record_lacking_a_key_is_named(tmp_path):
    path = tmp_path / "lists.jsonl"
    path.write_text('{"id": "utt00000", "words": ["kerry"]}\n{"id": "utt00001"}\n')
    with pytest.raises(ValueError, match="lacks key 'words'") as caught:
        read_bias_lists(str(path))
    assert str(path) in str(caught.value)


def test_repeated_list_id_is_named(tmp_path):
    path = tmp_path / "lists.jsonl"
    path.write_text('{"id": "utt00000", "words": ["kerry"]}\n'
                    '{"id": "utt00001", "words": []}\n'
                    '{"id": "utt00000", "words": ["tom"]}\n')
    with pytest.raises(ValueError, match="repeated bias-list id utt00000") as caught:
        read_bias_lists(str(path))
    assert str(path) in str(caught.value)
