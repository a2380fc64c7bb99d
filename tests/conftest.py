"""Shared fixtures: hand-scored corpora and toy-experiment builders."""

from unittest import mock

from biaslab import harness
from biaslab.biaslist import build_lists
from biaslab.simulator import (
    SimConfig,
    build_sim_vocab,
    gen_corpus,
    make_inventories,
    render_condition,
)


def make_lists(corpus, common_words, n_distractors, seed):
    """Per-utterance bias lists from a corpus, distractors drawn per id."""
    return build_lists(corpus, set(common_words), n_distractors, seed)


def toy_experiment(seed=3, n_train=500, n_test=200, domain_shift=0.3,
                   base_accuracy_common=0.95, base_accuracy_rare=0.75,
                   n_confused=12, n_distractors=10):
    """Train/test split of one simulated corpus; test is condition-shifted.

    Returns (vocab, train_corpus, test_corpus, train_lists, test_lists).
    """
    common, rare, confusion = make_inventories(40, 24, n_confused, seed=100)
    config = SimConfig(
        seed=seed,
        n_utterances=n_train + n_test,
        words_per_utterance=(3, 6),
        common_words=common,
        rare_words=rare,
        rare_word_rate=0.3,
        base_accuracy_common=base_accuracy_common,
        base_accuracy_rare=base_accuracy_rare,
        confusion_map=confusion,
        state_dim=24,
        domain_shift=domain_shift,
    )
    vocab = build_sim_vocab(config)
    full = gen_corpus(config, "train")
    train_corpus = full[:n_train]
    test_corpus = render_condition(full[n_train:], "test", config)
    train_lists = make_lists(train_corpus, common, n_distractors, seed)
    test_lists = make_lists(test_corpus, common, n_distractors, seed + 1)
    return vocab, train_corpus, test_corpus, train_lists, test_lists


def shared_start_setup(seed, embed_dim=6, state_dim=6, n_utterances=2):
    """``harness.make_check_setup``'s instance, except that rare words start
    with letters common words start with too (``rare_initials="ab"``).  So a
    non-bias word can begin with a bias word's first token: an off-mask
    position whose gold token is in its valid set, which ``make_check_setup``
    never makes."""
    def inventories(*args, **kwargs):
        return make_inventories(*args, **{**kwargs, "rare_initials": "ab"})

    with mock.patch.object(harness, "make_inventories", inventories):
        return harness.make_check_setup(seed, embed_dim, state_dim, n_utterances)


def shared_starts(batch):
    """How many off-mask positions of ``batch`` have their gold token in the valid set."""
    return sum(bool(ex.allowed[i, tok]) for ex in batch for i, tok in enumerate(ex.tokens)
               if not ex.mask[i])


def scorer_fixture():
    """(ref, hyp, bias_list, expected-counts) cases, hand computed.

    Expected keys: subs, dels, ins, bias_errors, unbias_errors, ref_words,
    ref_bias_words, u_we_b.
    """
    return [
        (["my", "name", "is", "kerry"], ["my", "name", "is", "gary"], {"kerry"},
         dict(subs=1, dels=0, ins=0, bias_errors=1, unbias_errors=0,
              ref_words=4, ref_bias_words=1, u_we_b=0)),
        (["hello", "world"], ["hello", "world"], set(),
         dict(subs=0, dels=0, ins=0, bias_errors=0, unbias_errors=0,
              ref_words=2, ref_bias_words=0, u_we_b=0)),
        (["call", "tom", "now"], ["call", "now"], {"tom"},
         dict(subs=0, dels=1, ins=0, bias_errors=1, unbias_errors=0,
              ref_words=3, ref_bias_words=1, u_we_b=0)),
        (["go", "home"], ["go", "tom", "home"], {"tom"},
         dict(subs=0, dels=0, ins=1, bias_errors=1, unbias_errors=0,
              ref_words=2, ref_bias_words=0, u_we_b=0)),
        (["go", "home"], ["go", "blue", "home"], {"tom"},
         dict(subs=0, dels=0, ins=1, bias_errors=0, unbias_errors=1,
              ref_words=2, ref_bias_words=0, u_we_b=0)),
        (["kerry", "kerry"], ["kerry", "gary"], {"kerry"},
         dict(subs=1, dels=0, ins=0, bias_errors=1, unbias_errors=0,
              ref_words=2, ref_bias_words=2, u_we_b=0)),
        (["a", "b", "c", "d"], ["a", "x", "c"], {"b"},
         dict(subs=1, dels=1, ins=0, bias_errors=1, unbias_errors=1,
              ref_words=4, ref_bias_words=1, u_we_b=0)),
        (["tom", "met", "kerry"], ["tom", "met", "kerry"], {"tom", "kerry"},
         dict(subs=0, dels=0, ins=0, bias_errors=0, unbias_errors=0,
              ref_words=3, ref_bias_words=2, u_we_b=0)),
        (["one", "two", "three"], ["one", "three"], set(),
         dict(subs=0, dels=1, ins=0, bias_errors=0, unbias_errors=1,
              ref_words=3, ref_bias_words=0, u_we_b=0)),
        (["sue", "said", "hi"], ["sue", "said", "hi", "sue"], {"sue"},
         dict(subs=0, dels=0, ins=1, bias_errors=1, unbias_errors=0,
              ref_words=3, ref_bias_words=1, u_we_b=0)),
        (["deep", "blue", "sea"], ["deep", "sea"], {"blue"},
         dict(subs=0, dels=1, ins=0, bias_errors=1, unbias_errors=0,
              ref_words=3, ref_bias_words=1, u_we_b=0)),
        (["red", "fish"], ["red", "fish", "fish"], set(),
         dict(subs=0, dels=0, ins=1, bias_errors=0, unbias_errors=1,
              ref_words=2, ref_bias_words=0, u_we_b=0)),
        (["big", "kerry", "dog"], ["big", "gary", "fog"], {"kerry"},
         dict(subs=2, dels=0, ins=0, bias_errors=1, unbias_errors=1,
              ref_words=3, ref_bias_words=1, u_we_b=1)),
    ]
