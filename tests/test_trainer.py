import csv
import math

import numpy as np
import pytest

from biaslab.trainer import LOG_COLUMNS, TrainConfig, train, write_train_log
from conftest import toy_experiment


def small_setup(seed=3, n=80):
    vocab, corpus, _, lists, _ = toy_experiment(seed=seed, n_train=n, n_test=1)
    return vocab, corpus, lists


@pytest.mark.parametrize(
    "field,value",
    [("epochs", 0), ("lr", 0.0), ("lr", -0.1), ("batch_size", 0),
     ("alpha", 1.5), ("alpha", 0.0), ("mode", "wer"), ("patience", 0)],
)
def test_config_validation(field, value):
    config = TrainConfig(**{field: value})
    with pytest.raises(ValueError):
        config.validate()


def test_training_needs_a_dev_split():
    vocab, corpus, lists = small_setup()
    with pytest.raises(ValueError, match="dev split"):
        train(corpus[:1], lists, vocab, TrainConfig(epochs=1))


def test_missing_bias_list_rejected():
    vocab, corpus, lists = small_setup()
    broken = dict(lists)
    del broken[corpus[0].utt_id]
    with pytest.raises(ValueError, match="no bias list"):
        train(corpus, broken, vocab, TrainConfig(epochs=1))


def test_training_deterministic():
    vocab, corpus, lists = small_setup()
    config = TrainConfig(epochs=3, seed=7, batch_size=8)
    params_a, log_a = train(corpus, lists, vocab, config)
    params_b, log_b = train(corpus, lists, vocab, config)
    assert np.array_equal(params_a.token_embed, params_b.token_embed)
    assert np.array_equal(params_a.w_gate, params_b.w_gate)
    assert params_a.b_gate == params_b.b_gate
    assert log_a == log_b


def test_training_independent_of_jobs():
    vocab, corpus, lists = small_setup(n=40)
    base = TrainConfig(epochs=2, seed=1, batch_size=6, jobs=1)
    wide = TrainConfig(epochs=2, seed=1, batch_size=6, jobs=3)
    params_a, log_a = train(corpus, lists, vocab, base)
    params_b, log_b = train(corpus, lists, vocab, wide)
    assert np.array_equal(params_a.token_embed, params_b.token_embed)
    assert params_a.b_gate == params_b.b_gate
    assert log_a == log_b


def test_training_leaves_corpus_untouched():
    vocab, corpus, lists = small_setup(n=40)
    before = [(u.p_mdl_seq.copy(), u.h_dec_seq.copy()) for u in corpus]
    train(corpus, lists, vocab, TrainConfig(epochs=2, seed=1))
    for utt, (p_mdl, h_dec) in zip(corpus, before):
        assert np.array_equal(utt.p_mdl_seq, p_mdl)
        assert np.array_equal(utt.h_dec_seq, h_dec)


def test_two_loss_converges_on_default_toy_corpus():
    vocab, corpus, _, lists, _ = toy_experiment(seed=3, n_train=500, n_test=1)
    config = TrainConfig(mode="two_loss", alpha=0.7, lr=0.3, epochs=6,
                         batch_size=10, seed=3)
    _, log = train(corpus, lists, vocab, config)
    first = log[0]["l_gen"] + log[0]["l_ptr"]
    final = log[-1]["l_gen"] + log[-1]["l_ptr"]
    assert final <= 0.5 * first


def test_best_dev_snapshot_is_returned():
    vocab, corpus, lists = small_setup(n=60)
    config = TrainConfig(epochs=5, seed=2, batch_size=8)
    params, log = train(corpus, lists, vocab, config)
    best_epoch = min(range(len(log)), key=lambda i: (log[i]["dev_total"], i)) + 1
    replay, _ = train(corpus, lists, vocab,
                      TrainConfig(epochs=best_epoch, seed=2, batch_size=8))
    assert np.array_equal(params.token_embed, replay.token_embed)
    assert params.b_gate == replay.b_gate


def test_plateau_decays_learning_rate():
    vocab, corpus, lists = small_setup(n=40)
    # huge lr stalls dev loss immediately without diverging to non-finite
    config = TrainConfig(epochs=6, seed=2, lr=30.0, patience=2, lr_decay_factor=0.5)
    _, log = train(corpus, lists, vocab, config)
    if log:  # divergence abort may end training early
        rates = [row["lr"] for row in log]
        assert rates[0] == 30.0
        assert min(rates) <= 30.0


@pytest.mark.filterwarnings("error")
def test_divergence_aborts_with_finite_snapshot():
    vocab, corpus, lists = small_setup(n=40)
    corpus[0].h_dec_seq[0, 0] = np.inf  # poisons the gradients mid-epoch
    config = TrainConfig(epochs=4, seed=2)
    params, log = train(corpus, lists, vocab, config)
    assert math.isfinite(params.b_gate)
    assert np.all(np.isfinite(params.token_embed))
    assert log == []


def test_extreme_lr_saturates_but_stays_finite():
    vocab, corpus, lists = small_setup(n=40)
    config = TrainConfig(epochs=2, seed=2, lr=1e9)
    params, log = train(corpus, lists, vocab, config)
    assert np.all(np.isfinite(params.token_embed))
    assert all(math.isfinite(row["l_gen"]) for row in log)


def test_log_csv_format(tmp_path):
    vocab, corpus, lists = small_setup(n=40)
    _, log = train(corpus, lists, vocab, TrainConfig(epochs=2, seed=1))
    path = str(tmp_path / "log.csv")
    write_train_log(path, log)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(LOG_COLUMNS)
    assert len(rows) == 3
    assert rows[1][0] == "1"
    assert float(rows[1][6]) == 0.3  # lr column
