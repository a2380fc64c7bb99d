import csv
import math

import numpy as np
import pytest

from biaslab import losses
from biaslab.biastrie import build_tries
from biaslab.pointer import flatten, init_params
from biaslab.simulator import sub_rng
from biaslab.trainer import (LOG_COLUMNS, TrainConfig, fit, prepare_batch, train,
                             write_train_log)
from conftest import toy_experiment


def small_setup(seed=3, n=80):
    vocab, corpus, _, lists, _ = toy_experiment(seed=seed, n_train=n, n_test=1)
    return vocab, corpus, lists


@pytest.mark.parametrize(
    "field,value",
    [("epochs", 0), ("lr", 0.0), ("lr", -0.1), ("lr", math.nan), ("lr", math.inf),
     ("batch_size", 0),
     ("alpha", 1.5), ("alpha", 0.0), ("mode", "wer"), ("patience", 0), ("epochs", 2.5)],
)
def test_config_validation(field, value):
    config = TrainConfig(**{field: value})
    with pytest.raises(ValueError):
        config.validate()


def test_training_needs_a_dev_split():
    vocab, corpus, lists = small_setup()
    with pytest.raises(ValueError, match="dev split"):
        train(corpus[:1], lists, vocab, TrainConfig(epochs=1))
    _, log = train(corpus[:2], lists, vocab, TrainConfig(epochs=1))  # one row each
    assert len(log) == 1


def test_missing_bias_list_rejected():
    vocab, corpus, lists = small_setup()
    broken = dict(lists)
    del broken[corpus[0].utt_id]
    with pytest.raises(ValueError, match="no bias list"):
        train(corpus, broken, vocab, TrainConfig(epochs=1))


@pytest.mark.parametrize("missing", ["list", "trie"])
def test_prepare_batch_names_the_utterances_without_a_list_or_a_trie(missing):
    vocab, corpus, lists = small_setup(n=5)
    trees = build_tries(vocab, lists)
    broken = dict({"list": lists, "trie": trees}[missing])
    del broken[corpus[1].utt_id]
    args = {"list": (broken, trees), "trie": (lists, broken)}[missing]
    with pytest.raises(ValueError) as caught:
        prepare_batch(vocab, corpus, *args)
    what = {"list": "bias list", "trie": "trie"}[missing]
    assert str(caught.value) == f"no {what} for utterances: [{corpus[1].utt_id!r}]"
    with pytest.raises(ValueError, match="no bias list for utterances: "):
        prepare_batch(vocab, corpus, {}, {})


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


def test_a_flat_dev_loss_keeps_the_first_epoch_and_decays_each_patience():
    """A rate too small to move any parameter leaves the dev loss flat: each
    later epoch ties with the first, which is kept, and after every
    ``patience`` epochs without improvement the rate is multiplied by the
    decay factor."""
    vocab, corpus, lists = small_setup(n=40)
    lr = 1e-300
    config = TrainConfig(epochs=6, seed=2, lr=lr, patience=2, lr_decay_factor=0.5)
    params, log = train(corpus, lists, vocab, config)
    assert len({row["dev_total"] for row in log}) == 1
    assert [row["lr"] for row in log] == [lr, lr, lr, lr / 2, lr / 2, lr / 4]
    start = init_params(2, vocab.size, 16, corpus[0].h_dec_seq.shape[1])
    assert np.array_equal(flatten(params), flatten(start))


def test_log_row_holds_the_splits_means_and_the_dev_rates():
    """An epoch's row: the train split's mean losses at its end, the dev
    split's (the shuffle's last tenth) mean total and gate rates in percent,
    and the norm of the mean train gradient before its updates."""
    vocab, corpus, lists = small_setup(n=40)
    config = TrainConfig(epochs=1, seed=2)
    params, (row,) = train(corpus, lists, vocab, config)
    examples = prepare_batch(vocab, corpus, lists, build_tries(vocab, lists))
    shuffle = sub_rng(2, "shuffle").permutation(len(examples))
    train_split = [examples[i] for i in shuffle[:-4]]
    dev_split = [examples[i] for i in shuffle[-4:]]
    start = init_params(2, vocab.size, 16, corpus[0].h_dec_seq.shape[1])
    signal, _ = losses.grad(start, train_split, config.mode, config.alpha)
    trained = losses.evaluate(params, train_split, config.mode, config.alpha)
    dev = losses.evaluate(params, dev_split, config.mode, config.alpha)
    want = {"grad_norm": np.linalg.norm(flatten(signal)) / 36, "dev_total": dev.total / 4,
            **{key: getattr(trained, key) / 36 for key in ("l_gen", "l_ptr", "l_asr")}}
    for key, value in want.items():
        assert math.isclose(row[key], value, rel_tol=1e-12), key
    assert (row["dev_far"], row["dev_tar"]) == (100.0 * dev.gate_rates["far"],
                                                100.0 * dev.gate_rates["tar"])


def test_fit_on_a_taken_pack_sorts_its_splits_by_their_own_lengths(monkeypatch):
    """A ``take`` of a pack, whose rows are not 0..n-1, trains as the list of
    its examples does, and every full-split pass sees its rows in length order."""
    vocab, corpus, lists = small_setup(n=40)
    examples = prepare_batch(vocab, corpus, lists, build_tries(vocab, lists))
    packed = losses.pack(examples)
    part = packed.take(np.arange(len(packed))[::-1][:30])
    config = TrainConfig(epochs=2, seed=1, batch_size=6)
    want_params, want_log = fit([examples[r] for r in part.rows], config)
    real = losses.teacher_forced
    seen = []

    def spy(params, batch, *args, **kwargs):
        seen.append(batch.lengths[batch.rows])
        return real(params, batch, *args, **kwargs)

    monkeypatch.setattr(losses, "teacher_forced", spy)
    params, log = fit(part, config)
    assert len(seen) == 5  # the initial gradient, then each epoch's train and dev passes
    assert all((np.diff(lengths) >= 0).all() for lengths in seen)
    assert np.array_equal(flatten(params), flatten(want_params))
    assert log == want_log


def test_non_finite_input_raises_naming_the_utterance():
    vocab, corpus, lists = small_setup(n=60)
    corpus[7].h_dec_seq[2, 0] = np.nan
    with pytest.raises(losses.DivergenceError,
                       match=f"^non-finite input on utterance {corpus[7].utt_id}$"):
        train(corpus, lists, vocab, TrainConfig(epochs=4, seed=2))


def _diverge_on_call(monkeypatch, name, call, how):
    """Make ``losses.<name>`` raise DivergenceError (how="raise") or, as
    ``run_groups``, return NaN loss sums (how="nan") on its ``call``-th call;
    every other call is real."""
    real = getattr(losses, name)
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        if len(calls) == call and how == "raise":
            raise losses.DivergenceError("injected")
        out = real(*args, **kwargs)
        if len(calls) == call:
            out[0][:] = float("nan")
        return out

    monkeypatch.setattr(losses, name, patched)


# At n=40 the train split has 36 utterances, 4 minibatches of 10.  Grad call
# 1 is the initial full-split gradient, 2 epoch 1's end-of-epoch gradient and
# 3 epoch 2's.  Every pass runs the group loop: run_groups call 1 is the
# initial gradient, 2-5 epoch 1's minibatches, 6 its end-of-epoch gradient, 7
# its dev pass and 8 epoch 2's first minibatch.  Evaluate call 2 is epoch 2's
# dev pass.
@pytest.mark.parametrize("name, call, how, rows", [
    ("grad", 1, "raise", 0),
    ("run_groups", 8, "raise", 1),
    ("run_groups", 8, "nan", 1),
    ("grad", 3, "raise", 2),  # the row is logged from evaluate, then training stops
    ("evaluate", 2, "raise", 1),
], ids=["initial_gradient", "minibatch", "nan_minibatch_total", "end_of_epoch_gradient",
        "dev_pass"])
def test_every_divergence_stop_site(monkeypatch, name, call, how, rows):
    vocab, corpus, lists = small_setup(n=40)
    config = TrainConfig(epochs=4, seed=2)
    _, full_log = train(corpus, lists, vocab, config)
    _diverge_on_call(monkeypatch, name, call, how)
    params, log = train(corpus, lists, vocab, config)
    monkeypatch.undo()
    assert log == full_log[:rows]
    if rows:
        expected, _ = train(corpus, lists, vocab, TrainConfig(epochs=rows, seed=2))
    else:
        expected = init_params(2, vocab.size, 16, corpus[0].h_dec_seq.shape[1])
    assert np.array_equal(flatten(params), flatten(expected))


@pytest.mark.parametrize("epoch", [0, 2, 4])
def test_a_fit_without_log_hands_back_the_logged_fits_snapshot(monkeypatch, epoch):
    """A fit that keeps no log, as each ``sweep`` cell runs, makes no full pass
    over the training split, only the dev pass each epoch, and returns the
    snapshot a logged fit returns: with no divergence (epoch 0), and with one
    injected into the given epoch's second minibatch.  A logged fit takes a
    gradient only where the next epoch's row reads it."""
    vocab, corpus, lists = small_setup(n=40)
    packed = losses.pack(prepare_batch(vocab, corpus, lists, build_tries(vocab, lists)))
    config = TrainConfig(epochs=4, seed=2)
    real, got = losses.teacher_forced, {}
    # run_groups runs 4 minibatches and the dev pass each epoch, and with the log
    # also the initial gradient and each end-of-epoch pass
    for keep_log, call in [(True, 1 + 6 * (epoch - 1) + 2), (False, 5 * (epoch - 1) + 2)]:
        passes = []  # whether each full pass wants a gradient
        _diverge_on_call(monkeypatch, "run_groups", call if epoch else 0, "nan")
        monkeypatch.setattr(losses, "teacher_forced", lambda *args, **kwargs: passes.append(
            kwargs.get("want_grad", False)) or real(*args, **kwargs))
        got[keep_log] = (*fit(packed, config, keep_log), passes)
        monkeypatch.undo()
    (logged, log, _), (free, no_log, dev_passes) = got[True], got[False]
    assert np.array_equal(flatten(free), flatten(logged)) and no_log == []
    assert len(log) == len(dev_passes) == (epoch - 1 if epoch else config.epochs)
    assert not any(dev_passes)
    if not epoch:
        assert got[True][2] == [True] + [True, False] * (config.epochs - 1) + [False, False]


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
