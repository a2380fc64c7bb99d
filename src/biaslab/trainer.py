"""Mini-batch gradient training of the copy module.

Plain gradient descent in either loss mode, with seeded shuffling, a
plateau learning-rate decay, and per-epoch snapshots evaluated on a held
out dev split (the last tenth of the seeded shuffle).  The returned
parameters are the best-dev snapshot, earliest epoch winning ties.  Each
log row carries the epoch's end-of-epoch mean train losses and dev gate
rates (percent, at ``metrics.GATE_THRESHOLD``), plus ``grad_norm``: the
norm of the mean full-train-split gradient measured before the epoch's
updates, i.e. the signal the objective offered that epoch.  A divergence
anywhere stops training, with the best snapshot and the log so far.  The
full-split passes take the split's rows in length order, so a kernel group
pads little; minibatches take the seeded shuffle's order.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from typing import Annotated, Literal

import numpy as np

from . import decoder, losses, metrics
from .biaslist import require_lists
from .biastrie import PrefixTree, build_tries
from .losses import BiasExample, prepare_example
from .pointer import PgParams, flatten, init_params, unflatten
from .simulator import Count, Range, SimUtterance, Size, check_fields, sub_rng
from .tokenizer import Vocab


@dataclass
class TrainConfig:
    mode: Literal[losses.MODES] = losses.TWO_LOSS
    alpha: Annotated[float, losses.ALPHA] = 0.7
    lr: Annotated[float, Range(0, ends="()")] = 0.3
    lr_decay_factor: Annotated[float, Range(0, 1, "(]")] = 0.5
    patience: Count = 2
    epochs: Count = 10
    batch_size: Count = 10
    seed: Size = 0
    embed_dim: Count = 16
    jobs: int = 1  # has no effect; kept so that callers passing it keep working

    def validate(self) -> None:
        check_fields(self)


def prepare_batch(vocab: Vocab, corpus: list[SimUtterance], bias_lists: dict[str, list[str]],
                  trees: dict[str, PrefixTree]) -> list[BiasExample]:
    """Build teacher-forced examples from each utterance's bias list and its trie;
    a missing list or trie raises ``require_lists``' ValueError."""
    utt_ids = [utt.utt_id for utt in corpus]
    bias_lists, trees = require_lists(utt_ids, bias_lists), require_lists(utt_ids, trees, "trie")
    return [
        prepare_example(vocab, utt.utt_id, utt.ref, utt.h_dec_seq, utt.p_mdl_seq,
                        bias_lists[utt.utt_id], trees[utt.utt_id])
        for utt in corpus
    ]


def _train_pass(
    params: PgParams, train_set: losses.Pack, config: TrainConfig, want_signal: bool
) -> tuple[PgParams | None, losses.LossReport]:
    """Train-split losses at the current parameters and, if wanted, their
    gradient: the next epoch's signal, None when it is not finite."""
    if want_signal:
        try:
            return losses.grad(params, train_set, config.mode, config.alpha)
        except losses.DivergenceError:
            pass
    return None, losses.evaluate(params, train_set, config.mode, config.alpha)


def train(
    corpus: list[SimUtterance],
    bias_lists: dict[str, list[str]],
    vocab: Vocab,
    config: TrainConfig,
) -> tuple[PgParams, list[dict]]:
    """Train the copy module; returns the best-dev snapshot and the epoch log."""
    return fit(prepare_batch(vocab, corpus, bias_lists, build_tries(vocab, bias_lists)), config)


def fit(examples: losses.Pack | Sequence[BiasExample], config: TrainConfig,
        keep_log: bool = True) -> tuple[PgParams, list[dict]]:
    """``train`` on prepared examples: a ``losses.Pack``, or a list that is
    packed once, at the start of training, where a bad input raises, and
    then dropped.  The splits and minibatches take the pack's rows;
    minibatches run the group loop unchecked, as the parameters are built
    to the pack's widths and ``validate`` has checked the mode and alpha.

    With ``keep_log`` False the log stays empty, and the full passes over the
    training split that only the log reads are skipped: the gradient before
    the first epoch and each end-of-epoch pass.  The dev pass, the best-dev
    snapshot, the learning-rate decay and the minibatch divergence stop stay,
    so the returned parameters are the same, except that a non-finite
    end-of-epoch gradient no longer stops training: the next minibatch's
    non-finite loss or parameters do."""
    config.validate()
    if len(examples) < 2:
        raise ValueError("training needs at least two utterances for a dev split")
    packed = losses.pack(examples)
    del examples  # the pack holds all that training reads
    shuffle = sub_rng(config.seed, "shuffle").permutation(len(packed))
    dev_count = max(1, len(packed) // 10)
    n_train = len(packed) - dev_count

    params = init_params(config.seed, packed.allowed.shape[2], config.embed_dim,
                         packed.h.shape[2])
    theta = flatten(params)
    lr = config.lr
    best_params = params  # an update builds new arrays, so a snapshot needs no copy
    best_dev = float("inf")
    epochs_since_improve = 0
    log: list[dict] = []
    train_rows = shuffle[:-dev_count]
    lengths = packed.lengths[packed.rows]  # by position in the pack, as ``take`` reads
    train_set, dev_set = (packed.take(rows[np.argsort(lengths[rows], kind="stable")])
                          for rows in (train_rows, shuffle[-dev_count:]))

    try:
        if keep_log:  # gradient signal available to the first epoch, before any update
            signal, _ = losses.grad(params, train_set, config.mode, config.alpha)
        for epoch in range(1, config.epochs + 1):
            order = sub_rng(config.seed, "epoch", epoch).permutation(n_train)
            for start in range(0, len(order), config.batch_size):
                batch = packed.take(train_rows[order[start:start + config.batch_size]])
                grads = np.zeros_like(theta)
                sums = losses.run_groups(params, batch, config.mode, config.alpha, grads)[0]
                theta = theta - lr / len(batch) * grads
                if not (math.isfinite(losses.mode_total(config.mode, *sums))
                        and np.isfinite(theta).all()):
                    raise losses.DivergenceError(f"non-finite loss or parameters in epoch {epoch}")
                params = unflatten(theta, params.shapes, params.seed)

            if keep_log:
                grad_norm = float(np.sqrt(np.sum((flatten(signal) * (1.0 / n_train)) ** 2)))
                signal, train_report = _train_pass(params, train_set, config,
                                                   epoch < config.epochs)
            dev_report = losses.evaluate(params, dev_set, config.mode, config.alpha)
            dev_total = dev_report.total / len(dev_set)
            if keep_log:
                log.append({
                    "epoch": epoch,
                    "l_gen": train_report.l_gen / n_train,
                    "l_ptr": train_report.l_ptr / n_train,
                    "l_asr": train_report.l_asr / n_train,
                    "dev_far": 100.0 * dev_report.gate_rates["far"],
                    "dev_tar": 100.0 * dev_report.gate_rates["tar"],
                    "lr": lr,
                    "grad_norm": grad_norm,
                    "dev_total": dev_total,
                })

            if dev_total < best_dev:
                best_dev = dev_total
                best_params = params
                epochs_since_improve = 0
            else:
                epochs_since_improve += 1
                if epochs_since_improve >= config.patience:
                    lr *= config.lr_decay_factor
                    epochs_since_improve = 0
            if keep_log and signal is None:  # the end-of-epoch gradient diverged
                break
    except losses.DivergenceError:
        pass  # stop and hand back the best snapshot so far
    return best_params, log


def sweep(examples: losses.Pack, corpus: list[SimUtterance], vocab: Vocab,
          trees: dict[str, PrefixTree], lists: dict[str, list[str]], configs: list[TrainConfig],
          mode: str) -> Iterator[metrics.ScoreReport]:
    """Each config's cell in turn: ``fit`` on the packed ``examples``, decode the test
    ``corpus`` biased by its ``trees`` in ``mode``, and yield the report of scoring
    it against its bias ``lists``."""
    for config in configs:
        params, _ = fit(examples, config, keep_log=False)
        decoded = decoder.decode_corpus(corpus, vocab, params, trees, mode)
        yield decoder.score_corpus(corpus, lists, decoded)[0]


LOG_COLUMNS = ("epoch", "l_gen", "l_ptr", "l_asr", "dev_far", "dev_tar", "lr", "grad_norm")


def write_train_log(path: str, log: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for row in log:
            writer.writerow(
                [row["epoch"]] + [repr(float(row[c])) for c in LOG_COLUMNS[1:]]
            )
