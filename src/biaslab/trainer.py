"""Mini-batch gradient training of the copy module.

Plain gradient descent in either loss mode, with seeded shuffling, a
plateau learning-rate decay, and per-epoch snapshots evaluated on a held
out dev split (the last tenth of the seeded shuffle).  The returned
parameters are the best-dev snapshot, earliest epoch winning ties.  Each
log row carries the epoch's end-of-epoch mean train losses and dev gate
rates (percent, 0.5 boundary), plus ``grad_norm``: the norm of the mean
full-train-split gradient measured before the epoch's updates, i.e. the
signal the objective offered that epoch.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from . import losses
from .biaslist import require_lists
from .losses import BiasExample, prepare_example
from .pointer import PgParams, flatten, init_params, unflatten
from .simulator import SimUtterance, sub_rng
from .tokenizer import Vocab


@dataclass
class TrainConfig:
    mode: str = losses.TWO_LOSS
    alpha: float = 0.7
    lr: float = 0.3
    lr_decay_factor: float = 0.5
    patience: int = 2
    epochs: int = 10
    batch_size: int = 10
    seed: int = 0
    embed_dim: int = 16
    jobs: int = 1  # has no effect; kept so that callers passing it keep working

    def validate(self) -> None:
        if self.mode not in losses.MODES:
            raise ValueError(f"unknown training mode {self.mode!r}")
        losses.check_alpha(self.alpha)
        if self.lr <= 0.0:
            raise ValueError("learning rate must be positive")
        if not 0.0 < self.lr_decay_factor <= 1.0:
            raise ValueError("lr_decay_factor must be in (0, 1]")
        if self.epochs < 1:
            raise ValueError("epochs must be at least 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.patience < 1:
            raise ValueError("patience must be at least 1")
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be positive")


def prepare_batch(
    vocab: Vocab,
    corpus: list[SimUtterance],
    bias_lists: dict[str, list[str]],
) -> list[BiasExample]:
    """Build teacher-forced examples; every utterance needs a bias list."""
    require_lists([u.utt_id for u in corpus], bias_lists)
    return [
        prepare_example(
            vocab, utt.utt_id, utt.ref, utt.h_dec_seq, utt.p_mdl_seq, bias_lists[utt.utt_id]
        )
        for utt in corpus
    ]


def _train_pass(
    params: PgParams, train_set: list[BiasExample], config: TrainConfig, want_signal: bool
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
    config.validate()
    if len(corpus) < 2:
        raise ValueError("training needs at least two utterances for a dev split")
    examples = prepare_batch(vocab, corpus, bias_lists)

    shuffle = sub_rng(config.seed, "shuffle").permutation(len(examples))
    dev_count = max(1, len(examples) // 10)
    train_idx = [int(i) for i in shuffle[:-dev_count]]
    dev_idx = [int(i) for i in shuffle[-dev_count:]]
    train_set = [examples[i] for i in train_idx]
    dev_set = [examples[i] for i in dev_idx]

    state_dim = corpus[0].h_dec_seq.shape[1]
    params = init_params(config.seed, vocab.size, config.embed_dim, state_dim)
    lr = config.lr
    best_params = params  # an update builds new arrays, so a snapshot needs no copy
    best_dev = float("inf")
    epochs_since_improve = 0
    log: list[dict] = []
    n_train = len(train_set)

    try:
        # gradient signal available to the first epoch, before any update
        signal, _ = losses.grad(params, train_set, config.mode, config.alpha)
    except losses.DivergenceError:
        return best_params, log
    for epoch in range(1, config.epochs + 1):
        if signal is None:
            break
        grad_norm = float(np.sqrt(np.sum((flatten(signal) * (1.0 / n_train)) ** 2)))
        order = sub_rng(config.seed, "epoch", epoch).permutation(len(train_set))
        diverged = False
        for start in range(0, len(order), config.batch_size):
            batch = [train_set[int(i)] for i in order[start:start + config.batch_size]]
            try:
                grads, report = losses.grad(params, batch, config.mode, config.alpha)
            except losses.DivergenceError:
                diverged = True
                break
            if not math.isfinite(report.total):
                diverged = True
                break
            params = unflatten(
                flatten(params) - lr / len(batch) * flatten(grads), params.shapes, params.seed
            )
        if diverged:
            # abort and hand back the last good snapshot
            break

        try:
            signal, train_report = _train_pass(params, train_set, config, epoch < config.epochs)
            dev_report = losses.evaluate(
                params, dev_set, config.mode, config.alpha, gate_threshold=0.5
            )
        except losses.DivergenceError:
            break
        dev_rates = dev_report.gate_rates
        dev_total = dev_report.total / len(dev_set)
        row = {
            "epoch": epoch,
            "l_gen": train_report.l_gen / n_train,
            "l_ptr": train_report.l_ptr / n_train,
            "l_asr": train_report.l_asr / n_train,
            "dev_far": 100.0 * dev_rates["far"],
            "dev_tar": 100.0 * dev_rates["tar"],
            "lr": lr,
            "grad_norm": grad_norm,
            "dev_total": dev_total,
        }
        log.append(row)

        if dev_total < best_dev:
            best_dev = dev_total
            best_params = params
            epochs_since_improve = 0
        else:
            epochs_since_improve += 1
            if epochs_since_improve >= config.patience:
                lr *= config.lr_decay_factor
                epochs_since_improve = 0

    return best_params, log


LOG_COLUMNS = ("epoch", "l_gen", "l_ptr", "l_asr", "dev_far", "dev_tar", "lr", "grad_norm")


def write_train_log(path: str, log: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(LOG_COLUMNS)
        for row in log:
            writer.writerow(
                [row["epoch"]] + [repr(float(row[c])) for c in LOG_COLUMNS[1:]]
            )
