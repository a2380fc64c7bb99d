"""The four workloads: seeded inputs, one timed job, and the checks on its output.

Every workload is a single-process closed loop: one caller runs a job, waits
for its result, checks it, and starts the next.  ``setup`` makes the inputs
from the seed and writes/reads them as files the way the CLI does; ``run`` is
the timed job; ``check`` judges one job's output outside the timed region.

train   ``trainer.train`` on the AC-4 toy corpus.  The losses layer (forward
        and backward) and the trainer do nearly all the work, decoding none,
        and ``jobs=1`` bypasses every parallel path.
decode  biased greedy decoding of a held-out test-condition set whose bias
        lists hold ~100 words drawn from a 300-word rare inventory, then
        align and score.  Trie, copy-module forward, decoder and metrics do
        the work, the losses layer none.
sweep   ``biaslab sweep-alpha`` over corpus and list files: AC-5's shape, 4
        cells on one worker.  The only workload through the CLI, file
        reading, ``parallel_map`` and the per-cell rebuilding of the same
        test tries.
fdcheck ``make_check_setup`` plus ``fd_check`` over AC-1's 20 instances in
        both modes: thousands of tiny ``evaluate`` calls bound by per-call
        overhead, the opposite of train's large batches.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field

from biaslab import (
    biaslist,
    biastrie,
    cli,
    decoder,
    harness,
    losses,
    metrics,
    pointer,
    simulator,
    trainer,
)

AC4_SEED = 3  # the seed AC-4 states its bounds for, and the default workload seed
INVENTORY_SEED = 100  # inventories of the AC-4 toy experiment
AC4_TRAIN = dict(mode=losses.TWO_LOSS, alpha=0.7, lr=0.3, epochs=8, batch_size=10,
                 embed_dim=16, jobs=1)
DECODE_CKPT_EPOCHS = 4  # fewest epochs at which long-list biasing beat no biasing when tuned
SWEEP_JOBS = 1  # at 2 (nproc) the time per job drifted by +-20 % between runs
SWEEP_ALPHAS = (0.3, 0.7)
SWEEP_EPOCHS = 1
AC1_INSTANCES = tuple((seed, e, d) for seed in range(10) for e, d in ((4, 6), (8, 8)))
AC1_TOLERANCE = 1e-4


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(chunk)
    return h.hexdigest()


def _file_bytes(*paths: str) -> list[bytes]:
    out = []
    for path in paths:
        with open(path, "rb") as fh:
            out.append(fh.read())
    return out


@dataclass
class Inputs:
    digest: str  # of everything set-up produced
    tokens: int  # reference token positions one job processes
    applied_examples: int  # example gradients one job's SGD applies
    data: dict = field(default_factory=dict)


@dataclass
class Output:
    digest: str
    data: dict = field(default_factory=dict)
    utt_s: list[float] | None = None  # per-utterance times, where the job has them


@dataclass
class Toy:
    vocab: object
    train: list
    test: list
    train_lists: dict
    test_lists: dict


def _lists(corpus, common, pool, n_distractors, seed) -> dict:
    """AC-4's per-utterance lists: own rare words plus seeded distractors.

    Distractors come from the rare words observed in the corpus, or from
    ``pool`` when given.
    """
    observed = biaslist.extract_rarewords([u.ref_words for u in corpus], set(common))
    candidates = observed if pool is None else set(pool)
    return {
        u.utt_id: biaslist.build_utterance_list(
            u.utt_id, set(u.ref_words) & observed, candidates, n_distractors, seed)
        for u in corpus
    }


def make_toy(seed: int, n_train: int, n_test: int, n_rare: int = 24, n_confused: int = 12,
             test_distractors: int = 10, test_from_inventory: bool = False) -> Toy:
    """The AC-4 toy experiment: a train split and a condition-shifted test split.

    With the defaults and seed 3 this is AC-4's corpus and lists exactly.
    """
    common, rare, confusion = simulator.make_inventories(40, n_rare, n_confused,
                                                         INVENTORY_SEED)
    config = simulator.SimConfig(
        seed=seed, n_utterances=n_train + n_test, words_per_utterance=(3, 6),
        common_words=common, rare_words=rare, rare_word_rate=0.3,
        base_accuracy_common=0.95, base_accuracy_rare=0.75, confusion_map=confusion,
        state_dim=24, domain_shift=0.3,
    )
    vocab = simulator.build_sim_vocab(config)
    full = simulator.gen_corpus(config, "train")
    train = full[:n_train]
    test = simulator.render_condition(full[n_train:], "test", config)
    return Toy(
        vocab, train, test,
        _lists(train, common, None, 10, seed),
        _lists(test, common, rare if test_from_inventory else None, test_distractors, seed + 1),
    )


def _write(workdir: str, toy: Toy, seed: int) -> dict[str, str]:
    paths = {name: os.path.join(workdir, f"{name}.jsonl")
             for name in ("train", "test", "train_lists", "test_lists")}
    simulator.write_corpus(paths["train"], toy.train, toy.vocab, seed, "train")
    simulator.write_corpus(paths["test"], toy.test, toy.vocab, seed, "test")
    biaslist.write_bias_lists(paths["train_lists"], toy.train_lists)
    biaslist.write_bias_lists(paths["test_lists"], toy.test_lists)
    return paths


def _read(paths: dict[str, str]) -> Toy:
    vocab, train, _ = simulator.read_corpus(paths["train"])
    _, test, _ = simulator.read_corpus(paths["test"])
    return Toy(vocab, train, test, biaslist.read_bias_lists(paths["train_lists"]),
               biaslist.read_bias_lists(paths["test_lists"]))


def _tokens(corpus) -> int:
    return sum(u.ref.size for u in corpus)


def _train_split(n: int) -> int:
    return n - max(1, n // 10)  # trainer.train holds out a tenth for dev


def decode_corpus(toy: Toy, params, mode: str) -> tuple[metrics.ScoreReport, str, list[float]]:
    """Decode and score the test split; returns the report, a digest of the
    hypotheses and gate traces, and each utterance's build_trie + decode +
    align time."""
    alignments, wordsets, traces, masks, records, times = [], [], [], [], [], []
    for utt in toy.test:
        words = toy.test_lists[utt.utt_id]
        start = time.perf_counter()
        tree = biastrie.build_trie(toy.vocab, words) if mode != "none" else None
        hyp, trace = decoder.greedy_decode(utt, toy.vocab, params, tree, mode)
        alignments.append(metrics.align(utt.ref_words, hyp))
        times.append(time.perf_counter() - start)
        wordset = set(words)
        wordsets.append(wordset)
        traces.append(trace)
        masks.append(losses.bias_positions(utt.ref, wordset))
        records.append([utt.utt_id, hyp, [[e.step, e.p_gen, e.valid_nonempty, e.emitted]
                                          for e in trace]])
    report, _ = metrics.score(alignments, wordsets, traces, masks)
    return report, _sha(json.dumps(records).encode()), times


def _quality(biased: metrics.ScoreReport, plain: metrics.ScoreReport) -> dict:
    return {"b_wer": biased.b_wer, "b_wer_unbiased": plain.b_wer, "u_wer": biased.u_wer,
            "u_wer_unbiased": plain.u_wer, "far": biased.far, "tar": biased.tar}


class Train:
    name = "train"

    def setup(self, seed: int, workdir: str) -> Inputs:
        paths = _write(workdir, make_toy(seed, 500, 200), seed)
        toy = _read(paths)
        epochs = AC4_TRAIN["epochs"]
        return Inputs(_sha(*_file_bytes(*paths.values())), _tokens(toy.train) * epochs,
                      _train_split(len(toy.train)) * epochs,
                      {"toy": toy, "seed": seed, "ckpt": os.path.join(workdir, "train.ckpt")})

    def run(self, inputs: Inputs) -> Output:
        toy = inputs.data["toy"]
        config = trainer.TrainConfig(seed=inputs.data["seed"], **AC4_TRAIN)
        params, log = trainer.train(toy.train, toy.train_lists, toy.vocab, config)
        pointer.save_params(params, inputs.data["ckpt"])
        trainer.write_train_log(inputs.data["ckpt"] + ".log.csv", log)
        ckpt = _file_bytes(inputs.data["ckpt"], inputs.data["ckpt"] + ".log.csv")
        return Output(_sha(*ckpt), {"params": params})

    def check(self, inputs: Inputs, output: Output) -> tuple[dict, list[str]]:
        """AC-4's bounds where AC-4 states them (seed 3); elsewhere biasing
        must lower B-WER, and whether AC-4's bounds also hold is reported."""
        toy = inputs.data["toy"]
        plain, _, _ = decode_corpus(toy, None, "none")
        start = time.perf_counter()
        biased, _, _ = decode_corpus(toy, output.data["params"], "unscaled")
        quality = _quality(biased, plain)
        quality["check_decode_s"] = time.perf_counter() - start
        relative = 100.0 * (plain.b_wer - biased.b_wer) / plain.b_wer
        rise = biased.u_wer - plain.u_wer
        quality["ac4_bounds_hold"] = relative >= 30.0 and rise <= 2.0
        problems = []
        if inputs.data["seed"] == AC4_SEED and not quality["ac4_bounds_hold"]:
            problems.append(f"AC-4 bounds missed: B-WER {relative:.1f}% relative "
                            f"(need >= 30), U-WER rise {rise:.2f} points (need <= 2)")
        if not biased.b_wer < plain.b_wer:
            problems.append(f"biased B-WER {biased.b_wer} not below unbiased {plain.b_wer}")
        return quality, problems


class Decode:
    name = "decode"

    def setup(self, seed: int, workdir: str) -> Inputs:
        paths = _write(workdir, make_toy(seed, 500, 200, n_rare=300, n_confused=150,
                                         test_distractors=100, test_from_inventory=True),
                       seed)
        toy = _read(paths)
        config = trainer.TrainConfig(seed=seed, **{**AC4_TRAIN, "epochs": DECODE_CKPT_EPOCHS})
        params, _ = trainer.train(toy.train, toy.train_lists, toy.vocab, config)
        ckpt = os.path.join(workdir, "decode.ckpt")
        pointer.save_params(params, ckpt)
        return Inputs(_sha(*_file_bytes(*paths.values(), ckpt)), _tokens(toy.test), 0,
                      {"toy": toy, "params": pointer.load_params(ckpt)})

    def run(self, inputs: Inputs) -> Output:
        report, digest, times = decode_corpus(inputs.data["toy"], inputs.data["params"],
                                              "unscaled")
        return Output(digest, {"report": report}, times)

    def check(self, inputs: Inputs, output: Output) -> tuple[dict, list[str]]:
        if "plain" not in inputs.data:
            inputs.data["plain"], _, _ = decode_corpus(inputs.data["toy"], None, "none")
        plain, biased = inputs.data["plain"], output.data["report"]
        problems = []
        if not biased.b_wer < plain.b_wer:
            problems.append(f"biased B-WER {biased.b_wer} not below unbiased {plain.b_wer}")
        return _quality(biased, plain), problems


class Sweep:
    """AC-5's shape: one fixed corpus (AC-4's seed), cells over (alpha,
    training seed); the workload seed picks the training seeds.  Sweep time
    does not scale with corpus tokens, so a fixed corpus keeps ``tok_per_s``
    from moving with the seed's corpus size."""

    name = "sweep"

    def setup(self, seed: int, workdir: str) -> Inputs:
        toy = make_toy(AC4_SEED, 100, 50)
        paths = _write(workdir, toy, AC4_SEED)
        seeds = (seed, seed + 1)
        cells = len(SWEEP_ALPHAS) * len(seeds)
        argv = [
            "sweep-alpha",
            "--train-corpus", paths["train"], "--test-corpus", paths["test"],
            "--train-biaslists", paths["train_lists"], "--test-biaslists", paths["test_lists"],
            "--alphas", ",".join(str(a) for a in SWEEP_ALPHAS),
            "--seeds", ",".join(str(s) for s in seeds),
            "--epochs", str(SWEEP_EPOCHS), "--jobs", str(SWEEP_JOBS),
            "--out", os.path.join(workdir, "sweep.csv"),
        ]
        tokens = cells * (_tokens(toy.train) * SWEEP_EPOCHS + _tokens(toy.test))
        applied = cells * SWEEP_EPOCHS * _train_split(len(toy.train))
        return Inputs(_sha(*_file_bytes(*paths.values())), tokens, applied,
                      {"argv": argv, "cells": cells, "workdir": workdir})

    def run(self, inputs: Inputs) -> Output:
        argv = inputs.data["argv"]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(argv)
        csv_bytes = _file_bytes(argv[-1])[0] if code == 0 else b""
        # the CLI echoes output paths, which differ between set-ups
        printed = stdout.getvalue().replace(inputs.data["workdir"], "<workdir>")
        return Output(_sha(csv_bytes, printed.encode()),
                      {"code": code, "csv": csv_bytes.decode()})

    def check(self, inputs: Inputs, output: Output) -> tuple[dict, list[str]]:
        if output.data["code"] != 0:
            return {}, [f"sweep-alpha exited {output.data['code']}"]
        rows = list(csv.DictReader(io.StringIO(output.data["csv"])))
        problems = []
        if len(rows) != inputs.data["cells"]:
            problems.append(f"{len(rows)} sweep rows, expected {inputs.data['cells']}")

        def median_of(key: str) -> float:
            return statistics.median(float(r[key]) for r in rows if r[key] != "")

        return {key: median_of(key) for key in ("b_wer", "far", "tar")}, problems


class FdCheck:
    """AC-1's 20 instances at every seed: AC-1 states its 1e-4 tolerance for
    exactly these, so the workload seed does not change the inputs."""

    name = "fdcheck"

    def setup(self, seed: int, workdir: str) -> Inputs:
        tokens = 0
        chunks = []
        for inst_seed, embed_dim, state_dim in AC1_INSTANCES:
            params, batch, vocab = harness.make_check_setup(inst_seed, embed_dim, state_dim)
            if vocab.size > 16 or any(len(ex.tokens) > 12 for ex in batch):
                raise ValueError(f"instance {inst_seed} exceeds AC-1's size limits")
            n_params = params.token_embed.size + params.w_query.size + params.w_gate.size + 1
            # one fd_check: a gradient pass plus two evaluations per parameter
            tokens += len(losses.MODES) * (2 * n_params + 1) * sum(len(ex.tokens) for ex in batch)
            chunks.append(repr((vocab.tokens, [ex.tokens for ex in batch],
                                params.token_embed.tolist(), params.b_gate)).encode())
        return Inputs(_sha(*chunks), tokens, 0)

    def run(self, inputs: Inputs) -> Output:
        errors = []
        for inst_seed, embed_dim, state_dim in AC1_INSTANCES:
            params, batch, _ = harness.make_check_setup(inst_seed, embed_dim, state_dim)
            for mode in losses.MODES:
                errors.append(losses.fd_check(params, batch, mode, 0.7, 1e-5))
        return Output(_sha(repr(errors).encode()), {"errors": errors})

    def check(self, inputs: Inputs, output: Output) -> tuple[dict, list[str]]:
        worst = max(output.data["errors"])
        problems = [] if worst < AC1_TOLERANCE else [
            f"max relative gradient error {worst:.3e} not below {AC1_TOLERANCE:.0e}"]
        return {"fd_max_rel_err": worst}, problems


WORKLOADS = {w.name: w for w in (Train(), Decode(), Sweep(), FdCheck())}
