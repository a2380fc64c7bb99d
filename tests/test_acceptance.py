"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest -v tests/test_acceptance.py`` to get one pass/fail line
per criterion.  Each test prints its measured values for inspection.
"""

import json
import time
from pathlib import Path
from statistics import median

import numpy as np
import pytest

from biaslab import losses
from biaslab.biastrie import build_trie, build_tries
from biaslab.cli import main as cli_main
from biaslab.decoder import decode_corpus, score_corpus
from biaslab.harness import make_check_setup
from biaslab.losses import fd_check, gate_rates
from biaslab.metrics import align, score
from biaslab.pointer import StepOutput, interpolate
from biaslab.simulator import (
    SimConfig,
    build_sim_vocab,
    gen_corpus,
    make_inventories,
)
from biaslab.tokenizer import build_vocab, tokenize_word
from biaslab.trainer import TrainConfig, prepare_batch, sweep, train
from conftest import make_lists, scorer_fixture, toy_experiment


def decode_and_score(corpus, vocab, lists, params, mode):
    trees = None
    if mode != "none":
        trees = {u.utt_id: build_trie(vocab, lists[u.utt_id]) for u in corpus}
    report, _ = score_corpus(corpus, lists, decode_corpus(corpus, vocab, params, trees, mode))
    return report


def test_ac1_gradient_correctness_on_twenty_instances():
    start = time.perf_counter()
    worst = 0.0
    checked = 0
    for seed in range(10):
        for embed_dim, state_dim in ((4, 6), (8, 8)):
            params, batch, vocab = make_check_setup(seed, embed_dim, state_dim)
            assert vocab.size <= 16
            assert all(len(ex.tokens) <= 12 for ex in batch)
            for mode in losses.MODES:
                err = fd_check(params, batch, mode, 0.7, 1e-5)
                worst = max(worst, err)
            checked += 1
    elapsed = time.perf_counter() - start
    print(f"AC-1: {checked} instances, max relative error {worst:.3e}, {elapsed:.1f}s")
    assert checked >= 20
    assert worst < 1e-4
    assert elapsed < 10.0


def test_ac2_interpolation_law():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_sum = 0.0
    for _ in range(10_000):
        vocab_size = int(rng.integers(3, 24))
        p_mdl = rng.dirichlet(np.ones(vocab_size))
        k = int(rng.integers(1, vocab_size))
        members = np.sort(rng.choice(vocab_size, size=k, replace=False))
        p_ptr = np.zeros(vocab_size)
        p_ptr[members] = rng.dirichlet(np.ones(k))
        gate = float(rng.uniform())
        step = StepOutput(p_ptr, gate, tuple(int(m) for m in members))
        out = interpolate(p_mdl, step, "scaled")
        worst_sum = max(worst_sum, abs(out.sum() - 1.0))

        closed = StepOutput(p_ptr, 0.0, step.valid)
        assert np.max(np.abs(interpolate(p_mdl, closed, "scaled") - p_mdl)) <= 1e-15
        assert np.max(np.abs(interpolate(p_mdl, closed, "unscaled") - p_mdl)) <= 1e-15
        open_ = StepOutput(p_ptr, 1.0, step.valid)
        assert np.max(np.abs(interpolate(p_mdl, open_, "scaled") - p_ptr)) <= 1e-15
    elapsed = time.perf_counter() - start
    print(f"AC-2: worst scaled-sum deviation {worst_sum:.3e}, {elapsed:.1f}s")
    assert worst_sum < 1e-9
    assert elapsed < 5.0


def oracle_valid(word_tokens, emitted):
    out = set()
    for toks in word_tokens:
        for length in range(0, min(len(emitted), len(toks) - 1) + 1):
            if length == 0 or tuple(emitted[-length:]) == tuple(toks[:length]):
                out.add(toks[length])
    return out


def test_ac3_trie_matches_bruteforce_scan():
    start = time.perf_counter()
    rng = np.random.default_rng(99)
    alphabet = "abc"
    for _ in range(200):
        n_words = int(rng.integers(1, 51))
        words = set()
        while len(words) < n_words:
            length = int(rng.integers(1, 9))
            words.add("".join(alphabet[int(rng.integers(3))] for _ in range(length)))
        words = sorted(words)
        vocab = build_vocab(words)
        word_tokens = [tuple(tokenize_word(vocab, w)) for w in words]
        tree = build_trie(vocab, words)
        node = 0
        emitted = []
        for _ in range(25):
            assert set(tree.valid(node)[0]) == oracle_valid(word_tokens, emitted)
            tok = int(rng.integers(vocab.size))
            node = tree.advance(node, tok)
            emitted.append(tok)
        assert set(tree.valid(node)[0]) == oracle_valid(word_tokens, emitted)
    elapsed = time.perf_counter() - start
    print(f"AC-3: 200 instances checked, {elapsed:.1f}s")
    assert elapsed < 5.0


def test_ac4_biasing_improves_biased_errors_end_to_end():
    start = time.perf_counter()
    vocab, train_corpus, test_corpus, train_lists, test_lists = toy_experiment(
        seed=3, n_train=500, n_test=200, domain_shift=0.3, n_distractors=10
    )
    config = TrainConfig(mode="two_loss", alpha=0.7, lr=0.3, epochs=8,
                         batch_size=10, seed=3, embed_dim=16)
    params, _ = train(train_corpus, train_lists, vocab, config)
    plain = decode_and_score(test_corpus, vocab, test_lists, None, "none")
    biased = decode_and_score(test_corpus, vocab, test_lists, params, "unscaled")
    elapsed = time.perf_counter() - start
    relative = 100.0 * (plain.b_wer - biased.b_wer) / plain.b_wer
    print(
        f"AC-4: B-WER {plain.b_wer:.2f} -> {biased.b_wer:.2f} ({relative:.1f}% rel), "
        f"U-WER {plain.u_wer:.2f} -> {biased.u_wer:.2f}, {elapsed:.0f}s"
    )
    assert relative >= 30.0
    assert biased.u_wer - plain.u_wer <= 2.0
    assert elapsed < 120.0


def test_ac5_alpha_sweep_reproduces_acceptance_trend():
    start = time.perf_counter()
    vocab, train_corpus, test_corpus, train_lists, test_lists = toy_experiment(
        seed=3, n_train=500, n_test=200, domain_shift=0.3, n_distractors=10
    )
    alphas, seeds = (0.1, 0.3, 0.5, 0.7), (0, 1, 2)
    configs = [TrainConfig(mode="two_loss", alpha=alpha, lr=0.3, epochs=8,
                           batch_size=10, seed=seed, embed_dim=16)
               for alpha in alphas for seed in seeds]
    examples = losses.pack(prepare_batch(vocab, train_corpus, train_lists,
                                         build_tries(vocab, train_lists)))
    trees = {u.utt_id: build_trie(vocab, test_lists[u.utt_id]) for u in test_corpus}
    reports = list(sweep(examples, test_corpus, vocab, trees, test_lists, configs, "unscaled"))
    cells = {alpha: reports[i * len(seeds):(i + 1) * len(seeds)]
             for i, alpha in enumerate(alphas)}
    med_far = {alpha: median(r.far for r in cells[alpha]) for alpha in alphas}
    med_tar = {alpha: median(r.tar for r in cells[alpha]) for alpha in alphas}
    med_bwer = {alpha: median(r.b_wer for r in cells[alpha]) for alpha in alphas}
    elapsed = time.perf_counter() - start
    print(f"AC-5: FAR medians {[round(med_far[a], 3) for a in alphas]}, "
          f"TAR medians {[round(med_tar[a], 2) for a in alphas]}, "
          f"B-WER medians {[round(med_bwer[a], 2) for a in alphas]}, {elapsed:.0f}s")
    for low, high in zip(alphas, alphas[1:]):
        assert med_tar[low] <= med_tar[high]
        assert med_far[low] <= med_far[high]
    assert med_bwer[0.7] < med_bwer[0.1]
    assert elapsed < 600.0


def stall_setup(seed=5):
    common, rare, _ = make_inventories(40, 24, 12, seed=100)
    config = SimConfig(
        seed=seed,
        n_utterances=400,
        words_per_utterance=(3, 6),
        common_words=common,
        rare_words=rare,
        rare_word_rate=0.3,
        base_accuracy_common=1.0,
        base_accuracy_rare=1.0,
        confusion_map={},
        state_dim=24,
        domain_shift=0.3,
    )
    vocab = build_sim_vocab(config)
    corpus = gen_corpus(config)
    lists = make_lists(corpus, common, 10, seed)
    return vocab, corpus, lists


def test_ac6_already_fit_regime_stalls_recognizer_loss():
    start = time.perf_counter()
    vocab, corpus, lists = stall_setup()
    norms = {}
    for mode in losses.MODES:
        config = TrainConfig(mode=mode, alpha=0.7, lr=0.3, epochs=1,
                             batch_size=10, seed=5, embed_dim=16)
        _, log = train(corpus, lists, vocab, config)
        norms[mode] = log[0]["grad_norm"]
    ratio = norms["asr"] / norms["two_loss"]

    full_asr = TrainConfig(mode="asr", alpha=0.7, lr=0.3, epochs=5,
                           batch_size=10, seed=5, embed_dim=16)
    params_asr, _ = train(corpus, lists, vocab, full_asr)
    batch = prepare_batch(vocab, corpus, lists, build_tries(vocab, lists))
    asr_rates = gate_rates(params_asr, batch)

    full_two = TrainConfig(mode="two_loss", alpha=0.7, lr=0.3, epochs=5,
                           batch_size=10, seed=5, embed_dim=16)
    params_two, _ = train(corpus, lists, vocab, full_two)
    two_rates = gate_rates(params_two, batch)
    elapsed = time.perf_counter() - start
    print(
        f"AC-6: epoch-1 grad norms asr {norms['asr']:.3e} vs two_loss "
        f"{norms['two_loss']:.3e} (ratio {ratio:.2e}); asr mean gate on bias "
        f"positions {asr_rates['mean_gate_on_mask']:.2e}; two_loss TAR "
        f"{two_rates['tar']:.3f}; {elapsed:.0f}s"
    )
    assert ratio < 1e-3
    assert asr_rates["mean_gate_on_mask"] < 0.1
    assert two_rates["tar"] > 0.8
    assert elapsed < 120.0


def test_ac7_scorer_matches_hand_computed_fixture():
    cases = scorer_fixture()
    assert len(cases) >= 10
    kinds_covered = set()
    alignments, lists = [], []
    for ref, hyp, bias, expected in cases:
        alignments.append(align(ref, hyp))
        lists.append(bias)
        if expected["subs"]:
            kinds_covered.add("substitution")
        if expected["dels"]:
            kinds_covered.add("deletion")
        if expected["ins"] and expected["bias_errors"]:
            kinds_covered.add("bias-insertion")
        if expected["ins"] and expected["unbias_errors"]:
            kinds_covered.add("plain-insertion")
    assert kinds_covered == {"substitution", "deletion", "bias-insertion", "plain-insertion"}

    report, breakdown = score(alignments, lists)
    for utt, (_, _, _, expected) in zip(breakdown, cases):
        assert utt["substitutions"] == expected["subs"]
        assert utt["deletions"] == expected["dels"]
        assert utt["insertions"] == expected["ins"]
        assert utt["bias_errors"] == expected["bias_errors"]
        assert utt["unbias_errors"] == expected["unbias_errors"]
        assert utt["ref_words"] == expected["ref_words"]
        assert utt["ref_bias_words"] == expected["ref_bias_words"]
        assert utt["u_we_b"] == expected["u_we_b"]
    counts = report.counts
    assert counts["bias_errors"] == sum(c[3]["bias_errors"] for c in cases)
    assert counts["unbias_errors"] == sum(c[3]["unbias_errors"] for c in cases)
    assert counts["errors_total"] == counts["bias_errors"] + counts["unbias_errors"]
    print(f"AC-7: {len(cases)} crafted utterances, exact count match")


@pytest.fixture()
def cli_workspace(tmp_path):
    common, rare, confusion = make_inventories(12, 8, 4, seed=50)
    config = {
        "seed": 9,
        "n_utterances": 30,
        "words_per_utterance": [2, 4],
        "common_words": common,
        "rare_words": rare,
        "rare_word_rate": 0.4,
        "base_accuracy_common": 0.95,
        "base_accuracy_rare": 0.75,
        "confusion_map": confusion,
        "state_dim": 10,
        "domain_shift": 0.2,
    }
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps(config))
    commons = tmp_path / "common.txt"
    commons.write_text("\n".join(common) + "\n")
    return tmp_path, str(sim), str(commons)


def test_ac8_cli_subcommands_are_deterministic(cli_workspace, capsys):
    tmp_path, sim, commons = cli_workspace

    def run_all(tag, jobs):
        out = {name: str(tmp_path / f"{name}.{tag}") for name in
               ("corpus", "lists", "ckpt", "log", "hyps", "report", "sweep")}
        j = str(jobs)
        assert cli_main(["simulate", "--config", sim, "--out", out["corpus"],
                         "--jobs", j]) == 0
        assert cli_main(["make-biaslists", "--corpus", out["corpus"],
                         "--common-words", commons, "--n-distractors", "4",
                         "--seed", "1", "--out", out["lists"], "--jobs", j]) == 0
        assert cli_main(["train", "--corpus", out["corpus"], "--biaslists", out["lists"],
                         "--mode", "two_loss", "--epochs", "2", "--seed", "2",
                         "--out", out["ckpt"], "--log", out["log"], "--jobs", j]) == 0
        assert cli_main(["decode", "--corpus", out["corpus"], "--ckpt", out["ckpt"],
                         "--biaslists", out["lists"], "--mode", "unscaled",
                         "--out", out["hyps"], "--jobs", j]) == 0
        assert cli_main(["score", "--refs", out["corpus"], "--hyps", out["hyps"],
                         "--biaslists", out["lists"], "--out", out["report"],
                         "--jobs", j]) == 0
        assert cli_main(["sweep-alpha", "--train-corpus", out["corpus"],
                         "--test-corpus", out["corpus"],
                         "--train-biaslists", out["lists"],
                         "--test-biaslists", out["lists"], "--alphas", "0.7",
                         "--seeds", "0", "--epochs", "1", "--out", out["sweep"],
                         "--jobs", j]) == 0
        capsys.readouterr()
        assert cli_main(["fd-check", "--seed", "11", "--dims", "4,6", "--jobs", j]) == 0
        fd_out = capsys.readouterr().out
        return out, fd_out

    runs = {}
    for jobs in (1, 4):
        for attempt in ("a", "b"):
            runs[(jobs, attempt)] = run_all(f"j{jobs}{attempt}", jobs)

    reference_files, reference_fd = runs[(1, "a")]
    for key, (files, fd_out) in runs.items():
        assert fd_out == reference_fd, key
        for name, path in files.items():
            got = Path(path).read_bytes()
            want = Path(reference_files[name]).read_bytes()
            assert got == want, (key, name)
    print("AC-8: all subcommands byte-identical across repeats and --jobs 1/4")
