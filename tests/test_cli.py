import argparse
import json
import re
import subprocess
import sys
from dataclasses import MISSING, asdict, fields
from pathlib import Path

import pytest

from biaslab import decoder, losses, pointer, simulator, trainer
from biaslab.biaslist import read_bias_lists
from biaslab.cli import build_parser, main
from biaslab.pointer import init_params, load_params, save_params
from biaslab.simulator import SimConfig, make_inventories, read_corpus
from biaslab.trainer import TrainConfig


@pytest.fixture()
def workdir(tmp_path):
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


def run(argv):
    return main(argv)


def pipeline(tmp_path, sim, commons, jobs=1, epochs=2):
    corpus = str(tmp_path / "corpus.jsonl")
    lists = str(tmp_path / "lists.jsonl")
    ckpt = str(tmp_path / "ckpt.bin")
    hyps = str(tmp_path / "hyps.jsonl")
    report = str(tmp_path / "report.json")
    j = str(jobs)
    assert run(["simulate", "--config", sim, "--out", corpus, "--jobs", j]) == 0
    assert run(["make-biaslists", "--corpus", corpus, "--common-words", commons,
                "--n-distractors", "4", "--seed", "1", "--out", lists, "--jobs", j]) == 0
    assert run(["train", "--corpus", corpus, "--biaslists", lists, "--mode", "two_loss",
                "--epochs", str(epochs), "--seed", "2", "--out", ckpt, "--jobs", j]) == 0
    assert run(["decode", "--corpus", corpus, "--ckpt", ckpt, "--biaslists", lists,
                "--mode", "unscaled", "--out", hyps, "--jobs", j]) == 0
    assert run(["score", "--refs", corpus, "--hyps", hyps, "--biaslists", lists,
                "--out", report, "--jobs", j]) == 0
    return corpus, lists, ckpt, hyps, report


def test_full_pipeline(workdir, capsys):
    tmp_path, sim, commons = workdir
    corpus, lists, ckpt, hyps, report = pipeline(tmp_path, sim, commons)
    out = capsys.readouterr().out
    assert "wrote 30 utterances" in out
    assert "wer,b_wer,u_wer,far,tar,u_we_b" in out
    payload = json.loads(Path(report).read_text())
    assert set(payload) >= {"wer", "b_wer", "u_wer", "far", "tar", "counts"}
    assert (tmp_path / "ckpt.bin.log.csv").exists()


def test_simulate_missing_config_names_path(tmp_path, capsys):
    code = run(["simulate", "--config", str(tmp_path / "nope.json"),
                "--out", str(tmp_path / "c.jsonl")])
    assert code == 2
    assert "nope.json" in capsys.readouterr().err


def test_simulate_condition_identical_when_shift_zero(workdir):
    tmp_path, sim, commons = workdir
    config = json.loads(Path(sim).read_text())
    config["domain_shift"] = 0.0
    flat = tmp_path / "flat.json"
    flat.write_text(json.dumps(config))
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert run(["simulate", "--config", str(flat), "--out", a]) == 0
    assert run(["simulate", "--config", str(flat), "--out", b, "--condition", "test"]) == 0
    a_bytes = Path(a).read_bytes()
    b_bytes = Path(b).read_bytes()
    assert a_bytes.replace(b'"condition": "train"', b'"condition": "test"') == b_bytes


def test_simulate_conditions_differ_when_shifted(workdir):
    tmp_path, sim, commons = workdir
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert run(["simulate", "--config", sim, "--out", a]) == 0
    assert run(["simulate", "--config", sim, "--out", b, "--condition", "test"]) == 0
    with open(a) as fa, open(b) as fb:
        assert fa.readlines()[1] != fb.readlines()[1]


def test_train_rejects_bad_alpha(workdir, capsys):
    tmp_path, sim, commons = workdir
    corpus = str(tmp_path / "corpus.jsonl")
    lists = str(tmp_path / "lists.jsonl")
    run(["simulate", "--config", sim, "--out", corpus])
    run(["make-biaslists", "--corpus", corpus, "--common-words", commons,
         "--n-distractors", "2", "--seed", "1", "--out", lists])
    code = run(["train", "--corpus", corpus, "--biaslists", lists, "--alpha", "1.5",
                "--epochs", "1", "--out", str(tmp_path / "ckpt.bin")])
    assert code == 2
    assert "alpha" in capsys.readouterr().err


def test_train_rejects_negative_seed(workdir, capsys):
    tmp_path, sim, commons = workdir
    corpus = str(tmp_path / "corpus.jsonl")
    lists = str(tmp_path / "lists.jsonl")
    run(["simulate", "--config", sim, "--out", corpus])
    run(["make-biaslists", "--corpus", corpus, "--common-words", commons, "--out", lists])
    ckpt = tmp_path / "ckpt.bin"
    code = run(["train", "--corpus", corpus, "--biaslists", lists, "--seed", "-1",
                "--epochs", "1", "--out", str(ckpt)])
    assert code == 2
    assert "seed must be in [0, inf), got -1" in capsys.readouterr().err
    assert not ckpt.exists()


def test_make_biaslists_rejects_a_negative_distractor_count(workdir, capsys):
    tmp_path, sim, commons = workdir
    corpus, lists = str(tmp_path / "corpus.jsonl"), tmp_path / "lists.jsonl"
    run(["simulate", "--config", sim, "--out", corpus])
    assert run(["make-biaslists", "--corpus", corpus, "--common-words", commons,
                "--n-distractors", "-1", "--out", str(lists)]) == 2
    assert "--n-distractors must be in [0, inf), got -1" in capsys.readouterr().err
    assert not lists.exists()


def test_training_flags_default_to_train_config(workdir, capsys):
    tmp_path, sim, commons = workdir
    corpus = str(tmp_path / "corpus.jsonl")
    lists = str(tmp_path / "lists.jsonl")
    run(["simulate", "--config", sim, "--out", corpus])
    run(["make-biaslists", "--corpus", corpus, "--common-words", commons, "--out", lists])
    capsys.readouterr()
    assert run(["train", "--corpus", corpus, "--biaslists", lists,
                "--out", str(tmp_path / "ckpt.bin"), "--print-config"]) == 0
    shown = json.loads(capsys.readouterr().out.splitlines()[0])
    assert asdict(TrainConfig()).items() <= shown.items()
    assert run(["sweep-alpha", "--train-corpus", corpus, "--test-corpus", corpus,
                "--train-biaslists", lists, "--test-biaslists", lists, "--alphas", "0.7",
                "--out", str(tmp_path / "sweep.csv"), "--print-config"]) == 0
    shown = json.loads(capsys.readouterr().out.splitlines()[0])
    defaults = asdict(TrainConfig())
    assert {key: shown[key] for key in ("lr", "epochs", "batch_size", "embed_dim")} == {
        key: defaults[key] for key in ("lr", "epochs", "batch_size", "embed_dim")}


def test_train_trace_writes_per_step_records(workdir):
    tmp_path, sim, commons = workdir
    corpus, lists, ckpt, _, _ = pipeline(tmp_path, sim, commons)
    trace = str(tmp_path / "trace.jsonl")
    assert run(["train", "--corpus", corpus, "--biaslists", lists, "--epochs", "1",
                "--seed", "2", "--out", ckpt, "--trace", trace]) == 0
    records = [json.loads(line) for line in Path(trace).read_text().splitlines()]
    assert records
    assert {"utt", "step", "p_gen", "l_gen", "l_ptr", "l_asr", "d_gate_pre"} <= set(records[0])
    assert len({r["utt"] for r in records}) == 30


def test_repeat_train_run_identical_checkpoint(workdir):
    tmp_path, sim, commons = workdir
    corpus, lists, ckpt, _, _ = pipeline(tmp_path, sim, commons)
    first = Path(ckpt).read_bytes()
    assert run(["train", "--corpus", corpus, "--biaslists", lists, "--mode", "two_loss",
                "--epochs", "2", "--seed", "2", "--out", ckpt]) == 0
    assert Path(ckpt).read_bytes() == first


def test_decode_biased_requires_checkpoint(workdir, capsys):
    tmp_path, sim, commons = workdir
    corpus = str(tmp_path / "corpus.jsonl")
    lists = str(tmp_path / "lists.jsonl")
    run(["simulate", "--config", sim, "--out", corpus])
    run(["make-biaslists", "--corpus", corpus, "--common-words", commons,
         "--n-distractors", "2", "--seed", "1", "--out", lists])
    code = run(["decode", "--corpus", corpus, "--biaslists", lists,
                "--mode", "unscaled", "--out", str(tmp_path / "h.jsonl")])
    assert code == 2
    assert "ckpt" in capsys.readouterr().err


def test_score_missing_hypotheses_is_runtime_error(workdir, capsys):
    tmp_path, sim, commons = workdir
    corpus, lists, ckpt, hyps, report = pipeline(tmp_path, sim, commons)
    lines = Path(hyps).read_text().splitlines(keepends=True)
    Path(hyps).write_text("".join(lines[:-3]))
    code = run(["score", "--refs", corpus, "--hyps", hyps, "--biaslists", lists,
                "--out", report])
    assert code == 1
    assert "missing" in capsys.readouterr().err


def test_score_rejects_hypotheses_that_repeat_an_id(workdir, capsys):
    tmp_path, sim, commons = workdir
    corpus, lists, ckpt, hyps, report = pipeline(tmp_path, sim, commons)
    lines = Path(hyps).read_text().splitlines(keepends=True)
    record = json.loads(lines[0])
    record["hyp_words"] = ["other", "words"]
    Path(hyps).write_text("".join(lines) + json.dumps(record) + "\n")
    capsys.readouterr()
    code = run(["score", "--refs", corpus, "--hyps", hyps, "--biaslists", lists,
                "--out", report])
    assert code == 1
    err = capsys.readouterr().err
    assert hyps in err and f"repeated hypothesis id {record['id']}" in err


def test_missing_bias_list_rejected_by_decode_score_and_sweep(workdir, capsys):
    tmp_path, sim, commons = workdir
    corpus, lists, ckpt, hyps, report = pipeline(tmp_path, sim, commons)
    lines = Path(lists).read_text().splitlines(keepends=True)
    dropped = json.loads(lines[0])["id"]
    short = str(tmp_path / "short.jsonl")
    Path(short).write_text("".join(lines[1:]))
    capsys.readouterr()
    commands = [
        ["decode", "--corpus", corpus, "--ckpt", ckpt, "--biaslists", short,
         "--mode", "unscaled", "--out", str(tmp_path / "h2.jsonl")],
        ["score", "--refs", corpus, "--hyps", hyps, "--biaslists", short,
         "--out", str(tmp_path / "r2.json")],
        ["sweep-alpha", "--train-corpus", corpus, "--test-corpus", corpus,
         "--train-biaslists", lists, "--test-biaslists", short, "--alphas", "0.7",
         "--epochs", "1", "--out", str(tmp_path / "s2.csv")],
    ]
    for argv in commands:
        assert run(argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert "no bias list" in err and dropped in err, argv[0]


@pytest.mark.parametrize("command", ["train", "decode", "sweep-alpha"])
def test_untokenizable_bias_word_names_list_file_and_utterance(workdir, capsys, command):
    tmp_path, sim, commons = workdir
    corpus, lists, ckpt, hyps, report = pipeline(tmp_path, sim, commons, epochs=1)
    records = [json.loads(line) for line in Path(lists).read_text().splitlines()]
    records[2]["words"].append("xyz")  # 'x' is in no word of the corpus
    bad = str(tmp_path / "bad_lists.jsonl")
    Path(bad).write_text("".join(json.dumps(record) + "\n" for record in records))
    out = str(tmp_path / "out")
    argv = {
        "train": ["train", "--corpus", corpus, "--biaslists", bad, "--epochs", "1",
                  "--out", out],
        "decode": ["decode", "--corpus", corpus, "--ckpt", ckpt, "--biaslists", bad,
                   "--mode", "unscaled", "--out", out],
        "sweep-alpha": ["sweep-alpha", "--train-corpus", corpus, "--test-corpus", corpus,
                        "--train-biaslists", lists, "--test-biaslists", bad, "--alphas", "0.7",
                        "--epochs", "1", "--out", out],
    }[command]
    capsys.readouterr()
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert f"{bad}: utterance {records[2]['id']}: bias word 'xyz' is not tokenizable" in err
    assert not Path(out).exists()


@pytest.mark.parametrize("edit, named", [
    (lambda trace, size: trace[-1].__setitem__(0, 999), "(step) must be"),
    (lambda trace, size: trace[-1].__setitem__(3, 12345), "(emitted) must be a token id below"),
    (lambda trace, size: trace.extend([n, 0.0, False, 1] for n in range(len(trace), size + 1)),
     "lies past the reference's"),
], ids=["step_999", "token_12345", "past_the_end"])
def test_score_rejects_trace_entries_that_do_not_fit_the_reference(workdir, capsys, edit,
                                                                    named):
    tmp_path, sim, commons = workdir
    corpus, lists, ckpt, hyps, report = pipeline(tmp_path, sim, commons, epochs=1)
    _, utterances, _ = read_corpus(corpus)
    records = [json.loads(line) for line in Path(hyps).read_text().splitlines()]
    edit(records[1]["trace"], utterances[1].ref.size)
    Path(hyps).write_text("".join(json.dumps(record) + "\n" for record in records))
    capsys.readouterr()
    code = run(["score", "--refs", corpus, "--hyps", hyps, "--biaslists", lists,
                "--out", str(tmp_path / "r2.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert f"{hyps}: hypothesis {records[1]['id']}: 'trace." in err and named in err


def test_fd_check_within_tolerance(capsys):
    assert run(["fd-check", "--seed", "11", "--dims", "4,6"]) == 0
    out = capsys.readouterr().out
    assert "max relative gradient error" in out
    assert "OK" in out


def test_fd_check_fails_above_tolerance(capsys):
    assert run(["fd-check", "--seed", "11", "--dims", "4,6", "--tol", "1e-12"]) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("flags, message", [
    (["--alpha", "1.5"], "alpha must be in (0, 1), got 1.5"),
    (["--alpha", "nan"], "alpha must be a finite number, got nan"),
    (["--utterances", "0"], "n_utterances must be in [1, inf), got 0"),
    (["--dims", "0,4"], "embed_dim must be in [1, inf), got 0"),
    (["--tol", "nan"], "--tol must be in [0, inf), got nan"),
    (["--tol", "-0.5"], "--tol must be in [0, inf), got -0.5"),
    (["--seed", "-1"], "seed must be in [0, inf), got -1"),
    (["--step", "0.01"], "--step must be in [1e-07, 0.001], got 0.01"),
], ids=["alpha-above-1", "alpha-nan", "no-utterances", "zero-dim", "tol-nan", "tol-negative",
        "negative-seed", "step-above-1e-3"])
def test_fd_check_bad_config_exits_2(capsys, flags, message):
    assert run(["fd-check", "--seed", "11", *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "OK" not in captured.out


def test_sweep_alpha_rows(workdir, capsys, monkeypatch):
    tmp_path, sim, commons = workdir
    corpus, lists, ckpt, hyps, report = pipeline(tmp_path, sim, commons)
    sweep = str(tmp_path / "sweep.csv")
    argv = ["sweep-alpha", "--train-corpus", corpus, "--test-corpus", corpus,
            "--train-biaslists", lists, "--test-biaslists", lists,
            "--alphas", "0.3,0.7", "--seeds", "0,1", "--epochs", "1"]
    prepare, prepared = trainer.prepare_batch, []
    monkeypatch.setattr(trainer, "prepare_batch",
                        lambda *args: prepared.append(args) or prepare(*args))
    code = run([*argv, "--out", sweep])
    assert code == 0
    assert len(prepared) == 1  # one prepared and packed training corpus serves every cell
    rows = Path(sweep).read_text().strip().splitlines()
    assert rows[0] == "alpha,seed,wer,far,u_we_b,tar,b_wer"
    assert len(rows) == 5

    # the same CSV bytes as training each cell on its own with trainer.train
    monkeypatch.undo()
    vocab, train_corpus, _ = read_corpus(corpus)
    train_lists = read_bias_lists(lists)
    separate = {(alpha, seed): trainer.train(train_corpus, train_lists, vocab,
                                             TrainConfig(alpha=alpha, seed=seed, epochs=1))
                for alpha in (0.3, 0.7) for seed in (0, 1)}
    monkeypatch.setattr(trainer, "fit",
                        lambda examples, config, keep_log: separate[config.alpha, config.seed])
    assert run([*argv, "--out", str(tmp_path / "separate.csv")]) == 0
    assert Path(sweep).read_bytes() == (tmp_path / "separate.csv").read_bytes()


def test_capitalised_corpus_and_lists_score_as_lowercase(workdir):
    tmp_path, sim, commons = workdir
    corpus, lists, ckpt, hyps, report = pipeline(tmp_path, sim, commons)

    def recase(src, dst, key, change):
        with open(src) as fh, open(dst, "w") as out:
            for line in fh:
                record = json.loads(line)
                if key in record:
                    record[key] = [change(word) for word in record[key]]
                out.write(json.dumps(record, sort_keys=True) + "\n")

    upper = {name: str(tmp_path / f"upper_{name}") for name in ("corpus", "lists", "hyps",
                                                                "report")}
    recase(corpus, upper["corpus"], "ref_words", str.upper)
    recase(lists, upper["lists"], "words", str.capitalize)
    assert run(["decode", "--corpus", upper["corpus"], "--ckpt", ckpt, "--biaslists",
                upper["lists"], "--mode", "unscaled", "--out", upper["hyps"]]) == 0
    assert run(["score", "--refs", upper["corpus"], "--hyps", upper["hyps"], "--biaslists",
                upper["lists"], "--out", upper["report"]]) == 0
    assert Path(upper["hyps"]).read_bytes() == Path(hyps).read_bytes()
    assert Path(upper["report"]).read_bytes() == Path(report).read_bytes()


def test_print_config_echoes_json(workdir):
    tmp_path, sim, commons = workdir
    cases = [
        (["simulate", "--config", sim, "--out", str(tmp_path / "corpus.jsonl")],
         {"seed": 9, "condition": "train"}),
        (["fd-check", "--seed", "1"], {"seed": 1}),
    ]
    for argv, expected in cases:
        runs = [subprocess.run([sys.executable, "-m", "biaslab", *argv, "--print-config"],
                               capture_output=True, text=True) for _ in range(2)]
        assert runs[0].returncode == 0
        assert runs[0].stdout == runs[1].stdout  # the same bytes on every run
        config = json.loads(runs[0].stdout.splitlines()[0])
        assert "handler" not in config
        assert expected.items() <= config.items()


def test_print_config_echoes_a_float_field_given_as_an_integer_as_a_float(workdir, capsys):
    tmp_path, sim, _ = workdir
    config = json.loads(Path(sim).read_text())
    config.update(base_accuracy_common=1, domain_shift=0)
    Path(sim).write_text(json.dumps(config))
    assert run(["simulate", "--config", sim, "--out", str(tmp_path / "corpus.jsonl"),
                "--print-config"]) == 0
    echo = capsys.readouterr().out.splitlines()[0]
    assert '"base_accuracy_common": 1.0' in echo and '"domain_shift": 0.0' in echo


@pytest.mark.parametrize("change, named", [
    (lambda config: config.update(domian_shift=0.3), "'domian_shift'"),
    (lambda config: config.update(inventories={"n_common": 12, "n_rare": 8, "n_confsued": 4}),
     "'inventories.n_confsued'"),
    (lambda config: config.update(common_words="adeinor"), "'common_words' must be a list"),
    (lambda config: config.update(confusion_map=5), "'confusion_map' must be an object"),
    (lambda config: config.update(state_dim=True), "'state_dim' must be a number"),
    (lambda config: config.update(words_per_utterance=[0, 4]),
     "'words_per_utterance.0' must be in [1, inf), got 0"),
], ids=["top_level", "inventories", "string_for_a_list", "number_for_an_object",
        "boolean_for_a_number", "out_of_range"])
def test_simulate_rejects_unknown_config_keys(workdir, capsys, change, named):
    tmp_path, sim, commons = workdir
    config = json.loads(Path(sim).read_text())
    change(config)
    Path(sim).write_text(json.dumps(config))
    code = run(["simulate", "--config", sim, "--out", str(tmp_path / "corpus.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert "bad simulator config" in err and named in err


@pytest.mark.parametrize("config, named", [
    ([1, 2], "the config must be a JSON object"),
    ({"inventories": 5}, "'inventories' must be a JSON object"),
], ids=["top_level", "inventories"])
def test_simulate_rejects_config_that_is_not_an_object(tmp_path, capsys, config, named):
    sim = tmp_path / "sim.json"
    sim.write_text(json.dumps(config))
    assert run(["simulate", "--config", str(sim), "--out", str(tmp_path / "c.jsonl")]) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("sizes, named", [
    ({"n_common": 600000, "n_rare": 0}, "inventories.n_common must be at most 597780"),
    ({"n_common": 12, "n_rare": 708577}, "inventories.n_rare must be at most 708576"),
], ids=["common", "rare"])
def test_simulate_rejects_inventory_larger_than_its_pools(workdir, capsys, monkeypatch,
                                                          sizes, named):
    tmp_path, sim, commons = workdir
    config = json.loads(Path(sim).read_text())
    for key in ("common_words", "rare_words", "confusion_map"):
        del config[key]
    Path(sim).write_text(json.dumps({**config, "inventories": sizes}))

    def no_draws(*args):
        raise AssertionError("make_inventories started drawing")
    monkeypatch.setattr(simulator, "sub_rng", no_draws)
    assert run(["simulate", "--config", sim, "--out", str(tmp_path / "c.jsonl")]) == 2
    assert named in capsys.readouterr().err


def test_simulate_config_without_optional_keys_takes_sim_config_defaults(workdir, capsys):
    tmp_path, sim, commons = workdir
    required = {f.name for f in fields(SimConfig)
                if f.default is MISSING and f.default_factory is MISSING}
    given = {key: value for key, value in json.loads(Path(sim).read_text()).items()
             if key in required}
    Path(sim).write_text(json.dumps(given))
    assert run(["simulate", "--config", sim, "--out", str(tmp_path / "c.jsonl"),
                "--print-config"]) == 0
    shown = json.loads(capsys.readouterr().out.splitlines()[0])
    expected = SimConfig(**{**given, "words_per_utterance": tuple(given["words_per_utterance"])})
    assert json.loads(json.dumps(asdict(expected))).items() <= shown.items()


def test_simulate_seed_override_changes_corpus(workdir):
    tmp_path, sim, commons = workdir
    a, b = str(tmp_path / "a.jsonl"), str(tmp_path / "b.jsonl")
    assert run(["simulate", "--config", sim, "--out", a]) == 0
    assert run(["simulate", "--config", sim, "--out", b, "--seed", "777"]) == 0
    assert Path(a).read_text() != Path(b).read_text()


def test_simulate_writes_common_word_list(workdir):
    tmp_path, sim, commons = workdir
    corpus = str(tmp_path / "c.jsonl")
    exported = str(tmp_path / "exported_common.txt")
    assert run(["simulate", "--config", sim, "--out", corpus,
                "--write-common", exported]) == 0
    got = sorted(line.strip() for line in Path(exported).read_text().splitlines() if line.strip())
    expected = sorted(json.loads(Path(sim).read_text())["common_words"])
    assert got == expected


def test_module_entry_point(workdir):
    tmp_path, sim, commons = workdir
    corpus = str(tmp_path / "corpus.jsonl")
    proc = subprocess.run(
        [sys.executable, "-m", "biaslab", "simulate", "--config", sim, "--out", corpus],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "wrote 30 utterances" in proc.stdout


@pytest.mark.parametrize("vocab_delta, state_delta", [(-3, 0), (0, 2)])
def test_decode_rejects_checkpoint_that_does_not_fit(workdir, capsys, vocab_delta, state_delta):
    tmp_path, sim, commons = workdir
    corpus, lists, ckpt, hyps, report = pipeline(tmp_path, sim, commons, epochs=1)
    trained = load_params(ckpt)
    other = init_params(0, trained.vocab_size + vocab_delta, trained.embed_dim,
                        trained.state_dim + state_delta)
    save_params(other, ckpt)
    capsys.readouterr()
    code = run(["decode", "--corpus", corpus, "--ckpt", ckpt, "--biaslists", lists,
                "--mode", "unscaled", "--out", str(tmp_path / "h2.jsonl")])
    assert code == 2
    err = capsys.readouterr().err
    assert str(other.token_embed.shape) in err and str(other.w_query.shape) in err
    assert f"{trained.vocab_size} tokens" in err


def test_sweep_rejects_test_corpus_of_another_state_width(workdir, capsys):
    tmp_path, sim, commons = workdir
    corpus, lists, ckpt, hyps, report = pipeline(tmp_path, sim, commons, epochs=1)
    wider = tmp_path / "wider.json"
    wider.write_text(json.dumps({**json.loads(Path(sim).read_text()), "state_dim": 12}))
    test = str(tmp_path / "wide.jsonl")
    assert run(["simulate", "--config", str(wider), "--out", test]) == 0
    capsys.readouterr()
    code = run(["sweep-alpha", "--train-corpus", corpus, "--test-corpus", test,
                "--train-biaslists", lists, "--test-biaslists", lists, "--alphas", "0.7",
                "--epochs", "1", "--out", str(tmp_path / "s2.csv")])
    assert code == 2
    assert "decoder states of width 10" in capsys.readouterr().err


def test_sweep_rejects_test_corpus_with_reordered_tokens(workdir, capsys):
    tmp_path, sim, commons = workdir
    corpus, lists, ckpt, hyps, report = pipeline(tmp_path, sim, commons, epochs=1)
    lines = Path(corpus).read_text().splitlines(keepends=True)
    meta = json.loads(lines[0])
    tokens = meta["vocab"]
    tokens[1], tokens[2] = tokens[2], tokens[1]  # same size, another order
    test = str(tmp_path / "reordered.jsonl")
    Path(test).write_text(json.dumps(meta) + "\n" + "".join(lines[1:]))
    capsys.readouterr()
    code = run(["sweep-alpha", "--train-corpus", corpus, "--test-corpus", test,
                "--train-biaslists", lists, "--test-biaslists", lists, "--alphas", "0.7",
                "--epochs", "1", "--out", str(tmp_path / "s2.csv")])
    assert code == 2
    captured = capsys.readouterr()
    assert corpus in captured.err and test in captured.err and "token list" in captured.err
    assert "alpha=" not in captured.out


@pytest.mark.parametrize("flags, problem", [(["--alphas", "0.3,1.5"], "alpha"),
                                            (["--lr", "0"], "lr must be"),
                                            (["--lr", "nan"], "lr must be"),
                                            (["--seeds", "0,-1"], "seed")],
                         ids=["alpha_out_of_range", "zero_lr", "nan_lr", "negative_seed"])
def test_sweep_validates_every_cell_before_training(workdir, capsys, flags, problem):
    tmp_path, sim, commons = workdir
    corpus, lists, ckpt, hyps, report = pipeline(tmp_path, sim, commons, epochs=1)
    capsys.readouterr()
    sweep = tmp_path / "s2.csv"
    code = run(["sweep-alpha", "--train-corpus", corpus, "--test-corpus", corpus,
                "--train-biaslists", lists, "--test-biaslists", lists, "--epochs", "1",
                "--out", str(sweep), *flags])
    assert code == 2
    captured = capsys.readouterr()
    assert problem in captured.err
    assert "alpha=" not in captured.out and not sweep.exists()


# Every subcommand's flags besides -h/--help, --jobs and --print-config.  A flag
# added or removed is a change of the command-line interface and fails here.
FLAGS = {
    "simulate": "--config --out --condition --seed --write-common",
    "make-biaslists": "--corpus --common-words --n-distractors --seed --out",
    "train": "--corpus --biaslists --mode --alpha --epochs --seed --lr --lr-decay --patience "
             "--batch-size --embed-dim --out --log --trace",
    "decode": "--corpus --ckpt --biaslists --mode --out",
    "score": "--refs --hyps --biaslists --out --per-utt",
    "sweep-alpha": "--train-corpus --test-corpus --train-biaslists --test-biaslists --alphas "
                   "--seeds --epochs --lr --batch-size --embed-dim --decode-mode --out",
    "fd-check": "--seed --dims --utterances --alpha --mode --step --tol",
}


def test_every_choices_flag_offers_its_declared_tuple():
    (commands,) = [action.choices for action in build_parser()._actions
                   if isinstance(action, argparse._SubParsersAction)]
    offered = {(command, action.dest): tuple(action.choices)
               for command, sub in commands.items() for action in sub._actions
               if action.choices is not None}
    assert offered == {
        ("simulate", "condition"): simulator.CONDITIONS,
        ("train", "mode"): losses.MODES,
        ("decode", "mode"): decoder.DECODE_MODES,
        ("sweep-alpha", "decode_mode"): pointer.INTERPOLATION_MODES,
        ("fd-check", "mode"): (*losses.MODES, "both"),
    }
    assert decoder.DECODE_MODES == ("none", *pointer.INTERPOLATION_MODES)


def test_help_of_every_subcommand_lists_its_pinned_flags(capsys):
    with pytest.raises(SystemExit):
        run(["--help"])
    assert set(re.findall(r"\{(.*)\}", capsys.readouterr().out)[0].split(",")) == set(FLAGS)
    for command, flags in FLAGS.items():
        with pytest.raises(SystemExit) as exited:
            run([command, "--help"])
        assert exited.value.code == 0
        shown = set(re.findall(r"(?<![\w-])--?[a-z][\w-]*", capsys.readouterr().out))
        assert shown == {"-h", "--help", "--jobs", "--print-config", *flags.split()}, command
