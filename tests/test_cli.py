import json
import subprocess
import sys
from pathlib import Path

import pytest

from biaslab.cli import main
from biaslab.pointer import init_params, load_params, save_params
from biaslab.simulator import make_inventories


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
    (["--alpha", "nan"], "alpha must be in (0, 1), got nan"),
    (["--utterances", "0"], "utterance counts must be positive"),
    (["--dims", "0,4"], "dimensions must be positive"),
], ids=["alpha-above-1", "alpha-nan", "no-utterances", "zero-dim"])
def test_fd_check_bad_config_exits_2(capsys, flags, message):
    assert run(["fd-check", "--seed", "11", *flags]) == 2
    captured = capsys.readouterr()
    assert message in captured.err and "OK" not in captured.out


def test_sweep_alpha_rows(workdir, capsys):
    tmp_path, sim, commons = workdir
    corpus, lists, ckpt, hyps, report = pipeline(tmp_path, sim, commons)
    sweep = str(tmp_path / "sweep.csv")
    code = run(["sweep-alpha", "--train-corpus", corpus, "--test-corpus", corpus,
                "--train-biaslists", lists, "--test-biaslists", lists,
                "--alphas", "0.3,0.7", "--seeds", "0", "--epochs", "1",
                "--out", sweep])
    assert code == 0
    rows = Path(sweep).read_text().strip().splitlines()
    assert rows[0] == "alpha,seed,wer,far,u_we_b,tar,b_wer"
    assert len(rows) == 3


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
                                            (["--lr", "0"], "learning rate")],
                         ids=["alpha_out_of_range", "zero_lr"])
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
