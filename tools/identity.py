"""Identity check: run the README pipeline for a seed and compare its outputs.

For a seed S the pipeline runs every subcommand through ``python -m biaslab``
(``cli.main``) in a fresh directory, with relative file names: ``simulate``
for both conditions, ``make-biaslists`` for both, ``train`` in both modes with
``--trace``, ``decode`` in all three modes, ``score --per-utt`` of each
decode, a 2 x 2 ``sweep-alpha`` and two ``fd-check`` runs.  Each command's
standard output goes to ``stdout.txt``, but ``fd-check``'s goes to its own
file.  The tool prints a sha256 manifest of the outputs.

With ``--against REV`` it checks REV out with ``git worktree add --detach``
into a temporary directory (local git only), runs the same pipeline on that
tree's ``src`` and lists every file whose bytes differ.  Where a JSON, JSON
lines, CSV or checkpoint file, or an ``fd-check`` output, differs only in
floating-point values, it prints each field's largest difference relative to
the field's largest magnitude, max |a - b| / max(|a|, |b|) over the field:
about 1e-16 means the last bits moved.  A field is a key path (list items as
``[]``), a CSV column, a checkpoint parameter or an ``fd-check`` line's
``mode <m>``, whose printed error is its one value.  It exits 1 if any
difference is not named in the ``--allow`` file (one output name per line,
``#`` starts a comment).

    python tools/identity.py --seed 3
    python tools/identity.py --seed 3 --against HEAD~1 --allow allowed.txt
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUTPUT_FLAGS = ("--out", "--write-common", "--trace", "--per-utt")
FD_LINE = re.compile(r"(mode \S+): max relative gradient error (\d\.\d+e[-+]\d+|nan|inf)")
FD_CHECKS = {"fd_check.txt": ["--seed", "11", "--dims", "8,8"],
             "fd_check_5utt.txt": ["--seed", "11", "--utterances", "5"]}


def sim_config(seed: int) -> dict:
    """README's simulator config at ``seed``."""
    return {"seed": seed, "n_utterances": 700, "words_per_utterance": [3, 6],
            "inventories": {"n_common": 40, "n_rare": 24, "n_confused": 12, "seed": 100},
            "rare_word_rate": 0.3, "base_accuracy_common": 0.95, "base_accuracy_rare": 0.75,
            "state_dim": 24, "domain_shift": 0.3}


def pipeline(seed: int) -> list[list[str]]:
    """The README pipeline's commands at ``seed``, with every mode each one has."""
    s = str(seed)
    lists = {"train": s, "test": str(seed + 1)}
    steps = [["simulate", "--config", "sim.json", "--out", "train.jsonl", "--condition", "train",
              "--write-common", "common.txt"],
             ["simulate", "--config", "sim.json", "--out", "test.jsonl", "--condition", "test"]]
    steps += [["make-biaslists", "--corpus", f"{split}.jsonl", "--common-words", "common.txt",
               "--n-distractors", "10", "--seed", lists[split], "--out", f"{split}_lists.jsonl"]
              for split in lists]
    for mode, ckpt in (("two_loss", "ckpt"), ("asr", "ckpt_asr")):
        steps.append(["train", "--corpus", "train.jsonl", "--biaslists", "train_lists.jsonl",
                      "--mode", mode, "--alpha", "0.7", "--epochs", "8", "--seed", s,
                      "--out", f"{ckpt}.bin", "--trace", f"trace_{mode}.jsonl"])
    for mode, name in (("none", "_none"), ("scaled", "_scaled"), ("unscaled", "")):
        steps.append(["decode", "--corpus", "test.jsonl", "--ckpt", "ckpt.bin", "--biaslists",
                      "test_lists.jsonl", "--mode", mode, "--out", f"hyps{name}.jsonl"])
        steps.append(["score", "--refs", "test.jsonl", "--hyps", f"hyps{name}.jsonl",
                      "--biaslists", "test_lists.jsonl", "--out", f"report{name}.json",
                      "--per-utt", f"per_utt{name}.jsonl"])
    steps.append(["sweep-alpha", "--train-corpus", "train.jsonl", "--test-corpus", "test.jsonl",
                  "--train-biaslists", "train_lists.jsonl", "--test-biaslists",
                  "test_lists.jsonl", "--alphas", "0.3,0.7", "--seeds", "0,1", "--epochs", "2",
                  "--out", "sweep.csv"])
    return steps + [["fd-check", *argv] for argv in FD_CHECKS.values()]


def output_names(seed: int) -> list[str]:
    """Every file the pipeline writes, as the manifest names them."""
    names = {"sim.json", "stdout.txt", *FD_CHECKS}
    for argv in pipeline(seed):
        names.update(argv[i + 1] for i, arg in enumerate(argv) if arg in OUTPUT_FLAGS)
        if argv[0] == "train":
            names.add(argv[argv.index("--out") + 1] + ".log.csv")  # the default log path
    return sorted(names)


def run_pipeline(src: Path, workdir: Path, seed: int) -> dict[str, str]:
    """Run the pipeline with ``src`` on the path; the sha256 of each output by name."""
    workdir.mkdir(parents=True)
    (workdir / "sim.json").write_text(json.dumps(sim_config(seed), indent=2) + "\n")
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
    fd_names = iter(FD_CHECKS)
    with open(workdir / "stdout.txt", "w", encoding="utf-8") as log:
        for argv in pipeline(seed):
            done = subprocess.run([sys.executable, "-m", "biaslab", *argv], cwd=workdir,
                                  env=env, capture_output=True, text=True)
            if done.returncode:
                raise SystemExit(f"{src}: biaslab {' '.join(argv)} exited {done.returncode}:\n"
                                 f"{done.stderr}")
            if argv[0] == "fd-check":
                (workdir / next(fd_names)).write_text(done.stdout, encoding="utf-8")
            else:
                log.write(f"$ biaslab {' '.join(argv)}\n{done.stdout}")
    return {name: hashlib.sha256((workdir / name).read_bytes()).hexdigest()
            for name in output_names(seed)}


def _numbers(a, b, path: str, fields: dict[str, list]) -> bool:
    """Walk two parsed JSON values in step, collecting float pairs by field;
    False if they differ in anything but floats."""
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(
            _numbers(a[k], b[k], f"{path}.{k}" if path else k, fields) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_numbers(x, y, f"{path}[]", fields) for x, y in zip(a, b))
    if float in (type(a), type(b)) and {type(a), type(b)} <= {int, float}:
        fields.setdefault(path, []).append((a, b))
        return True
    return type(a) is type(b) and a == b


def _csv_rows(data: bytes) -> list[dict]:
    return list(csv.DictReader(io.StringIO(data.decode("utf-8"))))


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def float_fields(name: str, mine: bytes, theirs: bytes) -> dict[str, float] | None:
    """Each field's largest relative difference, or None unless the two
    files differ only in floating-point values."""
    fields: dict[str, list] = {}
    if name.endswith(".bin"):
        (head_a, _, body_a), (head_b, _, body_b) = mine.partition(b"\n"), theirs.partition(b"\n")
        if head_a != head_b or len(body_a) != len(body_b):
            return None
        header = json.loads(head_a)
        values = [np.frombuffer(body, dtype="<f8") for body in (body_a, body_b)]
        start = 0
        for key in header["order"]:
            size = math.prod(header["shapes"][key])
            fields[key] = list(zip(*(v[start:start + size].tolist() for v in values)))
            start += size
    elif name.endswith(".csv"):
        rows_a, rows_b = _csv_rows(mine), _csv_rows(theirs)
        if not _numbers([{k: _cell(v) for k, v in row.items()} for row in rows_a],
                        [{k: _cell(v) for k, v in row.items()} for row in rows_b], "", fields):
            return None
        fields = {key.removeprefix("[]."): pairs for key, pairs in fields.items()}
    elif name in FD_CHECKS:
        texts = [data.decode("utf-8").splitlines() for data in (mine, theirs)]
        if len(texts[0]) != len(texts[1]):
            return None
        for a, b in zip(*texts):
            found = [FD_LINE.fullmatch(line) for line in (a, b)]
            if a != b and not (all(found) and found[0][1] == found[1][1]):
                return None
            if all(found):
                fields[found[0][1]] = [(float(found[0][2]), float(found[1][2]))]
    elif name.endswith((".json", ".jsonl")):
        parse = (lambda data: [json.loads(line) for line in data.splitlines()]) \
            if name.endswith(".jsonl") else json.loads
        if not _numbers(parse(mine), parse(theirs), "", fields):
            return None
        fields = {key.removeprefix("[]."): pairs for key, pairs in fields.items()}
    else:
        return None
    out = {}
    for key, pairs in fields.items():
        a, b = np.array(pairs, dtype=np.float64).reshape(-1, 2).T
        scale = max(np.abs(a).max(initial=0.0), np.abs(b).max(initial=0.0))
        diff = np.abs(a - b).max(initial=0.0)
        if diff:
            out[key] = float(diff / scale) if scale else math.inf
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="the pipeline's seed")
    parser.add_argument("--against", default=None, help="a git revision to compare with")
    parser.add_argument("--allow", default=None,
                        help="file naming the outputs that may differ, one per line")
    args = parser.parse_args(argv)
    allowed = set()
    if args.allow:
        lines = Path(args.allow).read_text(encoding="utf-8").splitlines()
        allowed = {line.split("#")[0].strip() for line in lines} - {""}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        mine = run_pipeline(ROOT / "src", tmp / "mine", args.seed)
        for name, digest in mine.items():
            print(f"{digest}  {name}")
        if args.against is None:
            return 0
        tree = tmp / "tree"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--detach", "--quiet",
                        str(tree), args.against], check=True)
        try:
            theirs = run_pipeline(tree / "src", tmp / "theirs", args.seed)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
        print(f"\nagainst {args.against} at seed {args.seed}:")
        unexplained = []
        for name in output_names(args.seed):
            if mine[name] == theirs[name]:
                continue
            diffs = float_fields(name, (tmp / "mine" / name).read_bytes(),
                                 (tmp / "theirs" / name).read_bytes())
            what = "differs beyond floats" if diffs is None else "differs in floats: " + ", ".join(
                f"{key} {rel:.1e}" for key, rel in sorted(diffs.items()))
            print(f"  {name}: {what}{' (allowed)' if name in allowed else ''}")
            if name not in allowed:
                unexplained.append(name)
        same = len(mine) - sum(mine[name] != theirs[name] for name in mine)
        print(f"{same}/{len(mine)} files byte-identical")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
