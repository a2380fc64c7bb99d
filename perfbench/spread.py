"""Run the benchmark once per seed and report each metric's median and spread.

    python3 perfbench/spread.py --workloads train,decode --seeds 1-10 --seconds 10
    python3 perfbench/spread.py --workloads decode --seeds 3 --trace 1 --json out.json

Each run is ``perfbench/run.py`` in its own process, one after another.  The
spread of a metric is the distance between its first and third quartiles, as
``statistics.quantiles(values, n=4)`` gives them, over its median.  Exits 1
if any run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    out = {"median": med, "values": values}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3, spread=(q3 - q1) / med if med else None)
    return out


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="train,decode,sweep,fdcheck")
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,1009")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", default=None, help="write runs and summaries here")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    report: dict = {"seeds": seeds, "seconds": args.seconds, "trace": args.trace,
                    "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            result = run_once(workload, seed, args.seconds, args.trace)
            ok &= result["correct"]
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        units = {k: v["unit"] for k, v in runs[0]["metrics"].items()}
        summary = {name: {**summarize([r["metrics"][name]["value"] for r in runs]),
                          "unit": unit} for name, unit in units.items()}
        report["workloads"][workload] = {
            "correct": [r["correct"] for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": summary,
        }
        for name, s in summary.items():
            spread = s.get("spread")
            print(f"{workload:8s} {name:32s} median {s['median']:.6g} {s['unit']}"
                  + ("" if spread is None else f"  spread {spread:.4f}"))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
