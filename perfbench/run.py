"""Run one biaslab benchmark workload and print its metrics.

    python3 perfbench/run.py --workload decode --seed 3 --seconds 10 --trace 0

The benchmark builds nothing: it imports ``biaslab`` from ``src/`` of the
checkout it sits in and exits 2 when that is missing.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

``--trace 0`` runs jobs for ``--seconds`` of job time (at least two, so
repeats can be compared), with bursts of set-ups before them until the
workload has been set up at least 3 times and for at least 4 s (``setup_s``
is the median), and reports the end-to-end metrics.  ``--trace 1`` runs
untraced jobs for ``--seconds``, then one traced set-up and one traced job,
and reports the per-layer metrics with the tracing overhead against the
untraced jobs.  Every job's output is checked and must be byte-identical to
the first job's; the traced job's too.

The machine, the code, every job's time, digests, check results and quality
go to ``.bench_out/<workload>-seed<seed>-trace<t>.json`` in the checkout; a
traced run also writes its spans to ``.bench_out/<workload>-seed<seed>-spans.jsonl``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import logging
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from layers import HOOKS, PER_LAYER_UNITS, layer_metrics
from tracer import Tracer, median_and_tail

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3  # at least this many set-ups, and at least SETUP_SECONDS of them
SETUP_SECONDS = 4.0
SETUP_BURST = 0.5  # seconds of back-to-back set-ups before each job
MIN_JOBS = 2
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "tok_per_s": "1/s", "peak_rss_mb": "MB"}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("train", "decode", "sweep", "fdcheck"))
    parser.add_argument("--seed", type=int, default=3, help="workload seed (AC-4's is 3)")
    parser.add_argument("--seconds", type=float, default=10.0, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def import_biaslab() -> bool:
    """Put the checkout's ``src/`` first on the path; False if it has no biaslab."""
    package = ROOT / "src" / "biaslab"
    if not (package / "__init__.py").is_file():
        print(f"error: no biaslab sources at {package}", file=sys.stderr)
        return False
    sys.path.insert(0, str(ROOT / "src"))
    import biaslab

    if Path(biaslab.__file__).resolve().parent != package.resolve():
        print(f"error: imported biaslab from {biaslab.__file__}, not {package}",
              file=sys.stderr)
        return False
    return True


def machine_record() -> dict:
    import numpy

    cpu_model = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_thread_env": {name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        "platform": platform.platform(),
    }


def _git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def code_record() -> dict:
    """git SHA where the checkout is a repository, else only the source digest."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"git_sha": _git_sha(), "src_sha256": digest.hexdigest(), "src_py_lines": lines}


@dataclass
class Job:
    seconds: float
    output: object | None
    quality: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)


def one_job(workload, inputs, tracer=None) -> Job:
    """Time ``workload.run`` (traced when a tracer is given), then check it."""
    traced = tracer.installed(HOOKS) if tracer is not None else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with traced:
            output = workload.run(inputs)
    except Exception:
        traceback.print_exc()
        return Job(time.perf_counter() - start, None, problems=["job raised"])
    elapsed = time.perf_counter() - start
    try:
        quality, problems = workload.check(inputs, output)
    except Exception:
        traceback.print_exc()
        quality, problems = {}, ["output check raised"]
    return Job(elapsed, output, quality, problems)


def run_jobs(workload, inputs, seconds: float, min_jobs: int) -> list[Job]:
    """Closed loop: the next job starts when the previous one is checked."""
    jobs: list[Job] = []
    while len(jobs) < min_jobs or sum(j.seconds for j in jobs) < seconds:
        jobs.append(one_job(workload, inputs))
    return jobs


def mark_repeats(jobs: list[Job], reference: str | None) -> None:
    """Every job's output must match the reference digest byte for byte."""
    for job in jobs:
        if job.output is not None and reference is not None and job.output.digest != reference:
            job.problems.append("output differs from the first job's")


def first_digest(jobs: list[Job]) -> str | None:
    return next((j.output.digest for j in jobs if j.output is not None), None)


def timed_setup(workload, seed: int, workdir: str, index: int) -> tuple[float, object]:
    path = os.path.join(workdir, f"setup{index}")
    os.mkdir(path)
    start = time.perf_counter()
    inputs = workload.setup(seed, path)
    return time.perf_counter() - start, inputs


def peak_rss_mb() -> float:
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def tok_per_s(tokens: int, jobs: list[Job]) -> float:
    return tokens / statistics.median(j.seconds for j in jobs)


def utterance_latency(jobs: list[Job]) -> dict | None:
    """Per-utterance time: each utterance's median over the jobs, one sample each."""
    utt = [j.output.utt_s for j in jobs if j.output is not None and j.output.utt_s]
    if not utt:
        return None
    return median_and_tail(statistics.median(times) for times in zip(*utt))


def end_to_end(workload, seed: int, seconds: float, workdir: str) -> dict:
    """Set-ups and jobs take turns, so both sample the same stretch of a
    machine whose speed drifts over seconds."""
    setups: list[tuple[float, object]] = []
    jobs: list[Job] = []

    def setups_due() -> bool:
        return len(setups) < SETUP_REPEATS or sum(t for t, _ in setups) < SETUP_SECONDS

    def jobs_due() -> bool:
        return len(jobs) < MIN_JOBS or sum(j.seconds for j in jobs) < seconds

    while setups_due() or jobs_due():
        burst_end = time.perf_counter() + SETUP_BURST
        while setups_due() and (not setups or time.perf_counter() < burst_end):
            setups.append(timed_setup(workload, seed, workdir, len(setups)))
        if jobs_due():
            jobs.append(one_job(workload, setups[-1][1]))
    inputs = setups[-1][1]
    setup_problems = [f"set-up {i} differs from set-up 0" for i, (_, inp) in enumerate(setups)
                      if inp.digest != setups[0][1].digest]
    mark_repeats(jobs, first_digest(jobs))
    metrics = {
        "setup_s": statistics.median(t for t, _ in setups),
        "wall_s": statistics.median(j.seconds for j in jobs),
        "tok_per_s": tok_per_s(inputs.tokens, jobs),
        "peak_rss_mb": peak_rss_mb(),
    }
    latency = utterance_latency(jobs)
    return {"metrics": metrics, "units": E2E_UNITS, "setup_seconds": [t for t, _ in setups],
            "jobs": jobs, "setup_problems": setup_problems, "inputs": inputs,
            "info": {"utt_latency": latency} if latency else {}}


def traced(workload, seed: int, seconds: float, workdir: str, spans_path: Path) -> dict:
    setup_time, inputs = timed_setup(workload, seed, workdir, 0)
    jobs = run_jobs(workload, inputs, seconds, 1)

    tracer = Tracer()
    tracer.run = f"{workload.name}:{seed}:setup"
    with tracer.installed(HOOKS):
        traced_setup_time, traced_inputs = timed_setup(workload, seed, workdir, 1)
    setup_state, tracer.state = tracer.state, {}
    tracer.run = f"{workload.name}:{seed}:job"
    traced_job = one_job(workload, traced_inputs, tracer)
    tracer.write(str(spans_path))

    mark_repeats(jobs + [traced_job], first_digest(jobs))
    setup_problems = [] if traced_inputs.digest == inputs.digest else [
        "traced set-up differs from the untraced one"]
    setup_spans = [s for s in tracer.spans if s.run.endswith(":setup")]
    job_spans = [s for s in tracer.spans if s.run.endswith(":job")]
    metrics = layer_metrics(setup_spans, job_spans, tracer.state, inputs.applied_examples)

    untraced_wall = statistics.median(j.seconds for j in jobs)
    untraced_tps = tok_per_s(inputs.tokens, jobs)
    metrics.update({
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_wall_s": traced_job.seconds - untraced_wall,
        "trace.overhead_share": (traced_job.seconds - untraced_wall) / untraced_wall,
        "trace.untraced_tok_per_s": untraced_tps,
        "trace.overhead_tok_per_s": tok_per_s(inputs.tokens, [traced_job]) - untraced_tps,
        "trace.spans": len(tracer.spans),
        "trace.absent_bindings": len(set(tracer.absent)),
        "trace.counter_errors": tracer.counter_errors,
    })
    info = {"absent_bindings": sorted(set(tracer.absent)), "setup_counts":
            {k: v for k, v in setup_state.items() if not isinstance(v, set)}}
    latency = utterance_latency(jobs)
    if latency:
        info["utt_latency"] = latency
        metrics["e2e.utt_ms_p50"] = 1e3 * latency["p50"]
        metrics["e2e.utt_ms_p95"] = 1e3 * (latency["tail"] or 0.0)
        metrics["e2e.utt_samples"] = latency["n"]
    quality = traced_job.quality or (jobs[0].quality if jobs else {})
    for key in ("b_wer", "b_wer_unbiased", "u_wer", "far", "tar", "fd_max_rel_err"):
        metrics[f"e2e.{key}"] = quality.get(key) or 0.0
    metrics = {name: float(metrics.get(name, 0.0)) for name in PER_LAYER_UNITS}
    return {"metrics": metrics, "units": PER_LAYER_UNITS,
            "setup_seconds": [setup_time, traced_setup_time],
            "jobs": jobs + [traced_job], "setup_problems": setup_problems, "inputs": inputs,
            "info": info}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not import_biaslab():
        return 2
    from workloads import WORKLOADS

    # bias-list shortfall warnings would otherwise print on every fd-check instance
    logging.getLogger("biaslab").setLevel(logging.ERROR)
    workload = WORKLOADS[args.workload]
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    workdir = tempfile.mkdtemp(prefix=f"{stem}-", dir=out_dir)
    try:
        if args.trace:
            result = traced(workload, args.seed, args.seconds, workdir,
                            out_dir / f"{stem}-spans.jsonl")
        else:
            result = end_to_end(workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    jobs: list[Job] = result["jobs"]
    attempted = len(jobs) + len(result["setup_seconds"])
    failed = sum(bool(j.problems) for j in jobs) + len(result["setup_problems"])
    problems = result["setup_problems"] + sorted({p for j in jobs for p in j.problems})
    quality = next((j.quality for j in jobs if j.quality), {})
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine_record(), "code": code_record(),
        "metrics": result["metrics"], "setup_seconds": result["setup_seconds"],
        "job_seconds": [j.seconds for j in jobs],
        "digests": sorted({j.output.digest for j in jobs if j.output is not None}),
        "setup_digest": result["inputs"].digest, "tokens_per_job": result["inputs"].tokens,
        "quality": quality, "problems": problems, "info": result.get("info", {}),
        "attempted": attempted, "failed": failed,
    }
    with open(out_dir / f"{stem}-trace{args.trace}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True, default=str)

    print(f"biaslab benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}, {len(jobs)} jobs of {result['inputs'].tokens} token positions")
    print("machine: " + json.dumps(record["machine"], sort_keys=True))
    print("code: " + json.dumps(record["code"], sort_keys=True))
    for name, value in result["metrics"].items():
        print(f"  {name} = {value:.6g} {result['units'][name]}")
    latency = record["info"].get("utt_latency")
    if latency:
        print(f"utterance latency: p50 {1e3 * latency['p50']:.4g} ms, "
              f"p{latency['tail_pct']:.4g} {1e3 * latency['tail']:.4g} ms, n={latency['n']}")
    if quality:
        print("quality: " + json.dumps(quality, sort_keys=True, default=str))
    print(f"failed_frac = {failed}/{attempted}"
          + "".join(f"\n  problem: {p}" for p in problems))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": result["units"][name]}
                    for name, value in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
