"""Benchmark for weakpol: four workloads end to end, or per layer when traced.

Run from the repository root:

    python3 bench/run.py                      # every workload, end-to-end metrics
    python3 bench/run.py --workload pair_csv --seed 3 --seconds 20 --trace 0
    python3 bench/run.py --workload oracle_roundtrip --trace 1

One client runs one operation at a time in a closed loop until the timed
operations add up to ``--seconds``; warm-up and output checks are outside the
timed region. ``--trace 0`` reports end-to-end metrics; ``--trace 1`` swaps
each layer's public functions for span-recording wrappers on every other
operation and reports per-layer metrics. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``. A
record with provenance, output sha256s and the run digest is written under
``.bench_out/results``; traced runs also write their spans there, one JSON
array per line (gzip).
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("pair_csv", "pair_json", "resolution_sweep", "oracle_roundtrip")

END_TO_END_UNITS = {"setup_s": "s", "op_p50_ms": "ms", "throughput_ops_s": "1/s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "cli.calls": "count",
    "cli.self_ms": "ms",
    "cli.out_bytes": "B",
    "cli.errors": "count",
    "measurement.calls": "count",
    "measurement.self_ms": "ms",
    "measurement.cells": "count",
    "measurement.errors": "count",
    "quasiprob.calls": "count",
    "quasiprob.self_ms": "ms",
    "quasiprob.deconvolve_ms": "ms",
    "quasiprob.errors": "count",
    "linalg.calls": "count",
    "linalg.self_ms": "ms",
    "polarization.calls": "count",
    "polarization.self_ms": "ms",
    "trace.overhead_pct": "%",
}
# Reported on the human-readable lines and in the record only: a p90 needs at
# least 100 operations per run (the pair workloads have fewer), and the
# failure ratio is 0 on correct code (the final line carries attempted/failed).
EXTRA_UNITS = {"op_p90_ms": "ms", "fail_ratio": "ratio"}

SETUP_SAMPLES = 9
# Stop measuring early if the loop has run this long, so a run always ends.
WALL_LIMIT_S = 120.0
OUT_DIR = ".bench_out"

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="timed seconds per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_sample_s() -> float:
    """Wall time of a fresh interpreter importing weakpol.cli and exiting."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import weakpol.cli"], check=True)
    return time.perf_counter() - start


def peak_rss_kb() -> int:
    """This process's own peak RSS.

    ``ru_maxrss`` would also cover the process that started this one, so the
    kernel's high-water mark for this address space is read instead.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def provenance(seed: int) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
        ).stdout.strip() or None
    except OSError:
        commit = None
    sources = hashlib.sha256()
    for path in sorted((SRC / "weakpol").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
        "git_commit": commit,
        "src_sha256": sources.hexdigest(),
    }


def run_digest(outcomes) -> str:
    """sha256 over the distinct (input, output sha256) pairs the digest covers."""
    import workloads

    pairs = sorted({(o.case_index, o.sha256) for o in outcomes if o.sha256 and o.case_index < workloads.DIGEST_OPS})
    return hashlib.sha256("\n".join(f"{i}:{sha}" for i, sha in pairs).encode()).hexdigest()


def measure(workload, rng, seconds: float, trace: bool, workdir: Path):
    """Closed loop, one operation at a time, until the timed operations add up to ``seconds``.

    In a trace run every other operation runs with the layers wrapped.
    Otherwise the set-up samples are spread over the run, so that their
    median sees the same machine conditions as the operations.
    """
    import spans

    tracer = spans.Tracer() if trace else None
    setup_samples: list[float] = []
    if not trace:
        setup_sample_s()  # byte-compiles the sources; not counted
    cases = workload.cases(rng, workdir)
    outcomes = []
    measured_ns = 0
    wall_start = time.perf_counter()
    try:
        while (measured_ns < seconds * 1e9 or (trace and len(outcomes) < workload.warmup + 2)) and (
            time.perf_counter() - wall_start < WALL_LIMIT_S
        ):
            index = len(outcomes)
            traced = trace and index % 2 == 1
            if traced:
                tracer.install()
            try:
                outcome = workload.run(next(cases), index, workdir, trace, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            outcome.traced = traced
            outcomes.append(outcome)
            if index >= workload.warmup:
                measured_ns += outcome.elapsed_ns
            while not trace and len(setup_samples) < SETUP_SAMPLES * min(measured_ns / (seconds * 1e9), 1.0):
                setup_samples.append(setup_sample_s())
    finally:
        workload.close()
    while not trace and len(setup_samples) < SETUP_SAMPLES:
        setup_samples.append(setup_sample_s())
    return outcomes, tracer, setup_samples


def end_to_end_metrics(workload, timed, setup_samples: list[float]) -> dict:
    latencies_ms = [o.elapsed_ns / 1e6 for o in timed]
    if workload.in_process:
        peak_kb = peak_rss_kb()
    else:
        peak_kb = max(o.child_rss_kb for o in timed)
    metrics = {
        "setup_s": statistics.median(setup_samples),
        "op_p50_ms": statistics.median(latencies_ms),
        "throughput_ops_s": len(latencies_ms) / (sum(latencies_ms) / 1e3),
        "peak_rss_mb": peak_kb / 1024.0,
    }
    if len(latencies_ms) >= 100:
        metrics["op_p90_ms"] = statistics.quantiles(latencies_ms, n=10)[-1]
    return metrics


def per_layer_metrics(timed, tracer) -> dict:
    import spans

    metrics = spans.layer_metrics(tracer.spans)
    traced = [o for o in timed if o.traced]
    untraced = [o for o in timed if not o.traced]
    metrics["cli.out_bytes"] = statistics.mean(o.out_bytes for o in traced)
    p50_traced = statistics.median(o.elapsed_ns for o in traced)
    p50_untraced = statistics.median(o.elapsed_ns for o in untraced)
    metrics["trace.overhead_pct"] = (p50_traced / p50_untraced - 1.0) * 100.0
    return metrics


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import weakpol

    if Path(weakpol.__file__).resolve().parent != SRC / "weakpol":
        sys.stderr.write(f"error: imported weakpol from {weakpol.__file__}, not from {SRC}\n")
        return 2
    import numpy as np

    import workloads

    # Relative to the root, the working directory: file names appear in JSON
    # output, so the bytes must not depend on where the checkout is.
    workdir = Path(OUT_DIR, f"work-{args.workload}")
    results_dir = Path(OUT_DIR, "results")
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads.make_workload(args.workload)
    rng = np.random.default_rng([args.seed, WORKLOADS.index(args.workload)])
    try:
        outcomes, tracer, setup_samples = measure(workload, rng, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(outcomes)
    failed = sum(1 for o in outcomes if o.problems)
    timed = outcomes[workload.warmup :]
    if args.trace:
        metrics = per_layer_metrics(timed, tracer)
        units = PER_LAYER_UNITS
    else:
        metrics = end_to_end_metrics(workload, timed, setup_samples)
        units = END_TO_END_UNITS
    metrics["fail_ratio"] = failed / attempted
    digest = run_digest(outcomes)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(args.seed),
        "attempted": attempted,
        "failed": failed,
        "problems": [p for o in outcomes for p in o.problems][:50],
        "metrics": metrics,
        "digest": digest,
        "outputs": [[o.case_index, o.sha256] for o in outcomes if o.sha256],
    }
    (results_dir / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        with gzip.open(results_dir / f"{name}-spans.jsonl.gz", "wt", encoding="utf-8", compresslevel=1) as handle:
            tracer.write_jsonl(handle)

    print(f"workload {args.workload}: {workloads.WHY[args.workload]}")
    for problem in record["problems"]:
        print(f"FAIL {problem}")
    all_units = {**units, **EXTRA_UNITS}
    for key, unit in all_units.items():
        if key in metrics:
            print(f"{args.workload} {key} = {metrics[key]!r} {unit}")
    print(f"{args.workload} digest = {digest} (record {OUT_DIR}/results/{name}.json)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, so in-process peak RSS is its own."""
    aggregate = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload]
        command += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = completed.stdout.splitlines()
        if completed.returncode != 0 or not lines:
            sys.stderr.write(f"error: workload {workload} exited with {completed.returncode}\n")
            return completed.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        aggregate["correct"] = aggregate["correct"] and result["correct"]
        aggregate["attempted"] += result["attempted"]
        aggregate["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            aggregate["metrics"][f"{workload}.{key}"] = value
    print(json.dumps(aggregate))
    return 0


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "weakpol" / "__init__.py").is_file():
        sys.stderr.write(f"error: no weakpol sources under {SRC}; run from a weakpol checkout\n")
        return 2
    os.chdir(ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
