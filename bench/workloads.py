"""The four benchmark workloads: seeded inputs, one operation, its checks.

Inputs come only from the seed. Every grid has a fixed point count and a step
scaled to cover +-(1 + 6 delta_s), so the cost of an operation does not
depend on the seed, and the operations of one workload are uniform in cost.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from weakpol import cli, measurement, quasiprob
from weakpol.measurement import LIMIT, PointerGrid

import checks

WHY = {
    "pair_csv": "weakpol pair as a subprocess writing a 561x561 CSV: about 99% of the time is CLI "
    "serialization, about 1% is physics",
    "pair_json": "the same pair runs with --format json: a separate writer sharing the row builder "
    "with CSV, so a CSV-only change that slows JSON shows here",
    "resolution_sweep": "in-process tables, K distributions, small densities and rebuilds per random "
    "state and delta_s: Python overhead on tiny matrices, no CLI code",
    "oracle_roundtrip": "in-process 401x401 density, deconvolution, analytic table and rebuild: the "
    "layers of resolution_sweep on 160k-cell arrays instead of 36-entry tables",
}

DELTA_S_RANGE = (0.5, 2.5)
PAIR_CLI_POINTS = 561
SWEEP_SINGLE_POINTS = 201
SWEEP_PAIR_POINTS = 41
ROUNDTRIP_POINTS = 401
# Library operations whose outputs form the run digest.
DIGEST_OPS = 8
# Untimed library operations before measuring (first-call set-up in numpy).
LIBRARY_WARMUP = 1


def random_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    vector = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return vector / np.linalg.norm(vector)


def random_delta_s(rng: np.random.Generator) -> float:
    return float(rng.uniform(*DELTA_S_RANGE))


def covering_grid(delta_s: float, points: int) -> PointerGrid:
    """Symmetric grid of ``points`` points (odd) reaching at least +-(1 + 6 delta_s)."""
    half = (points - 1) // 2
    reach = 1.0 + 6.0 * delta_s
    step = reach / half
    while half * step < reach:
        step = math.nextafter(step, math.inf)
    grid = PointerGrid(-(half * step), half * step, step)
    if grid.count != points:
        raise RuntimeError(f"grid for delta_s={delta_s!r} has {grid.count} points, not {points}")
    return grid


@dataclass
class Outcome:
    """One operation's result: its timing, the sha256 of its output, what failed."""

    case_index: int
    elapsed_ns: int
    sha256: str
    problems: list[str]
    child_rss_kb: int = 0
    out_bytes: int = 0
    traced: bool = False


def _timed_call(tracer, index: int, name: str, body):
    """Run ``body`` inside the operation's root span (when traced) and time it."""
    with tracer.op(index, name) if tracer else nullcontext():
        start = time.perf_counter_ns()
        try:
            return body(), time.perf_counter_ns() - start, None
        except (Exception, SystemExit) as exc:  # a failed operation is data, not a crash
            return None, time.perf_counter_ns() - start, f"{type(exc).__name__}: {exc}"


# --- CLI pair workloads -------------------------------------------------------


@dataclass
class PairCase:
    index: int
    state_path: str
    delta_s: float
    grid: PointerGrid
    state: np.ndarray

    def grid_text(self) -> str:
        return f"{self.grid.lo!r}:{self.grid.hi!r}:{self.grid.step!r}"

    def argv(self, fmt: str, out: str) -> list[str]:
        argv = ["pair", "--state-file", self.state_path, "--delta-s", repr(self.delta_s), "--grid", self.grid_text()]
        if fmt == "json":
            argv += ["--format", "json"]
        return argv + ["--out", out]

    def cli_config(self) -> dict:
        grid = self.grid_text()
        return {"state": f"file:{self.state_path}", "delta_s": self.delta_s, "grid": grid, "grid_b": grid}


class PairWorkload:
    """``weakpol pair`` runs: subprocesses, or ``cli.main`` in process in a trace run."""

    in_process = False
    warmup = 0

    def __init__(self, name: str, fmt: str):
        self.name = name
        self.fmt = fmt
        self.verifier = checks.PairVerifier(fmt)
        self._spawner = None

    def _spawn(self, argv: list[str], stderr_path: Path) -> dict:
        """Run a command from ``spawn.py``; returns its exit code, wall time and peak RSS."""
        if self._spawner is None:
            self._spawner = subprocess.Popen(
                [sys.executable, str(Path(__file__).with_name("spawn.py"))],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
        self._spawner.stdin.write(json.dumps({"argv": argv, "stderr": str(stderr_path)}) + "\n")
        self._spawner.stdin.flush()
        reply = self._spawner.stdout.readline()
        if not reply:
            raise RuntimeError(f"spawn.py exited with {self._spawner.wait()}")
        return json.loads(reply)

    def close(self) -> None:
        if self._spawner is not None:
            self._spawner.stdin.close()
            self._spawner.wait()
            self._spawner.stdout.close()
            self._spawner = None

    def cases(self, rng: np.random.Generator, workdir: Path):
        """One seeded input repeated: a full output check costs about as much as
        the operation, so repeats are checked by their sha256 against the first."""
        amplitudes = [[float(a.real), float(a.imag)] for a in random_state(rng, 4)]
        path = workdir / "state.json"
        path.write_text(json.dumps({"amplitudes": amplitudes}), encoding="utf-8")
        # The state exactly as the CLI loads it.
        state = np.array([complex(re, im) for re, im in amplitudes])
        state = state / float(np.linalg.norm(state))
        delta_s = random_delta_s(rng)
        return itertools.repeat(PairCase(0, path.as_posix(), delta_s, covering_grid(delta_s, PAIR_CLI_POINTS), state))

    def run(self, case: PairCase, index: int, workdir: Path, trace_run: bool, tracer=None) -> Outcome:
        out = workdir / f"out.{self.fmt}"
        argv = case.argv(self.fmt, out.as_posix())
        rss_kb = 0
        if not trace_run:
            stderr_path = workdir / "stderr.txt"
            reply = self._spawn([sys.executable, "-m", "weakpol.cli", *argv], stderr_path)
            code, elapsed, rss_kb = reply["code"], reply["elapsed_ns"], reply["maxrss_kb"]
            error = None if code == 0 else stderr_path.read_text(errors="replace").strip()[-500:]
        else:
            code, elapsed, error = _timed_call(tracer, index, f"op.{self.name}", lambda: cli.main(argv))
        if error is None and code != 0:
            error = f"exit code {code}"
        if error is not None:
            out.unlink(missing_ok=True)
            return Outcome(case.index, elapsed, "", [f"pair op failed: {error}"], rss_kb)
        data = out.read_bytes()
        out.unlink()
        digest, problems = self.verifier.verify(case, data)
        return Outcome(case.index, elapsed, digest, problems, rss_kb, len(data))


# --- in-process library workloads ---------------------------------------------


def _canonical_bytes(outputs: dict) -> bytes:
    """Full-precision bytes of every output, in key order, for the run digest."""
    parts = []
    for key in sorted(outputs):
        value = outputs[key]
        if hasattr(value, "values"):
            parts.append(np.ascontiguousarray(value.values).tobytes())
        elif hasattr(value, "entries"):
            parts.append(repr(list(value.entries.items())).encode())
        else:
            parts.append(repr(list(value.weights.items())).encode())
    return b"".join(parts)


def sweep_case(rng: np.random.Generator) -> dict:
    delta_s = random_delta_s(rng)
    return {
        "single_state": random_state(rng, 2),
        "pair_state": random_state(rng, 4),
        "delta_s": delta_s,
        "single_grid": covering_grid(delta_s, SWEEP_SINGLE_POINTS),
        "pair_grid": covering_grid(delta_s, SWEEP_PAIR_POINTS),
    }


def sweep_op(case: dict) -> dict:
    single, pair, delta_s = case["single_state"], case["pair_state"], case["delta_s"]
    single_grid, pair_grid = case["single_grid"], case["pair_grid"]
    out = {
        "single": quasiprob.quasiprob_table_single(single, delta_s),
        "single_limit": quasiprob.quasiprob_table_single(single, LIMIT),
        "pair": quasiprob.quasiprob_table_pair(pair, delta_s),
        "pair_limit": quasiprob.quasiprob_table_pair(pair, LIMIT),
    }
    out["k"] = quasiprob.k_distribution(out["pair"])
    out["k_limit"] = quasiprob.k_distribution(out["pair_limit"])
    out["single_density"] = measurement.single_outcome_density(single, delta_s, single_grid)
    out["pair_density"] = measurement.coincidence_density(pair, delta_s, pair_grid, pair_grid)
    out["single_rebuilt"] = quasiprob.reconstruct_density(out["single"], single_grid)
    out["pair_rebuilt"] = quasiprob.reconstruct_density(out["pair"], pair_grid, pair_grid)
    return out


def roundtrip_case(rng: np.random.Generator) -> dict:
    delta_s = random_delta_s(rng)
    return {"pair_state": random_state(rng, 4), "delta_s": delta_s, "grid": covering_grid(delta_s, ROUNDTRIP_POINTS)}


def roundtrip_op(case: dict) -> dict:
    pair, delta_s, grid = case["pair_state"], case["delta_s"], case["grid"]
    density = measurement.coincidence_density(pair, delta_s, grid, grid)
    table = quasiprob.quasiprob_table_pair(pair, delta_s)
    return {
        "density": density,
        "deconvolved": quasiprob.deconvolve(density, delta_s),
        "table": table,
        "rebuilt": quasiprob.reconstruct_density(table, grid, grid),
    }


class LibraryWorkload:
    """Library calls in this process on a fresh seeded input per operation."""

    in_process = True
    warmup = LIBRARY_WARMUP

    def __init__(self, name: str, make_case, op, check):
        self.name = name
        self.make_case = make_case
        self.op = op
        self.check = check

    def close(self) -> None:
        pass

    def cases(self, rng: np.random.Generator, workdir: Path):
        for index in itertools.count():
            yield index, self.make_case(rng)

    def run(self, case, index: int, workdir: Path, trace_run: bool, tracer=None) -> Outcome:
        case_index, inputs = case
        outputs, elapsed, error = _timed_call(tracer, index, f"op.{self.name}", lambda: self.op(inputs))
        if error is not None:
            return Outcome(case_index, elapsed, "", [f"library op failed: {error}"])
        digest = hashlib.sha256(_canonical_bytes(outputs)).hexdigest() if case_index < DIGEST_OPS else ""
        return Outcome(case_index, elapsed, digest, self.check(inputs, outputs))


def make_workload(name: str):
    if name == "pair_csv":
        return PairWorkload(name, "csv")
    if name == "pair_json":
        return PairWorkload(name, "json")
    if name == "resolution_sweep":
        return LibraryWorkload(name, sweep_case, sweep_op, checks.check_sweep)
    if name == "oracle_roundtrip":
        return LibraryWorkload(name, roundtrip_case, roundtrip_op, checks.check_roundtrip)
    raise KeyError(name)
