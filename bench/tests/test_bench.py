"""Tests of the benchmark itself: short runs, output checks, digests, contract.

Run from the repository root with ``python -m pytest bench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import workloads
from weakpol import cli

ROOT = run.ROOT


def bench(tmp_root: Path, workload: str, seed: int, trace: int = 0, seconds: float = 0.5):
    completed = subprocess.run(
        [sys.executable, str(tmp_root / "bench" / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=tmp_root,
        capture_output=True,
        text=True,
        timeout=170,
    )
    return completed


def last_json(completed) -> dict:
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout.splitlines()[-1])


def record(workload: str, seed: int) -> dict:
    path = ROOT / run.OUT_DIR / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(path.read_text())


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w, workloads.WHY[w]) for w in run.WORKLOADS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_short_run_is_correct(workload):
    result = last_json(bench(ROOT, workload, seed=11))
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END_UNITS)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert record(workload, 11)["metrics"]["fail_ratio"] == 0.0


@pytest.mark.parametrize("workload", ["pair_csv", "resolution_sweep"])
def test_same_seed_gives_the_same_digest(workload):
    digests = []
    for _ in range(2):
        assert last_json(bench(ROOT, workload, seed=5))["correct"]
        digests.append(record(workload, 5)["digest"])
    assert digests[0] == digests[1]
    assert last_json(bench(ROOT, workload, seed=6))["correct"]
    assert record(workload, 6)["digest"] != digests[0]


@pytest.mark.parametrize("workload", ["pair_json", "oracle_roundtrip"])
def test_traced_run_reports_every_layer_metric(workload):
    result = last_json(bench(ROOT, workload, seed=3, trace=1))
    assert result["correct"] is True
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    assert set(metrics) == set(run.PER_LAYER_UNITS)
    assert metrics["measurement.calls"] > 0 and metrics["linalg.calls"] > 0
    if workload == "pair_json":
        assert metrics["cli.calls"] > 0 and metrics["cli.out_bytes"] > 0
        assert metrics["quasiprob.calls"] == 0
    else:
        assert metrics["cli.calls"] == 0
        assert metrics["quasiprob.deconvolve_ms"] > 0
    spans_path = ROOT / run.OUT_DIR / "results" / f"{workload}-seed3-trace1-spans.jsonl.gz"
    assert spans_path.stat().st_size > 0


def test_run_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    completed = bench(tmp_path, "resolution_sweep", seed=1)
    assert completed.returncode != 0
    assert completed.stdout == ""


@pytest.mark.parametrize("delta_s", [0.5, 1.3371, 2.5])
def test_covering_grid_has_a_fixed_count_and_covers_the_fit(delta_s):
    grid = workloads.covering_grid(delta_s, 561)
    assert grid.count == 561
    assert grid.lo <= -1 - 6 * delta_s and grid.hi >= 1 + 6 * delta_s


def small_case(tmp_path: Path, seed: int) -> workloads.PairCase:
    rng = np.random.default_rng(seed)
    amplitudes = [[float(a.real), float(a.imag)] for a in workloads.random_state(rng, 4)]
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"amplitudes": amplitudes}))
    state = np.array([complex(re, im) for re, im in amplitudes])
    delta_s = workloads.random_delta_s(rng)
    return workloads.PairCase(0, str(path), delta_s, workloads.covering_grid(delta_s, 41), state / np.linalg.norm(state))


def change_one_digit(text: str) -> str:
    """Change the last mantissa digit of the first p_pp value (third number of the first row)."""
    marker = text.index('"rows"') if text.startswith("{") else text.index("\n")
    number = list(re.finditer(r"-?\d+(?:\.\d+)?", text[marker:]))[2]
    at = marker + number.end() - 1
    return text[:at] + str((int(text[at]) + 1) % 10) + text[at + 1 :]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_output_with_one_digit_changed_is_a_failure(tmp_path, fmt):
    case = small_case(tmp_path, seed=2)
    out = tmp_path / f"out.{fmt}"
    assert cli.main(case.argv(fmt, str(out))) == 0
    text = out.read_text()
    verifier = checks.PairVerifier(fmt)
    _, problems = verifier.verify(case, text.encode())
    assert problems == []

    changed = change_one_digit(text)
    assert changed != text and len(changed) == len(text)
    _, problems = checks.PairVerifier(fmt).verify(case, changed.encode())
    assert any("bit for bit" in p for p in problems)
    _, problems = verifier.verify(case, changed.encode())
    assert any("differs from an earlier run" in p for p in problems)


def test_in_process_checks_catch_a_wrong_table():
    rng = np.random.default_rng(4)
    case = workloads.sweep_case(rng)
    outputs = workloads.sweep_op(case)
    assert checks.check_sweep(case, outputs) == []
    outputs["pair_limit"].entries[next(iter(outputs["pair_limit"].entries))] += 1e-9
    assert checks.check_sweep(case, outputs) != []
