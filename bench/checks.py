"""Output checks for every workload, run outside the timed region.

Tolerances are the ones ``weakpol check`` uses, never looser.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np

from weakpol import measurement, polarization, quasiprob
from weakpol.linalg import expectation

TOTAL_TOL = 1e-12  # "table totals equal one"
CHSH_TOL = 1e-12  # "CHSH expectation equals 2*sqrt(2)"
DECONVOLVE_TOL = 1e-6  # "deconvolution matches analytic table (pair)"
REBUILT_TOL = 1e-10  # "density rebuilt from table weights"

PAIR_COLUMNS = ["s1m_a", "s1m_b", "p_pp", "p_pm", "p_mp", "p_mm"]


def _max_gap(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def _table_gap(a, b) -> float:
    return max(abs(a.entries[key] - b.entries[key]) for key in b.entries)


def _check_total(name: str, table, problems: list[str]) -> None:
    if not abs(table.total - 1.0) <= TOTAL_TOL:
        problems.append(f"{name} total {table.total!r} is not 1 within {TOTAL_TOL:g}")


def _check_rebuilt(name: str, rebuilt, density, problems: list[str]) -> None:
    gap = _max_gap(rebuilt.values, density.values)
    if not gap <= REBUILT_TOL:
        problems.append(f"{name}: rebuilt density differs by {gap:.3e} > {REBUILT_TOL:g}")


def check_sweep(inputs, outputs) -> list[str]:
    """Invariants of one resolution_sweep operation."""
    problems: list[str] = []
    for name in ("single", "single_limit", "pair", "pair_limit"):
        _check_total(f"{name} table", outputs[name], problems)
    expected = expectation(inputs["pair_state"], polarization.bell_operator())
    mean = outputs["k_limit"].mean()
    if not abs(mean - expected) <= CHSH_TOL:
        problems.append(f"LIMIT K mean {mean!r} differs from <K> {expected!r}")
    _check_rebuilt("single", outputs["single_rebuilt"], outputs["single_density"], problems)
    _check_rebuilt("pair", outputs["pair_rebuilt"], outputs["pair_density"], problems)
    return problems


def check_roundtrip(inputs, outputs) -> list[str]:
    """Invariants of one oracle_roundtrip operation."""
    problems: list[str] = []
    _check_total("pair table", outputs["table"], problems)
    gap = _table_gap(outputs["deconvolved"], outputs["table"])
    if not gap <= DECONVOLVE_TOL:
        problems.append(f"deconvolved table differs by {gap:.3e} > {DECONVOLVE_TOL:g}")
    _check_rebuilt("pair", outputs["rebuilt"], outputs["density"], problems)
    return problems


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _parse_csv(text: str, problems: list[str]) -> np.ndarray | None:
    header, _, body = text.partition("\n")
    if header != ",".join(PAIR_COLUMNS):
        problems.append(f"CSV header {header!r} is not {','.join(PAIR_COLUMNS)!r}")
        return None
    if "\r" in text or not body.endswith("\n"):
        problems.append("CSV lines must end with a single LF")
        return None
    lines = body[:-1].split("\n")
    if any(line.count(",") != len(PAIR_COLUMNS) - 1 for line in lines):
        problems.append(f"CSV rows must have {len(PAIR_COLUMNS)} fields")
        return None
    fields = body[:-1].replace("\n", ",").split(",")
    try:
        values = list(map(float, fields))
    except ValueError as exc:
        problems.append(f"CSV field is not a number: {exc}")
        return None
    if list(map(repr, values)) != fields:
        problems.append("CSV fields are not in shortest round-trip form")
    return np.array(values).reshape(len(lines), len(PAIR_COLUMNS))


def _parse_json(text: str, expected_config: dict, problems: list[str]) -> np.ndarray | None:
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        problems.append(f"output is not JSON: {exc}")
        return None
    if not isinstance(document, dict):
        problems.append("JSON output is not an object")
        return None
    position = 0
    for chunk in json.JSONEncoder(indent=2).iterencode(document):
        if not text.startswith(chunk, position):
            problems.append(f"JSON differs from json.dumps(indent=2) at offset {position}")
            break
        position += len(chunk)
    else:
        if text[position:] != "\n":
            problems.append("JSON must end with exactly one LF after the document")
    if document.get("command") != "pair" or document.get("config") != expected_config:
        problems.append(f"JSON command/config {document.get('command')!r} {document.get('config')!r}")
    data = document.get("data")
    rows = data.get("rows") if isinstance(data, dict) else None
    if not isinstance(rows, list) or not all(
        isinstance(row, list) and len(row) == len(PAIR_COLUMNS) and all(type(v) is float for v in row)
        for row in rows
    ):
        problems.append(f"JSON rows must be lists of {len(PAIR_COLUMNS)} floats")
        return None
    if data.get("columns") != PAIR_COLUMNS:
        problems.append(f"JSON columns {data.get('columns')!r}")
    return np.array(rows, dtype=float).reshape(len(rows), len(PAIR_COLUMNS))


def check_pair_output(data: bytes, case, fmt: str) -> list[str]:
    """Full check of one ``weakpol pair`` output file against the library."""
    problems: list[str] = []
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return ["output is not UTF-8"]
    if fmt == "csv":
        table = _parse_csv(text, problems)
    else:
        table = _parse_json(text, case.cli_config(), problems)
    if table is None:
        return problems

    grid = case.grid
    density = measurement.coincidence_density(case.state, case.delta_s, grid, grid)
    n = grid.count
    if table.shape != (n * n, len(PAIR_COLUMNS)):
        problems.append(f"output has shape {table.shape}, expected {(n * n, len(PAIR_COLUMNS))}")
        return problems
    points = grid.points()
    if not (_same_bits(table[:, 0], np.repeat(points, n)) and _same_bits(table[:, 1], np.tile(points, n))):
        problems.append("pointer coordinates differ from the grid points")
    values = table[:, 2:].reshape(density.values.shape)
    if not _same_bits(values, density.values):
        problems.append("values differ from coincidence_density bit for bit")
    rebuilt = quasiprob.reconstruct_density(quasiprob.quasiprob_table_pair(case.state, case.delta_s), grid, grid)
    gap = _max_gap(values, rebuilt.values)
    if not gap <= REBUILT_TOL:
        problems.append(f"values differ from the rebuilt density by {gap:.3e} > {REBUILT_TOL:g}")
    return problems


class PairVerifier:
    """Checks CLI outputs; a repeat of an input whose bytes are already verified needs only its sha256."""

    def __init__(self, fmt: str):
        self.fmt = fmt
        self.verified: dict[int, str] = {}

    def verify(self, case, data: bytes) -> tuple[str, list[str]]:
        digest = hashlib.sha256(data).hexdigest()
        known = self.verified.get(case.index)
        if known == digest:
            return digest, []
        problems = check_pair_output(data, case, self.fmt)
        if known is not None:
            problems.append(f"output sha256 {digest} differs from an earlier run of the same input ({known})")
        elif not problems:
            self.verified[case.index] = digest
        return digest, problems
