"""Command output must equal, byte for byte, the whole-document serializers.

The density reference below builds every row as a list of Python floats and
hands the document to ``csv.writer`` (``repr`` fields) or
``json.dumps(indent=2)``; the CLI streams the same text block by block, with
its number tokens from orjson where it is installed and from ``repr``
otherwise, and the density tests run on both. The table, kdist and bound
references write each format on its own, straight from the library results.
"""

import csv
import importlib.util
import io
import json
import math
import re
import struct
import sys
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from weakpol import cli
from weakpol.measurement import (
    LIMIT,
    PAIR_LABELS,
    SINGLE_LABELS,
    OutcomeDensity,
    PointerGrid,
    outcome_density,
)
from weakpol.polarization import bell_expectation, bell_state, classical_chsh_bound, stokes_eigenstate
from weakpol.quasiprob import (
    PAIR_COLUMN_LABELS,
    PAIR_ROW_LABELS,
    S1_CENTERS,
    k_distribution,
    quasiprob_table,
)

SINGLE_COLUMNS = ["s1m", "p_s2_plus", "p_s2_minus"]
PAIR_COLUMNS = ["s1m_a", "s1m_b", "p_pp", "p_pm", "p_mp", "p_mm"]


def reference_text(fmt, command, config, density, columns):
    rows = []
    if len(density.grids) == 1:
        for i, m in enumerate(density.grids[0].points()):
            rows.append([float(m)] + [float(v) for v in density.values[i]])
    else:
        points_b = density.grids[1].points()
        for i, ma in enumerate(density.grids[0].points()):
            for j, mb in enumerate(points_b):
                rows.append([float(ma), float(mb)] + [float(v) for v in density.values[i, j]])
    if fmt == "json":
        document = {"command": command, "config": config, "data": {"columns": columns, "rows": rows}}
        return json.dumps(document, indent=2) + "\n"
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([[repr(v) for v in row] for row in rows])
    return buffer.getvalue()


HAVE_ORJSON = importlib.util.find_spec("orjson") is not None
TOKEN_SOURCES = ("orjson", "repr") if HAVE_ORJSON else ("repr",)


def on_each_token_source(produce):
    """``produce()`` with number tokens from orjson, if it is installed, and from repr, by source."""
    results = {}
    for source in TOKEN_SOURCES:
        with pytest.MonkeyPatch.context() as patch:
            if source == "repr":
                # None in sys.modules makes "import orjson" fail as if it were not installed.
                patch.setitem(sys.modules, "orjson", None)
            results[source] = produce()
    return results


def each_source(expected):
    return dict.fromkeys(TOKEN_SOURCES, expected)


def streamed_text(fmt, command, config, density, columns, runs=1):
    """The CLI's text of ``density``, fed to it in ``runs`` chunks of first-arm points."""
    chunks = np.array_split(density.values, runs)
    return "".join(cli._density_text(fmt, command, config, density.grids, chunks, columns))


def run_to_file(tmp_path, *argv):
    target = tmp_path / "out"
    assert cli.main([*argv, "--out", str(target)]) == 0
    return target.read_bytes()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_single_matches_reference(tmp_path, fmt):
    data = on_each_token_source(
        lambda: run_to_file(tmp_path, "single", "--delta-s", "0.6", "--grid", "-3:3:0.05", "--format", fmt)
    )
    density = outcome_density(stokes_eigenstate(2, +1), 0.6, PointerGrid(-3.0, 3.0, 0.05))
    config = {"state": "y+", "delta_s": 0.6, "grid": "-3.0:3.0:0.05"}
    assert data == each_source(reference_text(fmt, "single", config, density, SINGLE_COLUMNS).encode("utf-8"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_pair_with_separate_arm_b_grid_matches_reference(tmp_path, fmt):
    argv = ["pair", "--delta-s", "1.3", "--grid", "-2:2:0.25", "--grid-b", "-1:1.5:0.5", "--format", fmt]
    data = on_each_token_source(lambda: run_to_file(tmp_path, *argv))
    grid_a, grid_b = PointerGrid(-2.0, 2.0, 0.25), PointerGrid(-1.0, 1.5, 0.5)
    density = outcome_density(bell_state(), 1.3, grid_a, grid_b)
    config = {"state": "bell", "delta_s": 1.3, "grid": "-2.0:2.0:0.25", "grid_b": "-1.0:1.5:0.5"}
    assert data == each_source(reference_text(fmt, "pair", config, density, PAIR_COLUMNS).encode("utf-8"))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_stdout_matches_reference(capsys, fmt):
    def stdout():
        assert cli.main(["pair", "--delta-s", "2", "--grid", "-1:1:0.5", "--format", fmt]) == 0
        return capsys.readouterr().out

    outputs = on_each_token_source(stdout)
    density = outcome_density(bell_state(), 2.0, PointerGrid(-1.0, 1.0, 0.5), PointerGrid(-1.0, 1.0, 0.5))
    config = {"state": "bell", "delta_s": 2.0, "grid": "-1.0:1.0:0.5", "grid_b": "-1.0:1.0:0.5"}
    assert outputs == each_source(reference_text(fmt, "pair", config, density, PAIR_COLUMNS))


SPECIAL_VALUES = [-0.0, 5e-324, 2.2250738585072014e-308 / 3, 1e308, math.nan, math.inf, -math.inf, 0.1, -1e-05]


def special_values(shape):
    return np.resize(np.array(SPECIAL_VALUES), shape)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_special_values_single(tmp_path, monkeypatch, fmt):
    grid = PointerGrid(-1.0, 1.0, 0.5)
    density = OutcomeDensity((grid,), special_values((grid.count, 2)))
    monkeypatch.setattr(cli, "_density_chunks", lambda *args: iter(np.array_split(density.values, 2)))
    data = on_each_token_source(lambda: run_to_file(tmp_path, "single", "--grid", "-1:1:0.5", "--format", fmt))
    config = {"state": "y+", "delta_s": 0.6, "grid": "-1.0:1.0:0.5"}
    expected = reference_text(fmt, "single", config, density, SINGLE_COLUMNS)
    assert data == each_source(expected.encode("utf-8"))
    assert ("NaN" if fmt == "json" else "nan") in expected


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_special_values_pair(tmp_path, monkeypatch, fmt):
    grid_a, grid_b = PointerGrid(-1.0, 1.0, 1.0), PointerGrid(0.0, 0.5, 0.25)
    density = OutcomeDensity((grid_a, grid_b), special_values((grid_a.count, grid_b.count, 4)))
    monkeypatch.setattr(cli, "_density_chunks", lambda *args: iter(np.array_split(density.values, 2)))
    argv = ["pair", "--grid", "-1:1:1", "--grid-b", "0:0.5:0.25", "--format", fmt]
    data = on_each_token_source(lambda: run_to_file(tmp_path, *argv))
    config = {"state": "bell", "delta_s": 2.0, "grid": "-1.0:1.0:1.0", "grid_b": "0.0:0.5:0.25"}
    expected = reference_text(fmt, "pair", config, density, PAIR_COLUMNS)
    assert data == each_source(expected.encode("utf-8"))
    assert ("-Infinity" if fmt == "json" else "-inf") in expected


def small_grid():
    return st.tuples(st.floats(-1e6, 1e6), st.integers(1, 4), st.floats(1e-3, 1e3)).map(
        lambda t: PointerGrid(t[0], t[0] + t[1] * t[2], t[2])
    )


@st.composite
def densities(draw):
    grid_list = tuple(draw(st.lists(small_grid(), min_size=1, max_size=2)))
    labels = SINGLE_LABELS if len(grid_list) == 1 else PAIR_LABELS
    shape = tuple(grid.count for grid in grid_list) + (len(labels),)
    values = draw(arrays(np.float64, shape, elements=st.floats(allow_nan=True, allow_infinity=True)))
    return OutcomeDensity(grid_list, values)


@settings(max_examples=200, deadline=None)
@given(density=densities(), fmt=st.sampled_from(["csv", "json"]), data=st.data())
def test_streamed_text_matches_reference_for_any_values(density, fmt, data):
    columns = SINGLE_COLUMNS if len(density.grids) == 1 else PAIR_COLUMNS
    # A config string that dumps exactly like the rows placeholder of the streamer.
    config = {"state": "\0rows", "delta_s": 0.5}
    runs = data.draw(st.integers(1, density.grids[0].count), label="runs")
    outputs = on_each_token_source(lambda: streamed_text(fmt, "x", config, density, columns, runs))
    assert outputs == each_source(reference_text(fmt, "x", config, density, columns))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_streamed_text_spans_several_blocks(monkeypatch, fmt):
    # 15 rows in blocks of 4: three full blocks and a short last one.
    monkeypatch.setattr(cli, "_BLOCK_ROWS", 4)
    grid_a, grid_b = PointerGrid(-1.0, 1.0, 0.5), PointerGrid(0.0, 1.0, 0.5)
    density = outcome_density(bell_state(), 0.7, grid_a, grid_b)
    config = {"state": "bell", "delta_s": 0.7}
    # Runs of 2, 2 and 1 arm-a points: blocks end with each chunk, as well as every 4 rows.
    outputs = on_each_token_source(lambda: streamed_text(fmt, "pair", config, density, PAIR_COLUMNS, runs=3))
    assert outputs == each_source(reference_text(fmt, "pair", config, density, PAIR_COLUMNS))


@pytest.mark.skipif(not HAVE_ORJSON, reason="orjson is not installed")
def test_installed_orjson_passes_the_probe():
    # Else density output falls back to repr, and the orjson tests above test that path twice.
    assert cli._orjson() is not None


def test_orjson_spelling_floats_otherwise_is_not_used(monkeypatch):
    # A stand-in that spells floats as repr does ("1e-07"), unlike orjson 3.8 ("1e-7").
    stand_in = types.SimpleNamespace(
        OPT_SERIALIZE_NUMPY=0, dumps=lambda values, option: json.dumps(values.tolist(), separators=(",", ":")).encode()
    )
    monkeypatch.setitem(sys.modules, "orjson", stand_in)
    assert cli._orjson() is None


# orjson and repr spell a float differently when |x| is in [1e-9, 1e-4) or at
# least 1e16; these are the edges of those bands and their neighbours.
BAND_EDGE_VALUES = [
    sign * value
    for edge in (1e-9, 1e-5, 1e-4, 1e16)
    for value in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))
    for sign in (1.0, -1.0)
]


def float_from_bits(bits):
    return struct.unpack("<d", bits.to_bytes(8, "little"))[0]


# Floats from random bit patterns: every exponent of float64 equally likely.
any_float64 = st.one_of(st.floats(), st.integers(0, 2**64 - 1).map(float_from_bits))


@pytest.mark.skipif(not HAVE_ORJSON, reason="orjson is not installed")
@pytest.mark.parametrize("number", [float.__repr__, json.dumps])
def test_orjson_tokens_match_number_at_band_edges(number):
    import orjson

    assert cli._tokens(np.array(BAND_EDGE_VALUES), number, orjson).tolist() == list(map(number, BAND_EDGE_VALUES))


@pytest.mark.skipif(not HAVE_ORJSON, reason="orjson is not installed")
@settings(max_examples=300, deadline=None)
@given(
    values=arrays(np.float64, st.integers(1, 64), elements=any_float64),
    number=st.sampled_from([float.__repr__, json.dumps]),
)
def test_orjson_tokens_match_number_over_the_float64_range(values, number):
    import orjson

    assert cli._tokens(values, number, orjson).tolist() == list(map(number, values.tolist()))


def csv_document(header, rows):
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def json_document(command, config, data):
    return json.dumps({"command": command, "config": config, "data": data}, indent=2) + "\n"


def reference_table(system, delta_s, fmt):
    single = system == "single"
    if single:
        table = quasiprob_table(stokes_eigenstate(2, +1), delta_s)
    else:
        table = quasiprob_table(bell_state(), delta_s)
    delta_s_config = "inf" if math.isinf(delta_s) else delta_s
    config = {"system": system, "state": "y+" if single else "bell", "delta_s": delta_s_config}
    if fmt == "json":
        if single:
            records = [{"labels": {"s1": s1, "s2": s2}, "weight": w} for (s1, s2), w in table.entries.items()]
        else:
            records = [{"labels": {"a": list(a), "b": list(b)}, "weight": w} for (a, b), w in table.entries.items()]
        return json_document("table", config, records)
    if single:
        header = ["s2"] + [f"s1={s1}" for s1 in S1_CENTERS]
        rows = [[f"{s2:+d}"] + [repr(table.entries[(s1, s2)]) for s1 in S1_CENTERS] for s2 in SINGLE_LABELS]
    else:
        header = ["(s1b,s2b)\\(s1a,s2a)"] + [f"({a[0]},{a[1]})" for a in PAIR_COLUMN_LABELS]
        rows = [
            [f"({b[0]},{b[1]})"] + [repr(table.entries[(a, b)]) for a in PAIR_COLUMN_LABELS] for b in PAIR_ROW_LABELS
        ]
    return csv_document(header, rows)


def reference_kdist(delta_s, fmt):
    distribution = k_distribution(quasiprob_table(bell_state(), delta_s))
    weights = distribution.weights
    ordered = sorted(weights, reverse=True)
    if fmt == "json":
        data = [{"k": k, "weight": weights[k], "percent": cli._round_percent(weights[k])} for k in ordered]
        return json_document("kdist", {"state": "bell", "delta_s": "inf" if math.isinf(delta_s) else delta_s}, data)
    if fmt == "csv":
        rows = [[str(k), repr(weights[k]), f"{cli._round_percent(weights[k]):.1f}"] for k in ordered]
        return csv_document(["k", "weight", "percent"], rows)
    lines = [f"K={k}: {cli._round_percent(weights[k]):.1f}% (weight {weights[k]!r})" for k in ordered]
    lines += [f"sum of weights = {distribution.total()!r}", f"mean K = {distribution.mean()!r}"]
    return "\n".join(lines) + "\n"


def reference_bound(fmt):
    bound, quantum = classical_chsh_bound(), bell_expectation()
    margin = quantum - bound
    if fmt == "json":
        data = {"classical_bound": bound, "quantum_expectation": quantum, "violation_margin": margin}
        return json_document("bound", {}, data)
    return f"classical max K = {bound:g}; quantum <K> = {quantum:.6f}; violation margin = {margin:.6f}\n"


def cli_stdout(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("delta_s", ["inf", "1.5"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("system", ["single", "pair"])
def test_table_matches_reference(capsys, system, fmt, delta_s):
    out = cli_stdout(capsys, "table", "--system", system, "--delta-s", delta_s, "--format", fmt)
    assert out == reference_table(system, LIMIT if delta_s == "inf" else float(delta_s), fmt)


@pytest.mark.parametrize("delta_s", ["inf", "1.5"])
@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_kdist_matches_reference(capsys, fmt, delta_s):
    out = cli_stdout(capsys, "kdist", "--delta-s", delta_s, "--format", fmt)
    assert out == reference_kdist(LIMIT if delta_s == "inf" else float(delta_s), fmt)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_bound_matches_reference(capsys, fmt):
    assert cli_stdout(capsys, "bound", "--format", fmt) == reference_bound(fmt)


CHECK_LIMITS = [
    ("completeness defect (delta_s=0.6)", "1e-06"),
    ("completeness defect (delta_s=2)", "1e-06"),
    ("closed-form oracle agreement", "1e-12"),
    ("deconvolution matches analytic table (single)", "1e-08"),
    ("deconvolution matches analytic table (pair)", "1e-06"),
    ("table totals equal one", "1e-12"),
    ("zero total weight at s1=0", "1e-12"),
    ("density rebuilt from table weights", "1e-10"),
    ("CHSH expectation equals 2*sqrt(2)", "1e-12"),
]


def test_check_line_layout(capsys):
    lines = cli_stdout(capsys, "check").split("\n")
    assert len(lines) == 12 and lines[-1] == ""
    for line, (name, limit) in zip(lines, CHECK_LIMITS):
        assert re.fullmatch(rf"PASS {re.escape(name)}: \d\.\d{{3}}e[+-]\d\d < {limit}", line), line
    assert lines[9] == "PASS classical CHSH bound equals 2: brute force over 16 assignments"
    assert lines[10] == "10/10 checks passed"
