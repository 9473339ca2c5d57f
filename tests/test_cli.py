import contextlib
import csv
import errno
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakpol import cli, measurement
from weakpol.measurement import PointerGrid, outcome_density
from weakpol.polarization import bell_state, stokes_eigenstate
from weakpol.quasiprob import IllConditionedDesignError


# An integer of more digits than int() converts by default (4300).
HUGE_INTEGER_STATE = '{"amplitudes": [[' + "1" * 5000 + ", 0], [0, 0]]}"


def _normalized(pairs):
    parts = [float(part) for pair in pairs for part in pair]
    norm = math.hypot(*parts)
    if not 0 < norm < math.inf:
        return pairs
    return [[re / norm, im / norm] for re, im in zip(parts[::2], parts[1::2])]


def state_documents():
    """State files of 2 or 4 amplitudes: any finite floats or integers up to 1e30, normalized or not."""
    part = st.floats(allow_nan=False, allow_infinity=False) | st.integers(-(10**30), 10**30)
    amplitudes = st.sampled_from([2, 4]).flatmap(lambda n: st.lists(st.tuples(part, part), min_size=n, max_size=n))
    amplitudes = amplitudes | amplitudes.map(_normalized)
    return amplitudes.map(lambda pairs: json.dumps({"amplitudes": pairs}))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


class TestSingleCommand:
    def test_csv_on_stdout(self, capsys):
        code, out, _ = run_cli(
            capsys, "single", "--state", "y+", "--delta-s", "0.6", "--grid", "-4:4:0.01"
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["s1m", "p_s2_plus", "p_s2_minus"]
        assert len(rows) == 801
        density = outcome_density(stokes_eigenstate(2, +1), 0.6, PointerGrid(-4, 4, 0.01))
        for i in (0, 400, 800):
            assert float(rows[i][0]) == density.grids[0].points()[i]
            assert float(rows[i][1]) == density.sheet(1)[i]
            assert float(rows[i][2]) == density.sheet(-1)[i]

    def test_csv_uses_lf_line_endings(self, capsys):
        _, out, _ = run_cli(capsys, "single", "--grid", "-1:1:0.5")
        assert "\r" not in out
        assert out.endswith("\n")

    def test_json_round_trip_is_exact(self, capsys):
        code, out, _ = run_cli(
            capsys, "single", "--delta-s", "0.6", "--grid", "-2:2:0.1", "--format", "json"
        )
        assert code == 0
        document = json.loads(out)
        assert document["command"] == "single"
        assert document["config"]["delta_s"] == 0.6
        density = outcome_density(stokes_eigenstate(2, +1), 0.6, PointerGrid(-2, 2, 0.1))
        for i, row in enumerate(document["data"]["rows"]):
            assert row[1] == density.sheet(1)[i]
            assert row[2] == density.sheet(-1)[i]

    def test_csv_and_json_carry_identical_values(self, capsys):
        _, csv_out, _ = run_cli(capsys, "single", "--grid", "-2:2:0.1")
        _, json_out, _ = run_cli(capsys, "single", "--grid", "-2:2:0.1", "--format", "json")
        _, rows = parse_csv(csv_out)
        json_rows = json.loads(json_out)["data"]["rows"]
        assert len(rows) == len(json_rows)
        for csv_row, json_row in zip(rows, json_rows):
            assert [float(cell) for cell in csv_row] == json_row

    def test_infinite_resolution_rejected(self, capsys):
        code, _, err = run_cli(capsys, "single", "--delta-s", "inf")
        assert code == 2
        assert "inf" in err


class TestPairCommand:
    def test_csv_shape_and_values(self, capsys):
        code, out, _ = run_cli(capsys, "pair", "--delta-s", "1", "--grid", "-2:2:1")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["s1m_a", "s1m_b", "p_pp", "p_pm", "p_mp", "p_mm"]
        assert len(rows) == 25
        total = sum(float(cell) for row in rows for cell in row[2:])
        assert total > 0

    def test_separate_grid_for_arm_b(self, capsys):
        code, out, _ = run_cli(
            capsys, "pair", "--delta-s", "1", "--grid", "-2:2:1", "--grid-b", "-1:1:1"
        )
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 15
        assert {row[1] for row in rows} == {"-1.0", "0.0", "1.0"}


class TestChunkedDensityOutput:
    """Densities in one run of at most _RUN_ROWS (1024) rows, and in many, print the library's one-product values."""

    @pytest.mark.parametrize(
        "grids,fmt,runs",
        [
            # Runs of whole first-arm points: 4 of 256 rows, 3 of 257, 32 of 32 and 1 of 655.
            ((PointerGrid(-2, 2, 4 / 255), PointerGrid(-2, 2, 4 / 255)), "csv", 64),
            ((PointerGrid(-2, 2, 4 / 255), PointerGrid(-2, 2, 4 / 256)), "json", 86),
            ((PointerGrid(-14, 14, 28 / 2048), PointerGrid(-3, 3, 6 / 31)), "csv", 65),
            ((PointerGrid(-3, 3, 6 / 99), PointerGrid(-14, 14, 28 / 654)), "json", 100),
            # 131073 rows in runs of 1024 leave a last run of one row.
            ((PointerGrid(-6, 6, 12 / 2**17),), "csv", 129),
            ((PointerGrid(-6, 6, 12 / 2**17),), "json", 129),
            ((PointerGrid(-2, 2, 4 / 31), PointerGrid(-2, 2, 4 / 31)), "csv", 1),
            # Each first-arm point has 1025 rows: runs of 1024 rows and of 1.
            ((PointerGrid(-2, 2, 4), PointerGrid(-2, 2, 4 / 1024)), "json", 4),
        ],
        ids=[
            "pair-256x256", "pair-256x257", "pair-2049x32", "pair-100x655", "single-131073-csv", "single-131073-json",
            "pair-32x32", "pair-2x1025",
        ],
    )
    def test_output_parses_to_library_values(self, capsys, grids, fmt, runs):
        state, delta_s = (stokes_eigenstate(2, +1), 0.6) if len(grids) == 1 else (bell_state(), 2.0)
        expected = outcome_density(state, delta_s, *grids)
        lengths = [len(run) for run in measurement._density_chunks(state, delta_s, grids)]
        assert len(lengths) == runs and max(lengths) <= measurement._RUN_ROWS

        argv = ["pair" if len(grids) == 2 else "single", "--delta-s", repr(delta_s), "--format", fmt]
        for option, grid in zip(("--grid", "--grid-b"), grids):
            argv.append(f"{option}={grid.lo!r}:{grid.hi!r}:{grid.step!r}")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        if fmt == "csv":
            rows = np.loadtxt(io.StringIO(out), delimiter=",", skiprows=1)
        else:
            rows = np.array(json.loads(out)["data"]["rows"])
        coordinates = np.meshgrid(*(grid.points() for grid in grids), indexing="ij")
        assert np.array_equal(rows[:, : len(grids)], np.stack([c.ravel() for c in coordinates], axis=1))
        assert np.array_equal(rows[:, len(grids) :], expected.values.reshape(-1, expected.values.shape[-1]))

    def test_each_chunk_is_dropped_before_the_next_is_computed(self):
        held = []

        def chunks():
            for _ in range(4):
                chunk = np.full((1, 2), 0.25)
                alive = weakref.ref(chunk)
                yield chunk
                del chunk
                # The writer has asked for the next chunk: it should hold none.
                held.append(alive() is not None)

        text = "".join(cli._density_rows([PointerGrid(0.0, 3.0, 1.0)], chunks(), "", ",", "\n", "", float.__repr__))
        assert text == "0.0,0.25,0.25\n1.0,0.25,0.25\n2.0,0.25,0.25\n3.0,0.25,0.25\n"
        assert held == [False] * 4


class TestTableCommand:
    def test_pair_limit_table_anchor_cell(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--state", "bell", "--delta-s", "inf")
        assert code == 0
        header, rows = parse_csv(out)
        column = header.index("(1,1)")
        row = next(r for r in rows if r[0] == "(1,1)")
        assert float(row[column]) == pytest.approx((2 + math.sqrt(2)) / 32, abs=1e-12)
        assert abs(float(row[column]) - 0.106694) < 5e-7

    def test_single_table_layout(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--state", "y+", "--delta-s", "inf")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["s2", "s1=-1", "s1=0", "s1=1"]
        assert [row[0] for row in rows] == ["+1", "-1"]
        assert float(rows[0][2]) == pytest.approx(0.5, abs=1e-12)
        assert float(rows[1][2]) == pytest.approx(-0.5, abs=1e-12)

    def test_json_records_in_serialization_order(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "--state", "bell", "--delta-s", "inf", "--format", "json"
        )
        assert code == 0
        records = json.loads(out)["data"]
        assert len(records) == 36
        assert records[0]["labels"] == {"a": [-1, -1], "b": [1, 1]}
        assert records[-1]["labels"] == {"a": [1, 1], "b": [-1, -1]}
        assert sum(record["weight"] for record in records) == pytest.approx(1.0, abs=1e-12)

    def test_system_inferred_from_state(self, capsys):
        code, out, _ = run_cli(capsys, "table", "--state", "bell")
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 6


class TestKdistCommand:
    def test_text_lines(self, capsys):
        code, out, _ = run_cli(capsys, "kdist")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].startswith("K=2: 103.0% (weight ")
        assert lines[4].startswith("K=-2: -3.0% (weight ")
        # The exact weights are (4 +- 3*sqrt(2))/8; 5e-15 either side of them.
        weight_plus = float(lines[0].split("(weight ")[1].rstrip(")"))
        weight_minus = float(lines[4].split("(weight ")[1].rstrip(")"))
        assert abs(weight_plus - (4 + 3 * math.sqrt(2)) / 8) <= 5e-15
        assert abs(weight_minus - (4 - 3 * math.sqrt(2)) / 8) <= 5e-15

    def test_csv_percent_matches_half_away_rounding(self, capsys):
        code, out, _ = run_cli(capsys, "kdist", "--format", "csv")
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["k", "weight", "percent"]
        for row in rows:
            weight = float(row[1])
            assert float(row[2]) == cli._round_percent(weight)

    def test_json_weights_are_exact(self, capsys):
        code, out, _ = run_cli(capsys, "kdist", "--format", "json")
        assert code == 0
        data = json.loads(out)["data"]
        weights = {record["k"]: record["weight"] for record in data}
        assert weights[2] == pytest.approx((4 + 3 * math.sqrt(2)) / 8, abs=1e-12)
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(k * w for k, w in weights.items()) == pytest.approx(
            2 * math.sqrt(2), abs=1e-12
        )


class TestBoundCommand:
    def test_text_output(self, capsys):
        code, out, _ = run_cli(capsys, "bound")
        assert code == 0
        assert out.startswith("classical max K = 2; quantum <K> = 2.828427")
        assert "violation margin = 0.828427" in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--format", "json")
        assert code == 0
        data = json.loads(out)["data"]
        assert data["classical_bound"] == 2.0
        assert data["quantum_expectation"] == pytest.approx(2 * math.sqrt(2), abs=1e-12)


class TestCheckCommand:
    def test_all_diagnostics_pass(self, capsys):
        code, out, _ = run_cli(capsys, "check")
        assert code == 0
        assert "FAIL" not in out
        assert out.count("PASS") == 10

    def test_rebuild_comparison_holds_two_density_sized_arrays(self):
        # The pair rebuild and its density on 561 x 561 points take 10.07 MB each; their difference is made in place.
        tracemalloc.start()
        try:
            cli._check_results()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 25e6


class TestRoundHalfAwayFromZero:
    @pytest.mark.parametrize(
        "weight,expected",
        [(1.03033, 103.0), (-0.03033, -3.0), (0.35355, 35.4), (-0.35355, -35.4), (0.0005, 0.1), (-0.0005, -0.1)],
    )
    def test_examples(self, weight, expected):
        assert cli._round_percent(weight) == expected

    def test_tiny_negative_residue_is_positive_zero(self):
        # A K=0 weight of -2.8e-17 is rounding residue of an exact zero.
        rounded = cli._round_percent(-2.8e-17)
        assert math.copysign(1.0, rounded) == 1.0
        assert f"{rounded:.1f}" == "0.0"


class TestErrorsAndExitCodes:
    def test_bad_grid_is_usage_error(self, capsys):
        for grid in ("oops", "a:b:c"):
            code, _, err = run_cli(capsys, "single", "--grid", grid)
            assert code == 2 and "grid" in err

    def test_empty_grid_b_is_usage_error(self, capsys):
        # An empty --grid-b is a grid like an empty --grid, not "same as --grid".
        code, out, err = run_cli(capsys, "pair", "--grid", "-1:1:1", "--grid-b", "")
        assert (code, out) == (2, "")
        assert err == run_cli(capsys, "pair", "--grid", "")[2] == "error: grid must be LO:HI:STEP, got ''\n"

    def test_unknown_state_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "single", "--state", "zz")
        assert code == 2 and "unknown state" in err

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_numerical_guard_maps_to_exit_three(self, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise IllConditionedDesignError(5.0, 1e12)

        monkeypatch.setattr(cli, "quasiprob_table", explode)
        code, _, err = run_cli(capsys, "kdist")
        assert code == 3
        assert "ill-conditioned" in err

    def test_state_file_must_be_normalized(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"amplitudes": [[1.0, 0.0], [1.0, 0.0]]}))
        code, _, err = run_cli(capsys, "single", "--state-file", str(path))
        assert code == 2 and "normalized" in err

    @pytest.mark.parametrize(
        "content, message",
        [
            (b'{"amplitudes": [[1, 0], [0, 0]], "x": "\xff"}', "is not UTF-8"),
            (b"[" * 100000 + b"]" * 100000, "is nested too deeply to parse"),
            (b"amplitudes", "is not valid JSON"),
            (b"[]", "must contain an 'amplitudes' list"),
            (b'{"amplitudes": [[1, 0]]}', "must contain an 'amplitudes' list"),
            # Python 3.10.0 to 3.10.6 parse any integer, and fail later at the amplitude.
            (HUGE_INTEGER_STATE.encode(), ""),
        ],
        ids=["not-utf8", "too-deep", "not-json", "no-amplitudes", "one-amplitude", "huge-integer"],
    )
    def test_malformed_state_file_is_usage_error(self, capsys, tmp_path, content, message):
        path = tmp_path / "state.json"
        path.write_bytes(content)
        code, out, err = run_cli(capsys, "single", "--state-file", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: state file {str(path)!r} ") and message in err and err.count("\n") == 1

    @pytest.mark.parametrize("amplitudes", ["[[NaN, 0], [0, 0]]", "[[Infinity, 0], [0, 0]]", "[[1e400, 0], [0, 0]]"])
    def test_state_file_must_be_finite(self, capsys, tmp_path, amplitudes):
        path = tmp_path / "state.json"
        path.write_text('{"amplitudes": %s}' % amplitudes)
        code, out, err = run_cli(capsys, "single", "--state-file", str(path))
        assert code == 2 and "amplitudes must be finite" in err
        assert out == ""

    @pytest.mark.parametrize("amplitudes", ["[[true, false], [false, false]]", "[[1, 0], [0, false]]"])
    def test_state_file_booleans_are_not_amplitudes(self, capsys, tmp_path, amplitudes):
        path = tmp_path / "state.json"
        path.write_text('{"amplitudes": %s}' % amplitudes)
        code, out, err = run_cli(capsys, "single", "--state-file", str(path))
        assert code == 2 and "each amplitude must be an [re, im] pair" in err
        assert out == ""

    @pytest.mark.parametrize(
        "grid", ["0:1:inf", "0:inf:1", "-inf:0:1", "0:1:nan", "--grid -inf:0:1", "--grid -nan:0:1"]
    )
    def test_non_finite_grid_is_usage_error(self, capsys, grid):
        # "--grid VALUE" passes a value with a leading dash as its own argument.
        argv = grid.split(" ") if grid.startswith("--") else [f"--grid={grid}"]
        code, out, err = run_cli(capsys, "single", *argv)
        assert code == 2 and "must be finite" in err
        assert out == ""

    def test_grid_with_infinite_span_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "single", "--grid=-1e308:1e308:1")
        assert code == 2 and err.startswith("error: grid span") and err.count("\n") == 1
        assert out == ""

    # A finite span whose last point, lo + step * 3, overflows.
    @pytest.mark.parametrize(
        "argv",
        [
            ["single", "--grid=0:1.7976931348623157e308:5.992310449541053e307"],
            ["single", "--grid=-1.7976931348623157e308:0:5.992310449541053e307"],
            ["pair", "--grid=0:1.7976931348623157e308:5.992310449541053e307"],
            ["pair", "--grid=0:1.7976931348623157e308:5.992310449541053e307", "--format", "json"],
        ],
        ids=["single", "single-negative", "pair-csv", "pair-json"],
    )
    def test_grid_whose_last_point_overflows_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith("error: grid's last point must be finite") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("command", ["single", "pair", "table", "kdist"])
    def test_state_and_state_file_together_is_usage_error(self, capsys, tmp_path, command):
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"amplitudes": [[0.5, 0.0], [0.5, 0.0], [0.5, 0.0], [0.5, 0.0]]}))
        code, out, err = run_cli(capsys, command, "--state", "bell", "--state-file", str(path))
        assert code == 2 and "not both" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["single", "pair", "table", "kdist"])
    def test_empty_state_name_is_usage_error(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--state", "")
        assert code == 2 and "unknown state ''" in err
        assert out == ""

    @pytest.mark.parametrize("command", ["single", "pair", "table", "kdist"])
    def test_empty_state_file_path_is_usage_error(self, capsys, command):
        code, out, err = run_cli(capsys, command, "--state-file", "")
        assert code == 2 and err == "error: --state-file needs a path, got ''\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["single", "--grid=-14:14:1e-7"],
            ["single", "--grid=-7.5:7.5:1e-5"],
            ["pair", "--grid=-14:14:1e-4"],
            ["pair", "--grid-b=-14:14:1e-5"],
            ["pair", "--grid", "0:1:1", "--grid-b=-14:14:2.1e-5"],
        ],
        ids=[
            "single-280M-points", "single-1.5M-points", "pair-280k-points-per-arm", "pair-2.8M-points-in-arm-b",
            "pair-2x1.3M-points",
        ],
    )
    @pytest.mark.usefixtures("address_space_cap")
    def test_density_over_the_size_budget_is_usage_error(self, capsys, tmp_path, argv):
        # -14:14:1e-7 is 280M points: about 2 GiB of factors before the budget check existed.
        # -7.5:7.5:1e-5 is 1.5M points, 3M cells: over the points budget only.
        # 0:1:1 by -14:14:2.1e-5 is 10.7M cells, but arm b's kernel arrays would take 960 MB.
        target = tmp_path / "out.csv"
        tracemalloc.start()
        try:
            code, out, err = run_cli(capsys, *argv, "--out", str(target))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2 and "over the size budget" in err and err.count("\n") == 1
        assert out == "" and not target.exists()
        assert peak < 2**20

    @pytest.mark.parametrize(
        "argv", [["--delta-s", "1e-300"], ["--delta-s", "inf"], ["--state-file", "missing.json"], ["--state", "y+"]]
    )
    def test_rejected_input_creates_no_out_file(self, capsys, tmp_path, argv):
        target = tmp_path / "out.csv"
        code, out, err = run_cli(capsys, "pair", *argv, "--out", str(target))
        assert code == 2 and err.startswith("error: ") and err.count("\n") == 1
        assert out == "" and not target.exists()

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None)
    @given(
        bounds=st.tuples(st.floats(), st.floats(), st.floats()),
        command=st.sampled_from(["single", "pair"]),
    )
    # Far from the s1 eigenvalues, (m - e)/delta_s overflows before the Gaussian does.
    @example(bounds=(1e308, 1.7e308, 1e307), command="single")
    def test_any_float_grid_exits_zero_or_two(self, tmp_path_factory, bounds, command):
        # A budget of 64 KiB (4096 cells, 327 points per grid) keeps accepted grids small.
        target = tmp_path_factory.mktemp("grid") / "out.csv"
        text = ":".join(map(repr, bounds))
        stderr = io.StringIO()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(measurement, "_BUDGET_BYTES", 2**16)
            patch.setattr(sys, "stderr", stderr)
            code = cli.main([command, f"--grid={text}", "--out", str(target)])
        assert code in (0, 2)
        assert target.exists() == (code == 0)
        if code == 2:
            assert stderr.getvalue().startswith("error: ") and stderr.getvalue().count("\n") == 1
        else:
            assert stderr.getvalue() == ""

    def test_unwritable_out_path_exits_four(self, capsys, tmp_path):
        target = tmp_path / "missing" / "out.csv"
        code, out, err = run_cli(capsys, "single", "--grid", "-1:1:0.5", "--out", str(target))
        assert code == 4
        assert err.startswith("error: cannot write") and str(target) in err
        assert out == ""

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that fails every write")
    def test_failed_write_exits_four(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--out", "/dev/full")
        assert code == 4 and "cannot write" in err

    def test_write_error_mid_stream_removes_partial_file(self, capsys, tmp_path, monkeypatch):
        def fail_after_first_chunk(*args):
            yield np.full((1, 2), 0.25)
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "_density_chunks", fail_after_first_chunk)
        target = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "single", "--out", str(target))
        assert code == 4 and "No space left" in err
        assert not target.exists()

    def test_exception_mid_stream_removes_partial_file(self, capsys, tmp_path, monkeypatch):
        def fail_after_first_chunk(*args):
            yield np.full((1, 2), 0.25)
            raise RuntimeError("formatting failed")

        monkeypatch.setattr(cli, "_density_chunks", fail_after_first_chunk)
        target = tmp_path / "out.csv"
        code, _, err = run_cli(capsys, "single", "--out", str(target))
        assert (code, err) == (5, "error: internal error: RuntimeError: formatting failed\n")
        assert not target.exists()

    def test_unexpected_exception_exits_five_in_one_line(self, capsys, monkeypatch):
        def explode(args):
            raise RuntimeError("first line\nsecond line")

        help_text, _, *options = cli._COMMANDS["bound"]
        monkeypatch.setitem(cli._COMMANDS, "bound", (help_text, explode, *options))
        code, out, err = run_cli(capsys, "bound")
        assert (code, out, err) == (5, "", "error: internal error: RuntimeError: first line second line\n")

    def test_keyboard_interrupt_propagates(self, monkeypatch):
        def interrupt(args):
            raise KeyboardInterrupt

        help_text, _, *options = cli._COMMANDS["bound"]
        monkeypatch.setitem(cli._COMMANDS, "bound", (help_text, interrupt, *options))
        with pytest.raises(KeyboardInterrupt):
            cli.main(["bound"])

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(["single", "pair", "table", "kdist"]), text=state_documents())
    @example(command="single", text=HUGE_INTEGER_STATE)
    def test_any_state_amplitudes_exit_zero_or_two(self, tmp_path_factory, command, text):
        path = tmp_path_factory.mktemp("state") / "state.json"
        path.write_text(text)
        argv = [command, "--state-file", str(path)]
        if command in ("single", "pair"):
            argv += ["--grid", "-2:2:1"]
        out, err = io.StringIO(), io.StringIO()
        # A warning would print lines of its own to stderr; as an error it exits 5.
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(argv)
        assert code in (0, 2)
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        else:
            assert err.getvalue() == ""

    def test_state_file_round_trip_matches_named_state(self, capsys, tmp_path):
        root_half = 1.0 / math.sqrt(2.0)
        path = tmp_path / "state.json"
        path.write_text(json.dumps({"amplitudes": [[root_half, 0.0], [0.0, root_half]]}))
        _, from_file, _ = run_cli(
            capsys, "single", "--state-file", str(path), "--grid", "-2:2:0.5"
        )
        _, from_name, _ = run_cli(capsys, "single", "--state", "y+", "--grid", "-2:2:0.5")
        _, file_rows = parse_csv(from_file)
        _, name_rows = parse_csv(from_name)
        for file_row, name_row in zip(file_rows, name_rows):
            for file_cell, name_cell in zip(file_row, name_row):
                assert float(file_cell) == pytest.approx(float(name_cell), abs=1e-15)


class TestDeltaSRange:
    @pytest.mark.parametrize("command", ["single", "table", "kdist", "pair"])
    @pytest.mark.parametrize("delta_s", ["1e-200", "1e200", "-1", "-inf"])
    def test_out_of_range_is_usage_error(self, capsys, command, delta_s):
        code, out, err = run_cli(capsys, command, "--delta-s", delta_s)
        assert code == 2 and "7.5e-155 to 1.3e154" in err
        assert out == ""

    @settings(max_examples=40, deadline=None)
    @given(delta_s=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_every_positive_float_exits_zero_or_two(self, delta_s):
        for command in ("single", "pair", "table", "kdist"):
            argv = [command, "--delta-s", repr(delta_s)]
            if command in ("single", "pair"):
                argv += ["--grid", "-2:2:1"]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(argv)
            assert code in (0, 2)
            if code == 0:
                assert err.getvalue() == ""
                assert "nan" not in out.getvalue().lower() and "inf" not in out.getvalue().lower()


class TestClosedStdout:
    def test_closed_pipe_exits_four_without_traceback(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        # About 0.7 MB of CSV: far more than a pipe buffers, so writing must
        # go on after the reader has gone.
        process = subprocess.Popen(
            [sys.executable, "-m", "weakpol.cli", "single", "--grid", "-6:6:0.001"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        )
        assert process.stdout.readline() == b"s1m,p_s2_plus,p_s2_minus\n"
        process.stdout.close()
        with process.stderr:
            stderr = process.stderr.read().decode()
        assert process.wait(timeout=60) == 4
        assert "Traceback" not in stderr
        assert "error: cannot write" in stderr

    def test_closed_pipe_shared_with_stderr_exits_four(self):
        # As in "weakpol single 2>&1 | head -1": the error message cannot be written either.
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        process = subprocess.Popen(
            [sys.executable, "-m", "weakpol.cli", "single", "--grid", "-6:6:0.001"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            env=env,
        )
        assert process.stdout.readline() == b"s1m,p_s2_plus,p_s2_minus\n"
        process.stdout.close()
        assert process.wait(timeout=60) == 4

    @pytest.mark.parametrize("command", ["bound", "check"])
    def test_stdout_closed_at_start_exits_four_without_traceback(self, command):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        # ">&-" closes file descriptor 1 before Python starts, so sys.stdout is None.
        argv = ["sh", "-c", 'exec "$0" -m weakpol.cli "$1" >&-', sys.executable, command]
        result = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        stderr = result.stderr.decode()
        assert result.returncode == 4
        assert "Traceback" not in stderr
        assert stderr == "error: cannot write to standard output: it is closed\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that fails every write")
    @pytest.mark.parametrize("command", ["bound", "pair", "check", "kdist --format json"])
    def test_failed_write_to_stdout_exits_four_with_one_line(self, command):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        # Buffered, as by default: what is still buffered must not fail again in the flush at exit.
        env.pop("PYTHONUNBUFFERED", None)
        argv = ["sh", "-c", f'exec "$0" -m weakpol.cli {command} >/dev/full', sys.executable]
        result = subprocess.run(argv, capture_output=True, env=env, timeout=60)
        assert result.returncode == 4
        assert result.stderr.decode() == f"error: cannot write to standard output: {os.strerror(errno.ENOSPC)}\n"

    @pytest.mark.parametrize(
        "command,code",
        [
            ("single --state zz 2>&-", 2),
            ("table --state zz 2>&-", 2),
            ("bound >&- 2>&-", 4),
            ("single --state zz 2</dev/null", 2),
            ("table --state-file /nonexistent 2</dev/null", 2),
            ("pair --grid=-14:14:1e-7 2</dev/null", 2),
        ],
    )
    def test_stderr_closed_at_start_keeps_the_exit_code(self, command, code):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        # "2>&-" closes file descriptor 2 before Python starts, so sys.stderr is None;
        # "2</dev/null" opens it read-only, so every write to sys.stderr fails.
        argv = ["sh", "-c", f'exec "$0" -m weakpol.cli {command}', sys.executable]
        assert subprocess.run(argv, env=env, timeout=60).returncode == code


class TestDeterminism:
    def test_repeated_runs_are_byte_identical(self, tmp_path):
        targets = []
        for index in range(2):
            out_path = tmp_path / f"run{index}.csv"
            code = cli.main(
                ["pair", "--delta-s", "2", "--grid", "-6:6:0.25", "--out", str(out_path)]
            )
            assert code == 0
            targets.append(out_path.read_bytes())
        assert targets[0] == targets[1]

    def test_json_runs_are_byte_identical(self, tmp_path):
        outputs = []
        for index in range(2):
            out_path = tmp_path / f"table{index}.json"
            code = cli.main(
                ["table", "--state", "bell", "--delta-s", "inf", "--format", "json", "--out", str(out_path)]
            )
            assert code == 0
            outputs.append(out_path.read_bytes())
        assert outputs[0] == outputs[1]
