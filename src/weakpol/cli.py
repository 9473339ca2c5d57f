"""Command-line front end emitting densities, tables, and distributions.

Commands: single, pair, table, kdist, bound, check. Data commands serialize
to CSV or JSON (floats in shortest round-trip form, so re-parsing reproduces
the computed values exactly); bound and kdist default to short text
summaries. single and pair share one handler, driven by the arm count.
Density output is streamed from the library's runs of rows, one text block
per run, so memory stays bounded by one run rather than by the grid or the
size of the text; a density over the library's size budget is a usage
error. The bytes equal ``csv.writer`` over ``repr`` fields and
``json.dumps(indent=2)`` of the whole document. If the optional orjson
package is installed (``pip install weakpol[fast]``), it writes the number
tokens, about three times faster; where it spells a float differently from
``repr``, the token is padded or taken from ``repr``, so the bytes are the
same with and without it. table,
kdist, bound and check build their result once and write it through
``_render`` in the format ``--format`` names; table takes its layout from
the table's arm count, 1 for 2 amplitudes and 2 for 4. A write that fails
removes the partial ``--out`` file. Exit codes: 0 success, 1 failed check,
2 usage error, 3 numerical guard failure, 4 output I/O error (including a
stdout closed at start or by its reader), 5 internal error (any other
exception, reported in one line with its type). A stderr that cannot be
written loses the message, not the exit code.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from collections.abc import Iterable, Iterator
from decimal import Decimal, ROUND_HALF_UP
from pathlib import Path

import numpy as np

from .measurement import (
    LIMIT,
    PointerGrid,
    _RUN_ROWS,
    _density_chunks,
    completeness_defect,
    eigenstate_density_closed_form,
    outcome_density,
    validate_resolution,
)
from .polarization import (
    bell_expectation,
    bell_state,
    classical_chsh_bound,
    stokes_eigenstate,
)
from .quasiprob import (
    IllConditionedDesignError,
    deconvolve,
    k_distribution,
    quasiprob_table,
    reconstruct_density,
)

NAMED_STATES = {
    "y+": lambda: stokes_eigenstate(2, +1),
    "y-": lambda: stokes_eigenstate(2, -1),
    "x+": lambda: stokes_eigenstate(1, +1),
    "x-": lambda: stokes_eigenstate(1, -1),
    "r": lambda: stokes_eigenstate(3, +1),
    "l": lambda: stokes_eigenstate(3, -1),
    "bell": bell_state,
}


class UsageError(Exception):
    pass


class OutputError(Exception):
    """The output file could not be opened or written."""


def _parse_grid(text: str) -> PointerGrid:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"grid must be LO:HI:STEP, got {text!r}")
    try:
        lo, hi, step = (float(p) for p in parts)
    except ValueError:
        raise UsageError(f"grid must contain numbers, got {text!r}") from None
    try:
        return PointerGrid(lo, hi, step)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _parse_delta_s(text: str, allow_limit: bool) -> float:
    # Only the literal 'inf' selects the limit; "1e400" is an out-of-range number.
    limit = text.strip().lower() == "inf"
    if limit and not allow_limit:
        raise UsageError("delta-s 'inf' is only accepted by the table and kdist commands")
    try:
        return validate_resolution(float(text), allow_limit=limit)
    except ValueError as exc:
        raise UsageError(f"delta-s {text!r}: {exc}") from None


def _load_state_file(path: str) -> np.ndarray:
    # Path("") is the current directory, which would be reported as the error.
    if not path:
        raise UsageError("--state-file needs a path, got ''")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read state file {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"state file {path!r} is not UTF-8: {exc}") from None
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(f"state file {path!r} is not valid JSON: {exc}") from None
    except ValueError as exc:
        # An integer of more digits than int() converts (4300 by default).
        raise UsageError(f"state file {path!r} cannot be parsed: {exc}") from None
    except RecursionError:
        raise UsageError(f"state file {path!r} is nested too deeply to parse") from None
    amplitudes = document.get("amplitudes") if isinstance(document, dict) else None
    if not isinstance(amplitudes, list) or len(amplitudes) not in (2, 4):
        raise UsageError(
            f"state file {path!r} must contain an 'amplitudes' list of 2 or 4 [re, im] pairs"
        )
    try:
        state = np.array([complex(re, im) for re, im in amplitudes])
        # complex() reads JSON true and false as 1 and 0.
        if any(isinstance(part, bool) for pair in amplitudes for part in pair):
            raise TypeError
    except (TypeError, ValueError, OverflowError):
        raise UsageError(f"state file {path!r}: each amplitude must be an [re, im] pair") from None
    if not np.isfinite(state).all():
        raise UsageError(f"state file {path!r}: amplitudes must be finite numbers")
    # A norm past the float range is inf, which is not 1.
    with np.errstate(over="ignore"):
        norm = float(np.linalg.norm(state))
    if abs(norm - 1.0) > 1e-9:
        raise UsageError(f"state file {path!r}: amplitudes are not normalized (norm {norm})")
    return state / norm


def _resolve_state(args, default: str, arms: int | None = None) -> tuple[np.ndarray, str]:
    """The state from ``--state-file`` or ``--state`` (else ``default``), of ``2**arms`` amplitudes if given."""
    if args.state is not None and args.state_file is not None:
        raise UsageError("give --state or --state-file, not both")
    if args.state_file is not None:
        state, name = _load_state_file(args.state_file), f"file:{args.state_file}"
    else:
        name = default if args.state is None else args.state
        if name not in NAMED_STATES:
            raise UsageError(f"unknown state {name!r}; choose from {sorted(NAMED_STATES)} or --state-file")
        state = NAMED_STATES[name]()
    if arms is not None and state.size != 2**arms:
        raise UsageError(f"the {args.command} command needs a {2**arms}-amplitude state, got {state.size}")
    return state, name


def _round_percent(weight: float) -> float:
    """Percentage rounded half away from zero to one decimal; zero is always +0.0."""
    rounded = float(Decimal(repr(weight * 100.0)).quantize(Decimal("0.1"), rounding=ROUND_HALF_UP))
    # Adding +0.0 turns -0.0 into +0.0, so a tiny negative residue prints 0.0%.
    return rounded + 0.0


def _csv_text(header: list[str], rows: list[list[str]]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def _json_text(command: str, config: dict, data) -> str:
    return json.dumps({"command": command, "config": config, "data": data}, indent=2) + "\n"


def _write(chunks: Iterable[str], out: str | None) -> None:
    """Write text chunks to stdout, or to the file ``out``.

    If writing the file fails part way, the partial file is removed; OS errors
    on the file, and a stdout closed at start, become ``OutputError``.
    """
    if out is None:
        # Python sets sys.stdout to None when file descriptor 1 is closed at start.
        if sys.stdout is None:
            raise OutputError("cannot write to standard output: it is closed")
        for chunk in chunks:
            sys.stdout.write(chunk)
        # A closed pipe must fail here, inside main, not in the flush at exit.
        sys.stdout.flush()
        return
    try:
        handle = open(out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise OutputError(f"cannot write {out!r}: {exc.strerror or exc}") from None
    try:
        with handle:
            for chunk in chunks:
                handle.write(chunk)
    except BaseException as exc:
        path = Path(out)
        if path.is_file():
            path.unlink()
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {out!r}: {exc.strerror or exc}") from None
        raise


def _delta_s_config(delta_s: float):
    return "inf" if math.isinf(delta_s) else delta_s


def _tokens(values: np.ndarray, number, orjson) -> np.ndarray:
    """The text of each float in ``values``, in C order, as ``number`` writes it.

    ``number`` is ``float.__repr__`` or ``json.dumps``. The two agree on
    finite floats, so ``number`` writes only the non-finite tokens, and
    ``repr`` the others. Without ``orjson`` (the module, or None) every
    finite token comes from ``repr``. With it, one ``orjson.dumps`` gives the
    same shortest round-trip digits as ``repr``, spelled differently in three
    bands: for |x| in [1e-9, 1e-5) it writes a one-digit exponent (``1e-9``),
    which is padded to two; for |x| in [1e-5, 1e-4) ``0.0000123`` is respelled
    ``1.23e-05``; for |x| >= 1e16 and non-finite values the token is ``repr``'s.
    """
    flat = np.ravel(values)
    if orjson is None:
        tokens = np.fromiter(map(float.__repr__, flat.tolist()), dtype=object, count=flat.size)
    else:
        tokens = np.array(orjson.dumps(flat, option=orjson.OPT_SERIALIZE_NUMPY).decode()[1:-1].split(","), dtype=object)
        magnitude = np.abs(flat)
        short = (magnitude >= 1e-9) & (magnitude < 1e-5)
        if short.any():
            padded = orjson.dumps(flat[short], option=orjson.OPT_SERIALIZE_NUMPY).decode()
            tokens[short] = padded[1:-1].replace("e-", "e-0").split(",")
        fifth = (magnitude >= 1e-5) & (magnitude < 1e-4)
        parts = (token.partition("0.0000") for token in tokens[fifth].tolist())
        tokens[fifth] = [f"{sign}{d[0]}.{d[1:]}e-05" if len(d) > 1 else f"{sign}{d}e-05" for sign, _, d in parts]
        # NaN fails this comparison; the non-finite tokens are written by number below.
        other = magnitude >= 1e16
        tokens[other] = list(map(float.__repr__, flat[other].tolist()))
    # Per block, so that a streamed density needs no pass over all its values first.
    special = ~np.isfinite(flat)
    if special.any():
        tokens[special] = list(map(number, flat[special].tolist()))
    return tokens


# Each power of ten from 1e-12 to 1e20, its neighbours and their negatives:
# orjson and repr change how they spell a float only at powers of ten.
_PROBES = [
    sign * math.nextafter(float(f"1e{k}"), toward)
    for k in range(-12, 21)
    for toward in (0.0, float(f"1e{k}"), math.inf)
    for sign in (1.0, -1.0)
] + [0.0, -0.0, 5e-324, math.nan, math.inf]


def _orjson():
    """orjson, if it is installed and its tokens equal ``repr`` on ``_PROBES``; else None.

    It is imported here, not at the top, so that the CLI starts without it.
    """
    try:
        import orjson
    except ImportError:
        return None
    tokens = _tokens(np.array(_PROBES), float.__repr__, orjson).tolist()
    return orjson if tokens == list(map(float.__repr__, _PROBES)) else None


def _density_rows(
    grids: list[PointerGrid], runs: Iterable[np.ndarray], lead: str, sep: str, trail: str, joiner: str, number
) -> Iterator[str]:
    """Rows of a density as text, one block per run.

    ``runs`` are the values in runs of consecutive rows of shape (run length,
    labels), as ``measurement._density_chunks`` yields them by default: at
    most ``_RUN_ROWS`` (1024) rows each, at any grid size. No run is held
    while the next one is computed. A row is ``lead + sep.join(fields) +
    trail``: the grid coordinate of each arm, then the value of each label
    formatted by ``number``; rows are separated by ``joiner``. The first
    arm's coordinates are formatted per run, the other arms' once.
    """
    orjson = _orjson()
    first = grids[0].points()
    others = [_tokens(grid.points(), number, orjson) + sep for grid in grids[1:]]
    # A row's parts: the break from the previous row, which ends with this
    # row's lead, each coordinate with its sep, then the values with a sep
    # between them. The first row has only the lead. Every run refills one
    # buffer: a new one per run was about 10% slower.
    parts = np.full((_RUN_ROWS, len(grids) + 2 * 2 ** len(grids)), sep, dtype=object)
    parts[:, 0] = trail + joiner + lead
    start, skip = 0, len(trail + joiner)
    for run in runs:
        rows = len(run)
        first_index, *other_index = np.unravel_index(np.arange(start, start + rows), [grid.count for grid in grids])
        lo = first_index[0]
        parts[:rows, 1] = (_tokens(first[lo : first_index[-1] + 1], number, orjson) + sep)[first_index - lo]
        for axis, (tokens, index) in enumerate(zip(others, other_index), 2):
            parts[:rows, axis] = tokens[index]
        parts[:rows, len(grids) + 1 :: 2] = _tokens(run, number, orjson).reshape(rows, -1)
        del run  # Else the loop holds it while the next run is computed.
        start += rows
        yield "".join(parts[:rows].ravel().tolist())[skip:]
        skip = 0
    yield trail


# Stands in for the rows when the JSON head and tail are rendered.
_ROWS_PLACEHOLDER = "\0rows"


def _density_text(
    fmt: str, command: str, config: dict, grids: list[PointerGrid], runs: Iterable[np.ndarray], columns: list[str]
) -> Iterator[str]:
    """The CSV or JSON document of a density, streamed one block per run of rows.

    CSV equals ``csv.writer(lineterminator="\\n")`` over ``repr`` fields. JSON
    equals ``_json_text`` of ``{"columns": columns, "rows": [[coordinates...,
    values...], ...]}``: the head and tail come from ``json.dumps`` itself and
    the rows are laid out at the indent it gives the placeholder row.
    """
    if fmt == "csv":
        yield _csv_text(columns, [])
        yield from _density_rows(grids, runs, "", ",", "\n", "", float.__repr__)
        return
    text = _json_text(command, config, {"columns": columns, "rows": [_ROWS_PLACEHOLDER]})
    # The rows are the last value in the document, so the last match is theirs.
    head, _, tail = text.rpartition(json.dumps(_ROWS_PLACEHOLDER))
    indent = head[head.rindex("\n"):]
    field = indent + "  "
    yield head
    # json writes non-finite floats as NaN/Infinity/-Infinity, which repr does not.
    yield from _density_rows(grids, runs, "[" + field, "," + field, indent + "]", "," + indent, json.dumps)
    yield tail


# Systems in order of arm count: default state, density columns (pair: the first sign is arm a's s2, the
# second arm b's), and the table's CSV corner, JSON label names and column and row label formats.
_SYSTEMS = {
    "single": ("y+", ["s1m", "p_s2_plus", "p_s2_minus"], "s2", ("s1", "s2"), "s1={0}", "{0:+d}"),
    "pair": ("bell", ["s1m_a", "s1m_b", "p_pp", "p_pm", "p_mp", "p_mm"], "(s1b,s2b)\\(s1a,s2a)", ("a", "b"),
             "({0[0]},{0[1]})", "({0[0]},{0[1]})"),
}


def _cmd_density(args) -> int:
    arms = [*_SYSTEMS].index(args.command) + 1
    default_state, columns, *_ = _SYSTEMS[args.command]
    state, state_name = _resolve_state(args, default_state, arms)
    delta_s = _parse_delta_s(args.delta_s, allow_limit=False)
    first = _parse_grid(args.grid)
    # Every arm after the first reads --grid-b, which defaults to --grid.
    grids = [first] + [first if args.grid_b is None else _parse_grid(args.grid_b)] * (arms - 1)
    try:
        runs = _density_chunks(state, delta_s, grids)
    except ValueError as exc:
        # The state and delta_s are checked above; this is the size budget.
        raise UsageError(str(exc)) from None
    config = {"state": state_name, "delta_s": delta_s}
    config.update((key, f"{grid.lo}:{grid.hi}:{grid.step}") for key, grid in zip(("grid", "grid_b"), grids))
    _write(_density_text(args.format, args.command, config, grids, runs, columns), args.out)
    return 0


def _render(args, config: dict, data, csv_table: tuple[list[str], list[list[str]]] | None = None, lines=()) -> None:
    """Write a command's result as JSON ``data``, the CSV ``csv_table`` or text ``lines``, as ``--format`` asks."""
    if args.format == "json":
        text = _json_text(args.command, config, data)
    elif args.format == "csv":
        text = _csv_text(*csv_table)
    else:
        text = "".join(line + "\n" for line in lines)
    _write([text], args.out)


def _cmd_table(args) -> int:
    state, state_name = _resolve_state(args, _SYSTEMS["single"][0])
    delta_s = _parse_delta_s(args.delta_s, allow_limit=True)
    # The table's photon count, which the library reads from the state, picks the layout.
    table = quasiprob_table(state, delta_s)
    system = [*_SYSTEMS][table.arms - 1]
    *_, corner, names, column, row = _SYSTEMS[system]
    # Table entries come in table order, rows outermost, keyed (column label, row label).
    records = [{"labels": dict(zip(names, key)), "weight": w} for key, w in table.entries.items()]
    keys, weights = list(table.entries), list(map(repr, table.entries.values()))
    width = len({label for label, _ in keys})
    header = [corner] + [column.format(label) for label, _ in keys[:width]]
    rows = [[row.format(keys[i][1])] + weights[i : i + width] for i in range(0, len(keys), width)]
    config = {"system": system, "state": state_name, "delta_s": _delta_s_config(delta_s)}
    _render(args, config, records, (header, rows))
    return 0


def _cmd_kdist(args) -> int:
    state, state_name = _resolve_state(args, _SYSTEMS["pair"][0], arms=2)
    delta_s = _parse_delta_s(args.delta_s, allow_limit=True)
    distribution = k_distribution(quasiprob_table(state, delta_s))
    ordered = [(k, w, _round_percent(w)) for k, w in sorted(distribution.weights.items(), reverse=True)]
    lines = [f"K={k}: {percent:.1f}% (weight {w!r})" for k, w, percent in ordered]
    lines += [f"sum of weights = {distribution.total()!r}", f"mean K = {distribution.mean()!r}"]
    records = [{"k": k, "weight": w, "percent": percent} for k, w, percent in ordered]
    rows = [[str(k), repr(w), f"{percent:.1f}"] for k, w, percent in ordered]
    config = {"state": state_name, "delta_s": _delta_s_config(delta_s)}
    _render(args, config, records, (["k", "weight", "percent"], rows), lines)
    return 0


def _cmd_bound(args) -> int:
    bound, quantum = classical_chsh_bound(), bell_expectation()
    margin = quantum - bound
    data = {"classical_bound": bound, "quantum_expectation": quantum, "violation_margin": margin}
    line = f"classical max K = {bound:g}; quantum <K> = {quantum:.6f}; violation margin = {margin:.6f}"
    _render(args, {}, data, lines=[line])
    return 0


def _check_results() -> list[tuple[str, bool, str]]:
    results = []

    def record(name: str, value: float, limit: float):
        results.append((name, value < limit, f"{value:.3e} < {limit:.0e}"))

    record("completeness defect (delta_s=0.6)", completeness_defect(0.6, PointerGrid(-8, 8, 1e-3)), 1e-6)
    record("completeness defect (delta_s=2)", completeness_defect(2.0, PointerGrid(-14, 14, 1e-3)), 1e-6)

    yplus = stokes_eigenstate(2, +1)
    oracle_grid = PointerGrid(-4, 4, 0.01)
    worst = 0.0
    for delta_s in (0.3, 0.6, 1.0, 2.0):
        density = outcome_density(yplus, delta_s, oracle_grid)
        p_plus, p_minus = eigenstate_density_closed_form(delta_s, oracle_grid.points())
        worst = max(
            worst,
            float(np.max(np.abs(density.sheet(1) - p_plus))),
            float(np.max(np.abs(density.sheet(-1) - p_minus))),
        )
    record("closed-form oracle agreement", worst, 1e-12)

    # Per system, in order of arm count: the grid and limit of the deconvolution
    # at delta_s = 1. The rebuild takes the system's default state, --delta-s and --grid.
    fits = {"single": ((-8, 8, 0.01), 1e-8), "pair": ((-8, 8, 0.05), 1e-6)}
    totals, zeros, rebuilds = [], [], []
    for arms, (name, (fit_grid, fit_limit)) in enumerate(fits.items(), 1):
        state, delta_s = NAMED_STATES[_SYSTEMS[name][0]](), float(_COMMANDS[name][2])
        fit_grids, grids = [PointerGrid(*fit_grid)] * arms, [_parse_grid(_COMMANDS[name][3])] * arms
        recovered, analytic = deconvolve(outcome_density(state, 1.0, *fit_grids), 1.0), quasiprob_table(state, 1.0)
        diff = max(abs(recovered.entries[k] - analytic.entries[k]) for k in analytic.entries)
        record(f"deconvolution matches analytic table ({name})", diff, fit_limit)
        limit = quasiprob_table(state, LIMIT)
        totals.append(abs(limit.total - 1))
        # Each arm's s1 in a key: (s1, s2) for one photon, ((s1a, s2a), (s1b, s2b)) for a pair.
        s1 = [np.reshape(key, (-1, 2))[:, 0] for key in limit.entries]
        zeros += [abs(sum(w for s, w in zip(s1, limit.entries.values()) if s[arm] == 0)) for arm in range(arms)]
        rebuilt = reconstruct_density(quasiprob_table(state, delta_s), *grids).values
        rebuilt -= outcome_density(state, delta_s, *grids).values
        rebuilds.append(float(np.max(np.abs(rebuilt, out=rebuilt))))
    record("table totals equal one", max(totals), 1e-12)
    record("zero total weight at s1=0", max(zeros), 1e-12)
    record("density rebuilt from table weights", max(rebuilds), 1e-10)

    record("CHSH expectation equals 2*sqrt(2)", abs(bell_expectation() - 2.0 * math.sqrt(2.0)), 1e-12)
    results.append(("classical CHSH bound equals 2", classical_chsh_bound() == 2.0, "brute force over 16 assignments"))
    return results


def _cmd_check(args) -> int:
    results = _check_results()
    failed = sum(1 for _, ok, _ in results if not ok)
    lines = [f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in results]
    _render(args, {}, None, lines=[*lines, f"{len(results) - failed}/{len(results)} checks passed"])
    return 0 if failed == 0 else 1


# Subcommands in help order: help, handler, --delta-s default, --grid default,
# --format choices (the first is the default). A command with a resolution
# also takes a state.
_COMMANDS = {
    "single": ("1D pointer density with s2 readout", _cmd_density, "0.6", "-6:6:0.01", ("csv", "json")),
    "pair": ("2D coincidence density with s2 readouts", _cmd_density, "2", "-14:14:0.05", ("csv", "json")),
    "table": ("signed joint quasi-probability table", _cmd_table, "inf", None, ("csv", "json")),
    "kdist": ("signed distribution of the CHSH combination", _cmd_kdist, "inf", None, ("text", "csv", "json")),
    "bound": ("classical bound, quantum expectation, margin", _cmd_bound, None, None, ("text", "json")),
    "check": ("run built-in consistency diagnostics", _cmd_check, None, None, ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakpol",
        description="Finite-resolution polarization measurement statistics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, handler, delta_s, grid, formats) in _COMMANDS.items():
        command = sub.add_parser(name, help=help_text)
        # A command without --format and --out, like check, writes text to stdout.
        command.set_defaults(handler=handler, format="text", out=None, grid_b=None)
        if delta_s:
            command.add_argument("--state", help=f"named input state: {', '.join(sorted(NAMED_STATES))}")
            command.add_argument("--state-file", help="JSON file with an 'amplitudes' list of [re, im] pairs")
            command.add_argument("--delta-s", default=delta_s, help="positive number, or 'inf' in table and kdist")
        if grid:
            command.add_argument("--grid", default=grid, help="pointer grid LO:HI:STEP (for pair: arm a)")
            if name == "pair":
                command.add_argument("--grid-b", help="arm-b grid LO:HI:STEP (default: same as --grid)")
        if formats:
            command.add_argument("--format", choices=formats, default=formats[0])
            command.add_argument("--out", help="output path (default: stdout)")
    return parser


def _merge_dash_values(argv: list[str]) -> list[str]:
    # Join a value with a leading dash, like "-4:4:0.01" or "-inf", to its
    # option so argparse does not take it for a flag.
    merged = []
    for token in argv:
        if merged and merged[-1] in ("--grid", "--grid-b", "--delta-s") and token[:1] == "-" and token[:2] != "--":
            merged[-1] += "=" + token
        else:
            merged.append(token)
    return merged


def main(argv=None) -> int:
    # Python sets sys.stderr to None when file descriptor 2 is closed at start.
    if sys.stderr is None:
        sys.stderr = open(os.devnull, "w")
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(_merge_dash_values(argv))
    try:
        return args.handler(args)
    except UsageError as exc:
        message, code = f"error: {exc}", 2
    except IllConditionedDesignError as exc:
        message, code = f"numerical guard: {exc}", 3
    except OutputError as exc:
        message, code = f"error: {exc}", 4
    except BrokenPipeError:
        # The reader of stdout is gone. Point stdout at devnull so that the
        # interpreter's flush at exit cannot fail on what is still buffered.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        message, code = "error: cannot write to standard output: the reader closed the pipe", 4
    except Exception as exc:
        message, code = f"error: internal error: {type(exc).__name__}: {' '.join(str(exc).splitlines())}", 5
    # The message is best effort: stderr may be the closed pipe of stdout (as in
    # "weakpol pair 2>&1 | head -1") or a descriptor open read-only. Then devnull
    # takes its place, so that the flush at exit cannot fail either.
    try:
        sys.stderr.write(message + "\n")
        sys.stderr.flush()
    except OSError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stderr.fileno())
        os.close(devnull)
    return code


if __name__ == "__main__":
    sys.exit(main())
