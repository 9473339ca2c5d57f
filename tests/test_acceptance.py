"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is fixed here; nothing is calibrated at runtime.
"""

import math

import numpy as np
import pytest

from weakpol.linalg import expectation
from weakpol.measurement import (
    LIMIT,
    PointerGrid,
    completeness_defect,
    eigenstate_density_closed_form,
    outcome_density,
)
from weakpol.polarization import (
    bell_operator,
    bell_state,
    classical_chsh_bound,
    stokes_eigenstate,
    stokes_operator,
)
from weakpol.quasiprob import (
    PAIR_COLUMN_LABELS,
    PAIR_ROW_LABELS,
    QuasiProbTable,
    deconvolve,
    k_distribution,
    quasiprob_table,
    reconstruct_density,
)

from conftest import peak_location, random_pure_state

ROOT_TWO = math.sqrt(2.0)

# Closed forms for the 36-entry limit table of the entangled pair state,
# transcribed independently of the implementation. Rows follow
# PAIR_ROW_LABELS (arm b), columns PAIR_COLUMN_LABELS (arm a).
ALPHA = (ROOT_TWO + 1.0) / (16.0 * ROOT_TWO)
BETA = (ROOT_TWO - 1.0) / (16.0 * ROOT_TWO)
GAMMA = 1.0 / (8.0 * ROOT_TWO)
DELTA = 1.0 / (4.0 * ROOT_TWO)
PAIR_TABLE_CLOSED_FORMS = {
    (1, 1): [BETA, -GAMMA, ALPHA, BETA, GAMMA, ALPHA],
    (0, 1): [GAMMA, -DELTA, -GAMMA, GAMMA, DELTA, -GAMMA],
    (-1, 1): [ALPHA, GAMMA, BETA, ALPHA, -GAMMA, BETA],
    (1, -1): [BETA, -GAMMA, ALPHA, BETA, GAMMA, ALPHA],
    (0, -1): [-GAMMA, DELTA, GAMMA, -GAMMA, -DELTA, GAMMA],
    (-1, -1): [ALPHA, GAMMA, BETA, ALPHA, -GAMMA, BETA],
}

# The reference 6x6 matrix of CHSH combination values over the same layout.
K_VALUE_MATRIX = {
    (1, 1): [-2, -2, -2, 2, 2, 2],
    (0, 1): [0, -1, -2, 2, 1, 0],
    (-1, 1): [2, 0, -2, 2, 0, -2],
    (1, -1): [-2, 0, 2, -2, 0, 2],
    (0, -1): [0, 1, 2, -2, -1, 0],
    (-1, -1): [2, 2, 2, -2, -2, -2],
}


# The K distribution of the pair state, in closed form, and its rounding to
# one decimal of a percent: 103.0 / 35.4 / 0.0 / -35.4 / -3.0.
K_WEIGHT_CLOSED_FORMS = {
    2: (4.0 + 3.0 * ROOT_TWO) / 8.0,
    1: 1.0 / (2.0 * ROOT_TWO),
    0: 0.0,
    -1: -1.0 / (2.0 * ROOT_TWO),
    -2: (4.0 - 3.0 * ROOT_TWO) / 8.0,
}
K_WEIGHT_ROUNDING = {2: 1.030, 1: 0.354, 0: 0.0, -1: -0.354, -2: -0.030}


def _k_weights_from_closed_forms() -> dict:
    """Sum the closed-form pair table over the cells of each CHSH value."""
    weights = dict.fromkeys(K_WEIGHT_CLOSED_FORMS, 0.0)
    for label_b, row in PAIR_TABLE_CLOSED_FORMS.items():
        for weight, k in zip(row, K_VALUE_MATRIX[label_b]):
            weights[k] += weight
    return weights


def _report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:02d}] {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_single_photon_table_exact():
    table = quasiprob_table(stokes_eigenstate(2, +1), LIMIT)
    expected = {
        (-1, 1): 0.25,
        (0, 1): 0.5,
        (1, 1): 0.25,
        (-1, -1): 0.25,
        (0, -1): -0.5,
        (1, -1): 0.25,
    }
    worst = max(abs(table.entries[label] - value) for label, value in expected.items())
    ok = worst < 1e-12
    _report(1, ok, f"single-photon limit table, max deviation {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_02_pair_table_exact():
    table = quasiprob_table(bell_state(), LIMIT)
    worst = 0.0
    for label_b, row in PAIR_TABLE_CLOSED_FORMS.items():
        for label_a, value in zip(PAIR_COLUMN_LABELS, row):
            worst = max(worst, abs(table.entries[(label_a, label_b)] - value))
    anchor = table.entries[((1, 1), (1, 1))]
    anchor_ok = abs(anchor - (2.0 + ROOT_TWO) / 32.0) < 1e-12
    ok = worst < 1e-12 and anchor_ok
    _report(
        2,
        ok,
        f"36-entry pair table, max deviation {worst:.2e} (tol 1e-12); "
        f"anchor cell {anchor:.6f} vs 0.106694",
    )
    assert ok


def _unit_table(label_a, label_b) -> QuasiProbTable:
    """The pair table of weight 1 at (label_a, label_b) and 0 at the other 35 keys."""
    entries = {(a, b): 0.0 for b in PAIR_ROW_LABELS for a in PAIR_COLUMN_LABELS}
    return QuasiProbTable({**entries, (label_a, label_b): 1.0}, LIMIT, 2)


def test_criterion_03_k_value_matrix_exact():
    # The K value of a cell is where the K distribution of its unit table puts all its weight.
    mismatches = [
        (label_a, label_b)
        for label_b, row in K_VALUE_MATRIX.items()
        for label_a, value in zip(PAIR_COLUMN_LABELS, row)
        if k_distribution(_unit_table(label_a, label_b)).weights != {k: float(k == value) for k in range(-2, 3)}
    ]
    ok = not mismatches
    _report(3, ok, f"6x6 CHSH-value matrix entrywise, {len(mismatches)} mismatches")
    assert ok, f"mismatched cells: {mismatches}"


def test_criterion_04_k_distribution():
    # The expected weights are reckoned from the transcribed table and
    # CHSH-value matrix above, never from the implementation.
    reckoned = _k_weights_from_closed_forms()
    reckoned_total = sum(reckoned.values())
    reckoned_mean = sum(k * w for k, w in reckoned.items())
    assert all(
        abs(reckoned[k] - exact) < 1e-12 for k, exact in K_WEIGHT_CLOSED_FORMS.items()
    ), f"closed-form table aggregates to {reckoned}, expected {K_WEIGHT_CLOSED_FORMS}"
    assert abs(reckoned_total - 1.0) < 1e-12, f"reckoned weights sum to {reckoned_total!r}"
    assert abs(reckoned_mean - 2.0 * ROOT_TWO) < 1e-12, f"reckoned mean is {reckoned_mean!r}"
    assert all(
        abs(K_WEIGHT_CLOSED_FORMS[k] - target) <= 0.0005 for k, target in K_WEIGHT_ROUNDING.items()
    ), "the rounding reference is not the rounding of the closed forms"

    distribution = k_distribution(quasiprob_table(bell_state(), LIMIT))
    weights = distribution.weights
    total_ok = abs(distribution.total() - 1.0) < 1e-12
    mean_ok = abs(distribution.mean() - 2.0 * ROOT_TWO) < 1e-12
    exact_misses = [
        k for k, exact in K_WEIGHT_CLOSED_FORMS.items() if not abs(weights[k] - exact) < 1e-12
    ]
    rounding_misses = [
        k for k, target in K_WEIGHT_ROUNDING.items() if not abs(weights[k] - target) <= 0.0005
    ]

    ok = total_ok and mean_ok and not exact_misses and not rounding_misses
    summary = ", ".join(f"K={k}: {weights[k] * 100:.4f}%" for k in (2, 1, 0, -1, -2))
    _report(
        4,
        ok,
        f"distribution {summary}; sum/mean exact: {total_ok and mean_ok}; "
        f"weights vs (4 +- 3*sqrt(2))/8, +-1/(2*sqrt(2)), 0 (tol 1e-12)",
    )
    assert total_ok, f"weights sum to {distribution.total()!r}, expected 1 within 1e-12"
    assert mean_ok, f"mean is {distribution.mean()!r}, expected 2*sqrt(2) within 1e-12"
    misses = sorted(set(exact_misses) | set(rounding_misses), reverse=True)
    assert not misses, "K weights miss their closed forms: " + ", ".join(
        f"K={k}: computed {weights[k]!r} ({weights[k] * 100:.1f}%) vs closed form "
        f"{K_WEIGHT_CLOSED_FORMS[k]!r} ({K_WEIGHT_ROUNDING[k] * 100:.1f}%)"
        for k in misses
    )


def test_criterion_05_closed_form_oracle():
    grid = PointerGrid(-4, 4, 0.01)
    worst = 0.0
    for delta_s in (0.3, 0.6, 1.0, 2.0):
        density = outcome_density(stokes_eigenstate(2, +1), delta_s, grid)
        p_plus, p_minus = eigenstate_density_closed_form(delta_s, grid.points())
        worst = max(
            worst,
            float(np.max(np.abs(density.sheet(1) - p_plus))),
            float(np.max(np.abs(density.sheet(-1) - p_minus))),
        )
    ok = worst < 1e-12
    _report(5, ok, f"density vs closed form over [-4,4], max diff {worst:.2e} (tol 1e-12)")
    assert ok


def test_criterion_06_bell_numbers():
    quantum = expectation(bell_state(), bell_operator())
    bound = classical_chsh_bound()
    expectation_ok = abs(quantum - 2.0 * ROOT_TWO) < 1e-12
    bound_ok = bound == 2.0
    violation_ok = quantum > bound
    ok = expectation_ok and bound_ok and violation_ok
    _report(6, ok, f"<K> = {quantum:.12f}, classical bound = {bound:g}, strict violation: {violation_ok}")
    assert ok


def test_criterion_07_coincidence_peak_geometry():
    grid = PointerGrid(-14, 14, 0.05)
    density = outcome_density(bell_state(), 2.0, grid, grid)

    peak_pm = peak_location(density.sheet((1, -1)), density.grids)
    peak_mp = peak_location(density.sheet((-1, 1)), density.grids)
    anti_ok = all(abs(abs(m) - ROOT_TWO) <= 0.05 for m in (*peak_pm, *peak_mp))
    pattern_ok = min(peak_pm) > 0 and max(peak_mp) < 0

    # Correlated sheets stay inside the eigenvalue range, displaced toward
    # the corners where the CHSH value is +2: ( -1, +1 ) for s2a=s2b=+1 and
    # ( +1, -1 ) for s2a=s2b=-1.
    peak_pp = peak_location(density.sheet((1, 1)), density.grids)
    peak_mm = peak_location(density.sheet((-1, -1)), density.grids)
    correlated_ok = (
        all(abs(m) <= 1.0 + 0.05 for m in (*peak_pp, *peak_mm))
        and peak_pp[0] < 0 < peak_pp[1]
        and peak_mm[1] < 0 < peak_mm[0]
    )
    ok = anti_ok and pattern_ok and correlated_ok
    _report(
        7,
        ok,
        f"anti-correlated peaks {peak_pm} and {peak_mp} (|m| = sqrt(2) +- 0.05); "
        f"correlated peaks {peak_pp} and {peak_mm} inside eigenvalue range",
    )
    assert ok


def test_criterion_08_measurement_completeness():
    defect_06 = completeness_defect(0.6, PointerGrid(-8, 8, 1e-3))
    defect_2 = completeness_defect(2.0, PointerGrid(-14, 14, 1e-3))
    ok = defect_06 < 1e-6 and defect_2 < 1e-6
    _report(8, ok, f"completeness defects {defect_06:.2e} (ds=0.6), {defect_2:.2e} (ds=2), tol 1e-6")
    assert ok


def test_criterion_09_deconvolution_oracle():
    yplus = stokes_eigenstate(2, +1)
    grid_1d = PointerGrid(-8, 8, 0.01)
    recovered = deconvolve(outcome_density(yplus, 1.0, grid_1d), 1.0)
    analytic = quasiprob_table(yplus, 1.0)
    worst_single = max(
        abs(recovered.entries[label] - weight) for label, weight in analytic.entries.items()
    )

    pair = bell_state()
    grid_2d = PointerGrid(-8, 8, 0.05)
    recovered_pair = deconvolve(outcome_density(pair, 1.0, grid_2d, grid_2d), 1.0)
    analytic_pair = quasiprob_table(pair, 1.0)
    worst_pair = max(
        abs(recovered_pair.entries[label] - weight)
        for label, weight in analytic_pair.entries.items()
    )
    ok = worst_single < 1e-8 and worst_pair < 1e-6
    _report(
        9,
        ok,
        f"least-squares recovery: single {worst_single:.2e} (tol 1e-8), "
        f"pair {worst_pair:.2e} (tol 1e-6)",
    )
    assert ok


def test_criterion_10_property_suite():
    rng = np.random.default_rng(31415926)

    zero_worst = 0.0
    for _ in range(20):
        table = quasiprob_table(random_pure_state(rng, 2), LIMIT)
        zero_worst = max(zero_worst, abs(table.entries[(0, 1)] + table.entries[(0, -1)]))
        pair_table = quasiprob_table(random_pure_state(rng, 4), LIMIT)
        zero_a = sum(w for (la, lb), w in pair_table.entries.items() if la[0] == 0)
        zero_b = sum(w for (la, lb), w in pair_table.entries.items() if lb[0] == 0)
        zero_worst = max(zero_worst, abs(zero_a), abs(zero_b))
    zero_ok = zero_worst < 1e-12

    grid_1d = PointerGrid(-6, 6, 0.02)
    grid_2d = PointerGrid(-6, 6, 0.1)
    min_density = 0.0
    for _ in range(25):
        single = outcome_density(random_pure_state(rng, 2), 0.6, grid_1d)
        pair = outcome_density(random_pure_state(rng, 4), 0.6, grid_2d, grid_2d)
        min_density = min(min_density, float(single.values.min()), float(pair.values.min()))
    nonneg_ok = min_density >= -1e-12

    s1 = stokes_operator(1)
    s2 = stokes_operator(2)
    symmetrized = (s1 @ s2 + s2 @ s1) / 2.0
    pair_ops = {
        (i, j): np.kron(stokes_operator(i), stokes_operator(j))
        for i in (1, 2)
        for j in (1, 2)
    }
    moment_worst = 0.0
    for _ in range(20):
        state = random_pure_state(rng, 2)
        table = quasiprob_table(state, LIMIT)
        moments = [
            sum(w * la[0] for la, w in table.entries.items()) - expectation(state, s1),
            sum(w * la[1] for la, w in table.entries.items()) - expectation(state, s2),
            sum(w * la[0] * la[1] for la, w in table.entries.items())
            - expectation(state, symmetrized),
        ]
        moment_worst = max(moment_worst, max(abs(m) for m in moments))
        pair_state = random_pure_state(rng, 4)
        pair_table = quasiprob_table(pair_state, LIMIT)
        for (i, j), operator in pair_ops.items():
            moment = sum(
                w * la[i - 1] * lb[j - 1] for (la, lb), w in pair_table.entries.items()
            )
            moment_worst = max(moment_worst, abs(moment - expectation(pair_state, operator)))
    moment_ok = moment_worst < 1e-12

    rebuild_grid = PointerGrid(-6, 6, 0.01)
    rebuild_worst = 0.0
    for _ in range(10):
        state = random_pure_state(rng, 2)
        table = quasiprob_table(state, 0.6)
        rebuilt = reconstruct_density(table, rebuild_grid)
        direct = outcome_density(state, 0.6, rebuild_grid)
        rebuild_worst = max(rebuild_worst, float(np.max(np.abs(rebuilt.values - direct.values))))
    pair_grid = PointerGrid(-8, 8, 0.1)
    for _ in range(3):
        state = random_pure_state(rng, 4)
        table = quasiprob_table(state, 1.0)
        rebuilt = reconstruct_density(table, pair_grid, pair_grid)
        direct = outcome_density(state, 1.0, pair_grid, pair_grid)
        rebuild_worst = max(rebuild_worst, float(np.max(np.abs(rebuilt.values - direct.values))))
    rebuild_ok = rebuild_worst < 1e-10

    ok = zero_ok and nonneg_ok and moment_ok and rebuild_ok
    _report(
        10,
        ok,
        f"zero-marginal {zero_worst:.2e} (tol 1e-12), min density {min_density:.2e} "
        f"(tol -1e-12), moments {moment_worst:.2e} (tol 1e-12), "
        f"reconstruction {rebuild_worst:.2e} (tol 1e-10)",
    )
    assert zero_ok and nonneg_ok and moment_ok and rebuild_ok
