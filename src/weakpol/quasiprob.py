"""Signed joint quasi-probability tables behind the measured densities.

The pointer densities are exact mixtures of Gaussians with variance
``delta_s^2`` centered at s1 = -1, 0, +1: expanding the measurement kernel in
the s1 eigenprojectors produces Gaussians at the eigenvalues plus a cross
term centered at their midpoint, damped by exp(-1/(2 delta_s^2)). The mixture
weights form a signed joint distribution over (s1, s2) labels; the midpoint
label s1 = 0 can carry negative weight even though every observable density
stays nonnegative. In the infinite-resolution limit (``delta_s = math.inf``)
the damping disappears and the weights reach their full strength.

Two independent routes to every table are provided: the analytic projector
construction (the product, ``quasiprob_table``, for 1 to 3 photons) and a
least-squares deconvolution of the sampled density (the oracle). Both, and
the remix of a table into a density, act on a weight tensor with one axis
per arm through one per-arm matrix each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from .linalg import require_normalized
from .measurement import (
    OutcomeDensity,
    PointerGrid,
    SINGLE_LABELS,
    _ROOT_TWO_PI,
    _amplitudes,
    _bare,
    _contract_arms,
    _gaussians,
    validate_resolution,
)
from .polarization import chsh_combination

S1_CENTERS = (-1, 0, 1)
K_VALUES = (-2, -1, 0, 1, 2)

# Serialization orders for the pair table: columns are arm-a labels, rows are
# arm-b labels.
PAIR_COLUMN_LABELS = ((-1, -1), (0, -1), (1, -1), (-1, 1), (0, 1), (1, 1))
PAIR_ROW_LABELS = ((1, 1), (0, 1), (-1, 1), (1, -1), (0, -1), (-1, -1))

CONDITION_LIMIT = 1e10

# The paper's serialization orders of the one- and two-photon tables; the
# tables of more photons keep the order of their weight tensor.
_TABLE_KEYS = (
    tuple((s1, s2) for s2 in SINGLE_LABELS for s1 in S1_CENTERS),
    tuple((label_a, label_b) for label_b in PAIR_ROW_LABELS for label_a in PAIR_COLUMN_LABELS),
)


@cache
def _keys(arms: int) -> tuple[tuple, tuple]:
    """Table keys in the C order of a weight tensor with axes (s1 per arm..., readout sheet), and in table order."""
    readouts = tuple(product(SINGLE_LABELS, repeat=arms))
    tensor = _bare(tuple(zip(s1, s2)) for s1 in product(S1_CENTERS, repeat=arms) for s2 in readouts)
    return tensor, _TABLE_KEYS[arms - 1] if arms <= len(_TABLE_KEYS) else tensor


class IllConditionedDesignError(ValueError):
    """Deconvolution design matrix too close to singular to invert reliably."""

    def __init__(self, delta_s: float, condition_number: float):
        self.delta_s = delta_s
        self.condition_number = condition_number
        super().__init__(
            f"Gaussian design matrix is ill-conditioned at delta_s={delta_s!r} "
            f"(condition number {condition_number:.3e} > {CONDITION_LIMIT:.0e}); "
            "the component Gaussians are nearly collinear"
        )


@dataclass(frozen=True)
class QuasiProbTable:
    """Signed weights over joint (s1, s2) labels, one label pair per photon.

    Keys are ``(s1, s2)`` for one photon and ``((s1a, s2a), (s1b, s2b), ...)``
    for more. Finite-resolution tables keep the raw damped cross-term weights;
    ``deficit`` records how far their sum falls short of one (identically
    zero for the projector construction, where the cross terms cancel in the
    total).
    """

    entries: dict
    delta_s: float
    arms: int

    @property
    def total(self) -> float:
        return float(sum(self.entries.values()))

    @property
    def deficit(self) -> float:
        return 1.0 - self.total


@dataclass(frozen=True)
class KDistribution:
    """Signed distribution of the CHSH combination over its five values."""

    weights: dict

    def total(self) -> float:
        return float(sum(self.weights.values()))

    def mean(self) -> float:
        return float(sum(k * w for k, w in self.weights.items()))


def _table(weights: np.ndarray, delta_s: float, arms: int) -> QuasiProbTable:
    """Table from weights[c_a, c_b, ..., j]: s1 center index per arm, then readout sheet j."""
    tensor_keys, table_keys = _keys(arms)
    by_key = dict(zip(tensor_keys, weights.ravel().tolist()))
    return QuasiProbTable(entries={key: by_key[key] for key in table_keys}, delta_s=delta_s, arms=arms)


def _center_map(delta_s: float) -> np.ndarray:
    """C[c, (e, e')]: 1 where s1 center c is the midpoint of eigenvalues e, e'.

    The cross pairs e != e' carry the damping exp(-1/(2 delta_s^2)), 1 at inf.
    """
    damping = math.exp(-0.5 / (delta_s * delta_s))
    return np.array([[1.0, 0.0, 0.0, 0.0], [0.0, damping, damping, 0.0], [0.0, 0.0, 0.0, 1.0]])


def quasiprob_table(state, delta_s: float) -> QuasiProbTable:
    """Joint quasi-probability table of (s1, s2) labels over every photon of ``state``.

    The arm count comes from the state's size, 2**arms amplitudes for 1 to 3
    photons. With amplitudes A(e_a, e_b, ...; j) = <s2 sheet j| P_ea P_eb ...
    |state> over the s1 eigenprojectors, each weight is
    Re sum C[c_a, (e_a, e_a')] ... A[e_a, ..., j] conj(A[e_a', ..., j]): per
    arm, s1 = +-1 takes e = e', and the midpoint s1 = 0 takes both cross
    pairs, damped by exp(-1/(2 delta_s^2)) (1 in the limit).
    """
    arms = require_normalized(state).size.bit_length() - 1
    amplitudes = _amplitudes(state, arms)
    delta_s = validate_resolution(delta_s, allow_limit=True)
    # products[e_a, e_a', e_b, e_b', ..., j] = A[e_a, e_b, ..., j] conj(A[e_a', e_b', ..., j])
    primed, unprimed, sheet = [*range(1, 2 * arms, 2)], [*range(0, 2 * arms, 2)], 2 * arms
    products = np.einsum(amplitudes, [*unprimed, sheet], amplitudes.conj(), [*primed, sheet], [*range(sheet + 1)])
    products = products.reshape((4,) * arms + (-1,))
    return _table(_contract_arms([_center_map(delta_s)] * arms, products).real, delta_s, arms)


# The old single/pair names, kept until the benchmark harness in bench/ uses the new one.
quasiprob_table_single = quasiprob_table_pair = quasiprob_table


def _gaussian_columns(points: np.ndarray, delta_s: float) -> np.ndarray:
    """Normalized Gaussians of variance delta_s^2 at the s1 centers, one column each."""
    return _gaussians(points, S1_CENTERS, delta_s, 0.5) / (delta_s * _ROOT_TWO_PI)


def reconstruct_density(table: QuasiProbTable, *grids: PointerGrid) -> OutcomeDensity:
    """Remix the table's weights into Gaussians of variance delta_s^2, on one grid per photon.

    Inverse of the interpretation behind the tables: at finite resolution the
    result equals the directly computed outcome density at every grid point.
    """
    delta_s = validate_resolution(table.delta_s)
    if len(grids) != table.arms:
        raise ValueError(f"a {table.arms}-photon table needs one grid per photon, got {len(grids)} grid(s)")
    weights = np.reshape([table.entries[key] for key in _keys(table.arms)[0]], (len(S1_CENTERS),) * table.arms + (-1,))
    values = _contract_arms([_gaussian_columns(g.points(), delta_s) for g in grids], weights)
    return OutcomeDensity(grids=grids, values=values)


def _check_grid_coverage(grid: PointerGrid, delta_s: float) -> None:
    lo_needed = min(S1_CENTERS) - 6.0 * delta_s
    hi_needed = max(S1_CENTERS) + 6.0 * delta_s
    if grid.lo > lo_needed or grid.hi < hi_needed:
        raise ValueError(
            f"grid [{grid.lo}, {grid.hi}] does not cover the centers +- 6 delta_s "
            f"([{lo_needed}, {hi_needed}]) needed for the fit"
        )


def deconvolve(density: OutcomeDensity, delta_s: float) -> QuasiProbTable:
    """Recover the signed mixture weights from a sampled density.

    Least-squares fit, per readout label, onto Gaussians of variance
    ``delta_s^2`` centered at the s1 labels (separable products of them in
    the pair case), solved arm by arm: the pseudo-inverse of the Kronecker
    product of the arms' designs is the product of their pseudo-inverses.
    Acts as the independent oracle for the analytic tables.
    """
    delta_s = validate_resolution(delta_s)
    for grid in density.grids:
        _check_grid_coverage(grid, delta_s)

    designs = [_gaussian_columns(grid.points(), delta_s) for grid in density.grids]
    # cond(A (x) B) = cond(A) cond(B): the guard sees the full design's value.
    condition_number = math.prod(float(np.linalg.cond(design)) for design in designs)
    if not condition_number <= CONDITION_LIMIT:
        raise IllConditionedDesignError(delta_s, condition_number)

    weights = _contract_arms([np.linalg.pinv(design) for design in designs], density.values)
    return _table(weights, delta_s, len(density.grids))


def _check_joint_label(label) -> tuple[int, int]:
    s1, s2 = label
    if s1 not in S1_CENTERS or s2 not in (-1, 1):
        raise ValueError(f"invalid joint label {label!r}: s1 in {{-1,0,1}}, s2 in {{-1,1}}")
    return int(s1), int(s2)


def k_value(label_a, label_b) -> int:
    """CHSH combination evaluated on discrete (s1, s2) labels for both arms."""
    s1a, s2a = _check_joint_label(label_a)
    s1b, s2b = _check_joint_label(label_b)
    return chsh_combination(s1a, s2a, s1b, s2b)


def k_distribution(table: QuasiProbTable) -> KDistribution:
    """Aggregate a pair table's weights by their CHSH combination value."""
    if table.arms != 2:
        raise ValueError("the CHSH distribution is defined for pair tables only")
    weights = {k: 0.0 for k in K_VALUES}
    for (label_a, label_b), weight in table.entries.items():
        weights[k_value(label_a, label_b)] += weight
    return KDistribution(weights=weights)
