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
construction (``quasiprob_table``, for 1 to 3 photons: weight r is
<psi| W_r |psi> with one cached operator W_r per key) and a least-squares
deconvolution of the sampled density (the oracle), which, like the remix of a
table into a density, acts on a weight tensor through one matrix per arm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache
from itertools import product

import numpy as np

from .measurement import (
    OutcomeDensity,
    PointerGrid,
    SINGLE_LABELS,
    _MAX_ARMS,
    _ROOT_TWO_PI,
    _arm_factors,
    _bare,
    _contract_arms,
    _gaussians,
    _state_map,
    _state_vector,
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
def _keys(arms: int) -> tuple[tuple, np.ndarray]:
    """The keys in table order, and each one's position in a weight tensor's C order (s1 per arm..., sheet)."""
    readouts = tuple(product(SINGLE_LABELS, repeat=arms))
    tensor = _bare(tuple(zip(s1, s2)) for s1 in product(S1_CENTERS, repeat=arms) for s2 in readouts)
    table = _TABLE_KEYS[arms - 1] if arms <= len(_TABLE_KEYS) else tensor
    return table, np.array([*map(tensor.index, table)])


@cache
def _k_index() -> np.ndarray:
    """Each pair table key's CHSH combination, in table order, as an index into K_VALUES."""
    return np.array([chsh_combination(*label_a, *label_b) for label_a, label_b in _keys(2)[0]]) - K_VALUES[0]


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
    total). Raises ``ValueError`` for the first of an arm count outside 1 to 3, a missing or extra key, a NaN or
    infinite weight (the first in table order), or weights whose doubled absolute sum overflows, so every consumer
    can trust it; ``entries`` are held in table order, and a dict in another order is copied into it.
    """

    entries: dict
    delta_s: float
    arms: int

    def __post_init__(self):
        # The arm count first: the 6**arms keys would take 132 MiB at 7 photons.
        if not 1 <= self.arms <= _MAX_ARMS:
            raise ValueError(f"tables of 1 to {_MAX_ARMS} photons are supported, got {self.arms} photon(s)")
        keys = _keys(self.arms)[0]
        if tuple(self.entries) != keys:
            for key in keys:
                if key not in self.entries:
                    raise ValueError(f"the table has no weight for key {key!r}")
            if len(self.entries) > len(keys):
                extra = next(key for key in self.entries if key not in keys)
                raise ValueError(f"the table has a weight for key {extra!r}, which is not a {self.arms}-photon label")
            object.__setattr__(self, "entries", {key: self.entries[key] for key in keys})
        # 2 sum |w| bounds |total|, |deficit - 1| and each partial sum of a K mean (|K| <= 2); fabs refuses complex.
        if not math.isfinite(2.0 * sum(map(math.fabs, self.entries.values()))):
            for key, weight in self.entries.items():
                if not math.isfinite(weight):
                    raise ValueError(f"table weight {weight!r} of key {key!r} is not finite")
            raise ValueError("table weights too large: 2 * sum(|weight|) overflows the float range")

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


def _table(weights: np.ndarray, delta_s: float) -> QuasiProbTable:
    """Table from weights[c_a, c_b, ..., j] (s1 center index per arm, then readout sheet j), read in table order."""
    table_keys, order = _keys(weights.ndim - 1)
    return QuasiProbTable(dict(zip(table_keys, weights.ravel()[order].tolist())), delta_s, weights.ndim - 1)


@cache
def _table_map(arms: int) -> tuple[np.ndarray, np.ndarray]:
    """Row r: key r's operator W_r, flattened, in table order; and the number of arms at s1 = 0 in key r.

    W_r[k, l] = sum C[c_a, (e_a, e_a')] ... S[(e, j), k] conj(S[(e', j), l]) over the ``_state_map`` S, for the key's
    s1 centers c and sheet j: C[c, (e, e')] is 1 where c is the midpoint of e and e', so s1 = 0 takes the cross pairs.
    """
    amplitudes = _state_map(arms).reshape((2,) * arms + (2**arms, -1))
    # products[e_a, e_a', e_b, e_b', ..., j, k, l] = S[e_a, e_b, ..., j, k] conj(S[e_a', e_b', ..., j, l])
    primed, unprimed, j = [*range(1, 2 * arms, 2)], [*range(0, 2 * arms, 2)], 2 * arms
    products = np.einsum(amplitudes, [*unprimed, j, j + 1], amplitudes.conj(), [*primed, j, j + 2], [*range(j + 3)])
    centers = np.array([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 0, 1]], dtype=complex)
    operators = _contract_arms([centers] * arms, products.reshape((4,) * arms + (-1,))).reshape(-1, 4**arms)
    zeros = [[s1 for s1, _ in ((key,) if arms == 1 else key)].count(0) for key in _keys(arms)[0]]
    return operators[_keys(arms)[1]], np.array(zeros)


def quasiprob_table(state, delta_s: float) -> QuasiProbTable:
    """Joint quasi-probability table of (s1, s2) labels over every photon of a ``state`` of 2**arms amplitudes.

    Weight r is Re <psi| W_r |psi> with ``_table_map``'s cached W_r, times exp(-1/(2 delta_s^2)) (1 in the limit)
    per arm at s1 = 0. Below delta_s = 0.0259 that damping is 0.0, and + 0.0 keeps -0.0 out; 0.0 ** 0 is 1.0.
    """
    psi, arms = _state_vector(state)
    delta_s = validate_resolution(delta_s, allow_limit=True)
    operators, zeros = _table_map(arms)
    damping = math.exp(-0.5 / (delta_s * delta_s)) ** zeros
    weights = (operators @ (psi[:, None] * psi.conj()).ravel()).real * damping + 0.0
    return QuasiProbTable(dict(zip(_keys(arms)[0], weights.tolist())), delta_s, arms)


# The old single/pair names, kept until the benchmark harness in bench/ uses the new one.
quasiprob_table_single = quasiprob_table_pair = quasiprob_table


def _gaussian_columns(grid: PointerGrid, delta_s: float) -> np.ndarray:
    """Normalized Gaussians of variance delta_s^2 at the s1 centers, one column each, one row per grid point."""
    return _gaussians(grid.points(), S1_CENTERS, delta_s, 0.5) / (delta_s * _ROOT_TWO_PI)


def reconstruct_density(table: QuasiProbTable, *grids: PointerGrid) -> OutcomeDensity:
    """Remix the table's weights into Gaussians of variance delta_s^2, on one grid per photon.

    Inverse of the interpretation behind the tables: at finite resolution the
    result equals the directly computed outcome density at every grid point.
    Like ``outcome_density``, it raises ``ValueError`` over the size budget or the float range, of grids or weights.
    """
    delta_s = validate_resolution(table.delta_s)
    if len(grids) != table.arms:
        raise ValueError(f"a {table.arms}-photon table needs one grid per photon, got {len(grids)} grid(s)")
    # Each Gaussian peaks at (delta_s sqrt(2 pi))**-1: a rebuild's partial sums are at most sum |w| max(1, peak)**arms.
    bound = math.prod([sum(map(abs, table.entries.values())), *[max(1.0, 1.0 / (delta_s * _ROOT_TWO_PI))] * table.arms])
    if bound == math.inf:
        raise ValueError(f"table weights too large for delta_s {delta_s!r}: the rebuild could overflow the float range")
    columns = _arm_factors(grids, delta_s, lambda grid: _gaussian_columns(grid, delta_s))
    weights = np.empty((len(S1_CENTERS),) * table.arms + (2**table.arms,))
    weights.flat[_keys(table.arms)[1]] = [*table.entries.values()]
    return OutcomeDensity(grids=grids, values=_contract_arms(columns, weights))


def deconvolve(density: OutcomeDensity, delta_s: float) -> QuasiProbTable:
    """Recover the signed mixture weights from a sampled density.

    Least-squares fit, per readout label, onto Gaussians of variance
    ``delta_s^2`` centered at the s1 labels (separable products of them in
    the pair case), solved arm by arm: the pseudo-inverse of the Kronecker
    product of the arms' designs is the product of their pseudo-inverses.
    Acts as the independent oracle for the analytic tables. Raises, in
    order, ``ValueError`` over the size budget, for the first arm whose grid
    misses the centers +- 6 delta_s or for a NaN or infinite value, and
    ``IllConditionedDesignError`` (always on an arm of fewer than 3 points).
    """
    delta_s = validate_resolution(delta_s)
    lo_needed, hi_needed = min(S1_CENTERS) - 6.0 * delta_s, max(S1_CENTERS) + 6.0 * delta_s

    def design(grid: PointerGrid):
        if grid.lo > lo_needed or grid.hi < hi_needed:
            raise ValueError(
                f"grid [{grid.lo}, {grid.hi}] does not cover the centers +- 6 delta_s "
                f"([{lo_needed}, {hi_needed}]) needed for the fit"
            )
        return np.linalg.svd(_gaussian_columns(grid, delta_s), full_matrices=False)

    svds = _arm_factors(density.grids, delta_s, design)
    if not np.isfinite(density.values).all():
        raise ValueError("density values must be finite, without NaN or inf")
    # cond(A (x) B) = cond(A) cond(B): the guard sees the full design's value. A grid of n < 3 points has n values.
    conditions = (float(s[0]) / float(s[-1]) if len(s) == len(S1_CENTERS) and s[-1] else math.inf for _, s, _ in svds)
    condition_number = math.prod(conditions)
    if not condition_number <= CONDITION_LIMIT:
        raise IllConditionedDesignError(delta_s, condition_number)

    # Below the limit no singular value falls under pinv's cutoff of 1e-15 s[0]: V diag(1/s) U^T is np.linalg.pinv.
    weights = _contract_arms([vt.T @ ((1 / s)[:, None] * u.T) for u, s, vt in svds], density.values)
    return _table(weights, delta_s)


def k_distribution(table: QuasiProbTable) -> KDistribution:
    """Aggregate a pair table's weights by their CHSH combination value: one running sum per K value, in table order."""
    if table.arms != 2:
        raise ValueError("the CHSH distribution is defined for pair tables only")
    # bincount adds each bin's weights in index order, from 0.0, as a loop over the entries would.
    weights = np.bincount(_k_index(), [*table.entries.values()], minlength=len(K_VALUES))
    return KDistribution(weights=dict(zip(K_VALUES, weights.tolist())))
