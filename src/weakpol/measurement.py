"""Finite-resolution polarization measurements and their outcome densities.

A pointer measurement of the s1 Stokes component with resolution ``delta_s``
is represented by the Gaussian operator

    P(m) = (2 pi delta_s^2)^(-1/4) * exp(-(s1_op - m)^2 / (4 delta_s^2)),

followed by a projective readout of s2. ``outcome_density`` samples the
joint density on one uniform pointer grid per photon, for 1 to 3 photons;
quadrature is the plain step-weighted sum over grid points. A density is one
product; the CLI streams it in runs of at most ``_RUN_ROWS`` rows. Every
density, rebuild, deconvolution and completeness grid must fit a size budget
(2**24 cells, 1342177 points per grid and, for a density, the later arms'
kernels), and a density's peak (delta_s sqrt(2 pi))**-arms must be a finite
float, or ``ValueError`` is raised before anything grid-sized is allocated.
The infinite-resolution limit is represented by ``math.inf`` (exported as
``LIMIT``) and is only meaningful for the quasi-probability tables, never for
density evaluation.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass
from functools import cache, cached_property
from itertools import product, starmap

import numpy as np

from .linalg import require_normalized
from .polarization import stokes_eigenstate, stokes_operator

LIMIT = math.inf

# Single-photon readout labels (s2 outcomes).
SINGLE_LABELS = (1, -1)


def _bare(labels: Iterable[tuple]) -> tuple:
    """Outcome labels from their per-arm parts; a one-photon label is its lone part."""
    return tuple(label[0] if len(label) == 1 else label for label in labels)


# Each arm's s1 eigenvalues, in the order of the arm axes of amplitude tensors, and their projectors (I + e s1)/2.
_S1_EIGENVALUES = (-1, 1)
_S1_PROJECTORS = np.array([(np.eye(2) + e * stokes_operator(1)) / 2.0 for e in _S1_EIGENVALUES])

# _ARM[e, s2] = <s2| (I + e s1)/2: project one arm onto s1 = e, read out s2.
_ARM = np.array([[stokes_eigenstate(2, s2).conj() @ projector for s2 in SINGLE_LABELS] for projector in _S1_PROJECTORS])

_ROOT_TWO_PI = math.sqrt(2.0 * math.pi)


def validate_resolution(delta_s: float, allow_limit: bool = False) -> float:
    """Return ``delta_s`` as a float, or raise ``ValueError``.

    Accepted: values whose square and inverse square are finite nonzero
    floats (about 7.5e-155 to 1.3e154), and ``math.inf`` with ``allow_limit``.
    """
    value = float(delta_s)
    if value == math.inf and allow_limit:
        return value
    # Multiplication overflows to inf where ** would raise OverflowError.
    square = value * value
    if not (value > 0 and 0 < square < math.inf and 1.0 / square < math.inf):
        raise ValueError(
            "resolution delta_s must be positive with a finite nonzero square and inverse square "
            f"(about 7.5e-155 to 1.3e154), got {delta_s!r}"
        )
    return value


@dataclass(frozen=True)
class PointerGrid:
    """Uniform grid lo, lo + step, ... with count = floor((hi - lo)/step) + 1."""

    lo: float
    hi: float
    step: float

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.lo, self.hi, self.step)):
            raise ValueError(f"grid bounds and step must be finite, got {self.lo}:{self.hi}:{self.step}")
        if not self.lo < self.hi:
            raise ValueError(f"grid needs lo < hi, got [{self.lo}, {self.hi}]")
        if not self.step > 0:
            raise ValueError(f"grid step must be positive, got {self.step}")
        # Finite bounds can still be too far apart for (hi - lo)/step to be finite.
        if not math.isfinite((self.hi - self.lo) / self.step):
            raise ValueError(f"grid span (hi - lo)/step must be finite, got {self.lo}:{self.hi}:{self.step}")
        # A finite span can still give a last point whose step * (count - 1) overflows.
        if not math.isfinite(self.lo + self.step * (self.count - 1)):
            raise ValueError(f"grid's last point must be finite, got {self.lo}:{self.hi}:{self.step}")

    @cached_property
    def count(self) -> int:
        return int(math.floor((self.hi - self.lo) / self.step + 1e-9)) + 1

    def points(self) -> np.ndarray:
        return self.lo + self.step * np.arange(self.count)


@dataclass(frozen=True)
class OutcomeDensity:
    """Sampled density over one pointer grid per photon, one sheet per label.

    ``values`` has one axis per grid followed by the label axis, so the shape
    is (n_points, n_labels) for one photon and (n_a, n_b, n_labels) for a
    pair. Values that are not an integer or float array, another shape, or a
    number of grids outside 1 to 3 raise ``ValueError``.
    """

    grids: tuple[PointerGrid, ...]
    values: np.ndarray

    def __post_init__(self):
        if not 1 <= len(self.grids) <= _MAX_ARMS:
            raise ValueError(f"densities of 1 to {_MAX_ARMS} photons are supported, got {len(self.grids)} grid(s)")
        if not (isinstance(self.values, np.ndarray) and self.values.dtype.kind in "iuf"):
            kind = getattr(self.values, "dtype", type(self.values).__name__)
            raise ValueError(f"density values must be a real numeric array, got {kind}")
        shape = (*(grid.count for grid in self.grids), 2 ** len(self.grids))
        if self.values.shape != shape:
            raise ValueError(f"density values of shape {self.values.shape} do not match its grids and labels {shape}")

    @property
    def labels(self) -> tuple:
        """One readout label per sheet: one s2 per grid, the first arm's slowest, in the order of the last axis."""
        return _bare(product(SINGLE_LABELS, repeat=len(self.grids)))

    def sheet(self, label) -> np.ndarray:
        try:
            index = self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown outcome label {label!r}") from None
        return self.values[..., index]


def _contract_arms(matrices, weights: np.ndarray) -> np.ndarray:
    """Apply one matrix per arm to the leading arm axes of ``weights``.

    out[p, q, ..., j...] = sum M_0[p, e] M_1[q, f] ... weights[e, f, ..., j...],
    with any trailing axes (the readout labels) carried through, as one
    batched matrix product per arm and no axis moved: ``weights`` is viewed
    as (a, n, b), the axes before arm i flattened into a and those after it
    into b, and ``np.matmul`` broadcasts (m, n) @ (a, n, b) to (a, m, b). The
    order makes the first arm's product the one on the grid-sized side, in C
    order: matrices that shrink the array go first arm first, so that the
    first product reads a C-ordered ``weights`` in place; matrices that grow
    it go last arm first, so that the last product writes a C-contiguous
    result.
    """
    grows = math.prod(len(matrix) for matrix in matrices) > math.prod(matrix.shape[1] for matrix in matrices)
    shape = list(weights.shape)
    for axis in sorted(range(len(matrices)), reverse=grows):
        batch = weights.reshape(math.prod(shape[:axis]), shape[axis], -1)
        shape[axis] = len(matrices[axis])
        weights = (matrices[axis] @ batch).reshape(shape)
    return weights


# Tables and densities take 1 to 3 photons: the 4**arms amplitudes, allocated
# before a density's size budget is checked, would take 1 GiB at 13 photons,
# and the 6**arms keys of a table 132 MiB at 7.
_MAX_ARMS = 3


@cache
def _state_map(arms: int) -> np.ndarray:
    """(4**arms, 2**arms): column k is A[e_a, e_b, ..., j] = <s2 sheet j| P_ea P_eb ... |k>, raveled from one e axis per
    arm in ``_S1_EIGENVALUES`` order and the sheets j in ``OutcomeDensity.labels`` order: ``_ARM`` per arm, e's first.
    """
    per_arm = _contract_arms([_ARM.reshape(4, 2)] * arms, np.eye(2**arms, dtype=complex).reshape((2,) * arms + (-1,)))
    order = [*range(0, 2 * arms, 2), *range(1, 2 * arms, 2), 2 * arms]
    return per_arm.reshape((2, 2) * arms + (-1,)).transpose(order).reshape(4**arms, -1)


def _state_vector(state) -> tuple[np.ndarray, int]:
    """The normalized ``state`` and its photon count, arms: the one place that decides it, from 2**arms amplitudes."""
    psi = require_normalized(state)
    arms = psi.size.bit_length() - 1
    if not (1 <= arms <= _MAX_ARMS and psi.size == 2**arms):
        raise ValueError(f"states of 1 to {_MAX_ARMS} photons, of dimension 2**photons, are supported, got {psi.size}")
    return psi, arms


def _gaussians(points: np.ndarray, centers, delta_s: float, scale: float) -> np.ndarray:
    """exp(-scale ((m - c)/delta_s)^2) for every grid point m (rows) and center c (columns)."""
    # Far from a center z or z*z overflows to inf, and exp gives the intended 0.
    with np.errstate(over="ignore"):
        z = (points[:, None] - np.asarray(centers, dtype=float)[None, :]) / delta_s
        return np.exp(-scale * z * z)


# A caller that streams a density takes it in runs of at most _RUN_ROWS rows (a
# row is one grid point of each arm, with one value per label), and holds one
# run's values and text, not the grid's: the CLI writes one block per run.
_RUN_ROWS = 1024

# The memory budget of one density, checked before anything grid-sized is
# allocated. Measured costs: a density or a rebuild holds 8 bytes per cell, and
# a caller that holds a second grid-sized array 16, as `weakpol check` does
# when it compares a rebuild with the density; each arm takes up to 200 bytes
# per grid point when the CLI writes it (its Gaussian factors and coordinate
# text); the kernel arrays of the arms after the first take 180 bytes per cell
# of their grids and labels (B_e and the three terms made from it).
_BUDGET_BYTES = 2**28
_CELL_BYTES = 16
_POINT_BYTES = 200
_LATER_CELL_BYTES = 180


def _arm_factors(grids, delta_s: float, factor: Callable[[PointerGrid], object]) -> list:
    """One ``factor(grid)`` per arm, made once per distinct grid in order of first appearance, after O(1) checks that
    a density on ``grids`` fits the budget and float range; else ``ValueError``, before ``factor`` is called. A
    density's sheets sum to at most (delta_s sqrt(2 pi))**-arms, which overflows below about 7.07e-104 at 3 photons.
    An equal grid is found by its first position with ``list.index``, which tests identity before ==: none is hashed.
    """
    counts = [grid.count for grid in grids]
    cells = math.prod(counts) * 2 ** len(grids)
    if cells * _CELL_BYTES > _BUDGET_BYTES or max(counts) * _POINT_BYTES > _BUDGET_BYTES:
        raise ValueError(
            f"a density on {' x '.join(map(str, counts))} grid points ({cells} cells) is over the size budget "
            f"of {_BUDGET_BYTES // _CELL_BYTES} cells and {_BUDGET_BYTES // _POINT_BYTES} points per grid"
        )
    # A float product that overflows is inf; it does not raise.
    if math.prod([1.0 / (delta_s * _ROOT_TWO_PI)] * len(grids)) == math.inf:
        raise ValueError(f"delta_s {delta_s!r} is too small for {len(grids)} photons: the density would overflow")
    factors = [factor(grid) if grids.index(grid) == arm else None for arm, grid in enumerate(grids)]
    return [factors[grids.index(grid)] for grid in grids]


def _density_chunks(state, delta_s: float, grids: tuple[PointerGrid, ...], rows=_RUN_ROWS) -> Iterator[np.ndarray]:
    """|<s2 sheet| K(m_a) K(m_b) ... |state>|^2 through the spectral form of each arm's kernel.

    With the other arms' kernels applied to the amplitudes of s1 = e on the
    first arm, B_e, and the first arm's kernel eigenvalues g_e(m_a), each
    value is |g_- B_- + g_+ B_+|^2 = g_-^2 |B_-|^2 + 2 g_- g_+ Re(B_- conj B_+)
    + g_+^2 |B_+|^2: one real product of the first arm's rows with three
    arrays the size of the other arms' grids, so no grid-sized complex array
    is made. Rounding can take the cancelling sum a few ulps below zero; such
    values are set to 0.

    Checked when this is called, in this order, each raising ``ValueError``: the state and its photon count against
    the grids, before any product with the state; then ``delta_s``, the later arms' kernel budget, the size budget and
    the float range, before anything grid-sized is made. The values then come in runs of consecutive rows (C order,
    shape (run length, labels)): whole first-arm points while one point fits in ``rows``, else slices of ``rows`` rows
    of one point; ``rows=None`` gives one run.
    """
    psi, photons = _state_vector(state)
    arms, labels = len(grids), psi.size
    if photons != arms:
        raise ValueError(f"{arms} grid(s) need a state of dimension {2**arms} (1 to {_MAX_ARMS} photons), got {labels}")
    amplitudes = (_state_map(arms) @ psi).reshape((2,) * arms + (-1,))
    delta_s = validate_resolution(delta_s)
    # Cells per first-arm point: the other arms' grid points times the labels.
    width = math.prod(grid.count for grid in grids[1:]) * labels
    if width * _LATER_CELL_BYTES > _BUDGET_BYTES:
        limit = _BUDGET_BYTES // _LATER_CELL_BYTES
        raise ValueError(f"a density of {width} cells per first-arm point is over the size budget of {limit} per point")
    # Each arm's kernel eigenvalues exp(-((m - e)/delta_s)^2/4) / (2 pi delta_s^2)^(1/4), made once per distinct grid.
    norm = math.sqrt(delta_s * _ROOT_TWO_PI)
    first, *rest = _arm_factors(grids, delta_s, lambda g: _gaussians(g.points(), _S1_EIGENVALUES, delta_s, 0.25) / norm)
    # With the first arm's axis moved last, the other arms' kernels apply to the leading axes: branches[e, j] is B_e
    # at cell j of the other arms' grids and sheets.
    branches = _contract_arms(rest, amplitudes.transpose(*range(1, arms + 1), 0)).reshape(-1, 2).T
    # Rows |B_-|^2, 2 Re(B_- conj B_+), |B_+|^2.
    terms = (branches[[0, 0, 1]] * branches[[0, 1, 1]].conj()).real * [[1.0], [2.0], [1.0]]
    # Rows [g_-^2, g_- g_+, g_+^2], one per first-arm point.
    coefficients = first[:, [0, 0, 1]] * first[:, [0, 1, 1]]
    cells = width * len(first) if rows is None else rows * labels
    points, step = max(1, cells // width), min(cells, width)

    def run(start: int, column: int) -> np.ndarray:
        # einsum without optimize, not BLAS: the bits of a value must not depend on how the density is cut.
        values = np.einsum("ik,kj->ij", coefficients[start : start + points], terms[:, column : column + step])
        return np.maximum(values, 0.0, out=values).reshape(-1, labels)

    return starmap(run, product(range(0, len(first), points), range(0, width, step)))


def outcome_density(state, delta_s: float, *grids: PointerGrid) -> OutcomeDensity:
    """Joint density of each photon's s1 pointer value and s2 readout, on one grid per photon.

    Each sheet is |<s2a, s2b, ...| K_a(m_a) K_b(m_b) ... |state>|^2 for a
    state of 2**arms amplitudes, evaluated through the spectral form of each
    kernel with the square expanded over the first arm's two kernel
    eigenvalues: the same, to rounding, as applying the kernel P(m) above
    point by point, and never below 0. The values are one product into
    their final array, 8 bytes per cell, and little else is allocated.
    """
    (values,) = _density_chunks(state, delta_s, grids, None)
    return OutcomeDensity(grids=grids, values=values.reshape(*(grid.count for grid in grids), -1))


# The old single/pair names, kept until the benchmark harness in bench/ uses the new one.
single_outcome_density = coincidence_density = outcome_density


def eigenstate_density_closed_form(delta_s: float, m):
    """Closed-form densities for the s2 = +1 eigenstate.

    Returns the pair (P(m; s2=+1), P(m; s2=-1)); ``m`` may be a scalar or an
    array, and a NaN in it raises ``ValueError``. Serves as an independent
    oracle for ``outcome_density``:

        P(m; +-1) = exp(-(m^2+1)/(2 ds^2)) / sqrt(2 pi ds^2)
                    * cosh^2 or sinh^2 of m/(2 ds^2).

    Evaluated as exp(-(|m|-1)^2/(2 ds^2)) / sqrt(2 pi ds^2) * ((1 +- t)/2)^2,
    t = exp(-|m|/ds^2), so that no factor overflows at small ds.
    """
    delta_s = validate_resolution(delta_s)
    m = np.abs(np.asarray(m, dtype=float))
    if np.isnan(m).any():
        raise ValueError("pointer values m must not be NaN")
    # Overflow to inf far from m = 1 and at large |m| makes the intended 0 and 1 - 0.
    with np.errstate(over="ignore"):
        z = (m - 1.0) / delta_s
        envelope = np.exp(-0.5 * z * z) / (delta_s * _ROOT_TWO_PI)
        r = (m / delta_s) / delta_s
    return envelope * ((1.0 + np.exp(-r)) / 2.0) ** 2, envelope * (np.expm1(-r) / 2.0) ** 2


def completeness_defect(delta_s: float, grid: PointerGrid) -> float:
    """Max-norm deviation of the pointer-integrated s1 kernels from the identity.

    Approximates the integral of P(m)^H P(m) dm by the step-weighted sum over
    the grid: sum_e w_e (I + e s1)/2, where w_e sums the Gaussian of
    variance delta_s^2 centered at the eigenvalue e. A small defect certifies
    that the kernel family is a valid measurement on that grid.
    """
    delta_s = validate_resolution(delta_s)
    (points,) = _arm_factors((grid,), delta_s, PointerGrid.points)
    # One row per eigenvalue, so that each row sum is numpy's pairwise sum over contiguous values.
    gaussians = _gaussians(np.array(_S1_EIGENVALUES, dtype=float), points, delta_s, 0.5)
    weights = grid.step * np.sum(gaussians, axis=1) / (delta_s * _ROOT_TWO_PI)
    return float(np.max(np.abs(np.tensordot(weights, _S1_PROJECTORS, 1) - np.eye(2))))
