"""Finite-resolution polarization measurements and their outcome densities.

A pointer measurement of the s1 Stokes component with resolution ``delta_s``
is represented by the Gaussian operator

    P(m) = (2 pi delta_s^2)^(-1/4) * exp(-(s1_op - m)^2 / (4 delta_s^2)),

followed by a projective readout of s2. ``outcome_density`` samples the
joint density on one uniform pointer grid per photon, for 1 to 3 photons;
quadrature is the plain step-weighted sum over grid points.
A density is one product, which the CLI streams in runs of first-arm points.
Every density, rebuild, deconvolution and completeness grid must fit a size
budget (at most 2**24 cells and 1342177 points per grid), and a density's
peak (delta_s sqrt(2 pi))**-arms must be a finite float, or ``ValueError``
is raised before anything grid-sized is allocated.
The infinite-resolution limit is represented by ``math.inf`` (exported as
``LIMIT``) and is only meaningful for the quasi-probability tables, never for
density evaluation.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from itertools import product

import numpy as np

from .linalg import require_normalized
from .polarization import stokes_eigenstate, stokes_operator

LIMIT = math.inf

# Single-photon readout labels (s2 outcomes).
SINGLE_LABELS = (1, -1)


def _bare(labels: Iterable[tuple]) -> tuple:
    """Outcome labels from their per-arm parts; a one-photon label is its lone part."""
    return tuple(label[0] if len(label) == 1 else label for label in labels)


def _readout_labels(arms: int) -> tuple:
    """The readout sheets of ``arms`` photons, one s2 per arm, in the order of the amplitudes' sheet axis."""
    return _bare(product(SINGLE_LABELS, repeat=arms))


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

    @property
    def count(self) -> int:
        return int(math.floor((self.hi - self.lo) / self.step + 1e-9)) + 1

    def points(self) -> np.ndarray:
        return self.lo + self.step * np.arange(self.count)


@dataclass(frozen=True)
class OutcomeDensity:
    """Sampled density over one pointer grid per photon, one sheet per label.

    ``values`` has one axis per grid followed by the label axis, so the shape
    is (n_points, n_labels) for one photon and (n_a, n_b, n_labels) for a
    pair.
    """

    grids: tuple[PointerGrid, ...]
    values: np.ndarray

    @property
    def labels(self) -> tuple:
        """One readout label per sheet, as ``_readout_labels`` gives them for the number of grids."""
        return _readout_labels(len(self.grids))

    def label_index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown outcome label {label!r}") from None

    def sheet(self, label) -> np.ndarray:
        return self.values[..., self.label_index(label)]

    def cell_volume(self) -> float:
        return math.prod(grid.step for grid in self.grids)

    def integrate(self) -> float:
        """Quadrature over all grids and sum over labels."""
        return float(np.sum(self.values)) * self.cell_volume()

    def peak_location(self, label) -> tuple[float, ...]:
        """Grid coordinates of the sheet's maximum."""
        sheet = self.sheet(label)
        index = np.unravel_index(int(np.argmax(sheet)), sheet.shape)
        return tuple(float(grid.points()[i]) for grid, i in zip(self.grids, index))


def _contract_arms(matrices, weights: np.ndarray) -> np.ndarray:
    """Apply one matrix per arm to the leading arm axes of ``weights``.

    out[p, q, ..., j...] = sum M_0[p, e] M_1[q, f] ... weights[e, f, ..., j...],
    with any trailing axes (the readout labels) carried through, as one
    matrix product per arm: M_i times ``weights`` with arm i's axis moved to
    the front and the others flattened. The order makes the first arm's
    product the one on the grid-sized side, in C order: matrices that shrink
    the array go first arm first, so that the first product reads a C-ordered
    ``weights`` in place; matrices that grow it go last arm first, so that
    the last product writes a C-contiguous result. The products use ``@``:
    ``np.tensordot`` goes through ``np.dot``, which took twice as long on a
    401x3 by 3x1604 product, with the same bits.
    """
    grows = math.prod(len(matrix) for matrix in matrices) > math.prod(matrix.shape[1] for matrix in matrices)
    for axis in sorted(range(len(matrices)), reverse=grows):
        moved = np.moveaxis(weights, axis, 0)
        weights = np.moveaxis((matrices[axis] @ moved.reshape(len(moved), -1)).reshape(-1, *moved.shape[1:]), 0, axis)
    return weights


# Tables and densities take 1 to 3 photons: the 4**arms amplitudes, allocated
# before a density's size budget is checked, would take 1 GiB at 13 photons,
# and the 6**arms keys of a table 132 MiB at 7.
_MAX_ARMS = 3


def _amplitudes(state, arms: int) -> np.ndarray:
    """A[e_a, e_b, ..., j] = <s2 sheet j| P_ea P_eb ... |state> over the s1 eigenprojectors.

    One arm axis per photon, in ``_S1_EIGENVALUES`` order, then one axis over
    the readout sheets in ``_readout_labels(arms)`` order.
    """
    psi = require_normalized(state)
    if not 1 <= arms <= _MAX_ARMS:
        raise ValueError(f"states of 1 to {_MAX_ARMS} photons are supported, got {arms} photon(s)")
    if psi.size != 2**arms:
        raise ValueError(f"a {arms}-photon state must have dimension {2**arms}, got {psi.size}")
    per_arm = _contract_arms([_ARM.reshape(4, 2)] * arms, psi.reshape((2,) * arms))
    # per_arm axes are (e_a, s2a, e_b, s2b, ...); gather the e's first.
    order = [*range(0, 2 * arms, 2), *range(1, 2 * arms, 2)]
    return per_arm.reshape((2, 2) * arms).transpose(order).reshape((2,) * arms + (-1,))


def _gaussians(points: np.ndarray, centers, delta_s: float, scale: float) -> np.ndarray:
    """exp(-scale ((m - c)/delta_s)^2) for every grid point m (rows) and center c (columns)."""
    # Far from a center z or z*z overflows to inf, and exp gives the intended 0.
    with np.errstate(over="ignore"):
        z = (points[:, None] - np.asarray(centers, dtype=float)[None, :]) / delta_s
        return np.exp(-scale * z * z)


# A caller that streams a density takes it in runs of first-arm points of at
# most _CHUNK_CELLS cells each, so that it holds the values of one run (8 bytes
# per cell), not of the whole grid.
_CHUNK_CELLS = 2**18

# The memory budget of one density, checked before anything grid-sized is
# allocated. Measured costs: a density or a rebuild holds 8 bytes per cell, and
# a caller that holds a second grid-sized array 16, as `weakpol check` does
# when it compares a rebuild with the density; each arm takes up to 200 bytes
# per grid point when the CLI writes it (its Gaussian factors, its coordinate
# text and, for an arm after the first, its share of a one-point run).
_BUDGET_BYTES = 2**28
_CELL_BYTES = 16
_POINT_BYTES = 200


def _grid_points(grids, delta_s: float) -> list[np.ndarray]:
    """Each grid's points, once O(1) checks show that a density on ``grids`` fits the size budget and the float range.

    Else, and for more than ``_MAX_ARMS`` grids, ``ValueError``, before anything grid-sized is allocated. A density's
    sheets sum to at most (delta_s sqrt(2 pi))**-arms, which overflows below about 7.07e-104 at three photons.
    """
    if not 1 <= len(grids) <= _MAX_ARMS:
        raise ValueError(f"densities of 1 to {_MAX_ARMS} photons are supported, got {len(grids)} grid(s)")
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
    return [grid.points() for grid in grids]


def _density_chunks(state, delta_s: float, grids: tuple[PointerGrid, ...], cells=_CHUNK_CELLS) -> Iterator[np.ndarray]:
    """|<s2 sheet| K(m_a) K(m_b) ... |state>|^2 through the spectral form of each arm's kernel.

    With the other arms' kernels applied to the amplitudes of s1 = e on the
    first arm, B_e, and the first arm's kernel eigenvalues g_e(m_a), each
    value is |g_- B_- + g_+ B_+|^2 = g_-^2 |B_-|^2 + 2 g_- g_+ Re(B_- conj B_+)
    + g_+^2 |B_+|^2: one real product of the first arm's rows with three
    arrays the size of the other arms' grids, so no grid-sized complex array
    is made. Rounding can take the cancelling sum a few ulps below zero; such
    values are set to 0.

    The state, ``delta_s``, the size budget and the float range are checked
    when this is called, and raise ``ValueError``. The values then come in
    consecutive runs of first-arm points, each of shape (run length, other
    grid counts..., labels), of at most ``cells`` cells but never less than
    one point; ``cells=None`` gives the whole density as one run.
    """
    amplitudes = _amplitudes(state, len(grids))
    delta_s = validate_resolution(delta_s)
    # Each arm's kernel eigenvalues exp(-((m - e)/delta_s)^2/4) / (2 pi delta_s^2)^(1/4).
    norm = math.sqrt(delta_s * _ROOT_TWO_PI)
    first, *rest = [_gaussians(m, _S1_EIGENVALUES, delta_s, 0.25) / norm for m in _grid_points(grids, delta_s)]
    # With the first arm's axis moved last, the other arms' kernels apply to the leading axes: branches[e, j] is B_e
    # at cell j of the other arms' grids and sheets.
    applied = _contract_arms(rest, np.moveaxis(amplitudes, 0, -1))
    shape, branches = applied.shape[:-1], applied.reshape(-1, 2).T
    # Rows |B_-|^2, 2 Re(B_- conj B_+), |B_+|^2.
    terms = (branches[[0, 0, 1]] * branches[[0, 1, 1]].conj()).real * [[1.0], [2.0], [1.0]]
    # Rows [g_-^2, g_- g_+, g_+^2], one per first-arm point.
    coefficients = first[:, [0, 0, 1]] * first[:, [0, 1, 1]]
    rows = len(first) if cells is None else max(1, cells // terms.shape[1])

    def run(start: int) -> np.ndarray:
        # einsum without optimize, not BLAS: the bits of a row must not depend on how many rows come with it.
        values = np.einsum("ik,kj->ij", coefficients[start : start + rows], terms)
        return np.maximum(values, 0.0, out=values).reshape(-1, *shape)

    return map(run, range(0, len(first), rows))


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
    return OutcomeDensity(grids=grids, values=values)


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
    (points,) = _grid_points((grid,), delta_s)
    # One row per eigenvalue, so that each row sum is numpy's pairwise sum over contiguous values.
    gaussians = _gaussians(np.array(_S1_EIGENVALUES, dtype=float), points, delta_s, 0.5)
    weights = grid.step * np.sum(gaussians, axis=1) / (delta_s * _ROOT_TWO_PI)
    return float(np.max(np.abs(np.tensordot(weights, _S1_PROJECTORS, 1) - np.eye(2))))
