"""Finite-resolution polarization measurements and their outcome densities.

A pointer measurement of the s1 Stokes component with resolution ``delta_s``
is represented by the Gaussian operator

    P(m) = (2 pi delta_s^2)^(-1/4) * exp(-(s1_op - m)^2 / (4 delta_s^2)),

followed by a projective readout of s2. Densities are sampled on uniform
pointer grids; quadrature is the plain step-weighted sum over grid points.
The infinite-resolution limit is represented by ``math.inf`` (exported as
``LIMIT``) and is only meaningful for the quasi-probability tables, never for
density evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import SpectralDecomposition, hermitian_eigen, operator_function, require_hermitian, require_normalized, tensor
from .polarization import stokes_eigenstate, stokes_operator, two_photon_stokes

LIMIT = math.inf

# Single-photon readout labels (s2 outcomes) and the pair sheets (s2a, s2b).
SINGLE_LABELS = (1, -1)
PAIR_LABELS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def validate_resolution(delta_s: float, allow_limit: bool = False) -> float:
    value = float(delta_s)
    if math.isinf(value):
        if not allow_limit or value < 0:
            raise ValueError("infinite resolution is not accepted here")
        return value
    if not (value > 0) or math.isnan(value):
        raise ValueError(f"resolution delta_s must be positive, got {delta_s!r}")
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

    @property
    def count(self) -> int:
        return int(math.floor((self.hi - self.lo) / self.step + 1e-9)) + 1

    def points(self) -> np.ndarray:
        return self.lo + self.step * np.arange(self.count)


@dataclass(frozen=True)
class OutcomeDensity:
    """Sampled density over one or two pointer grids, one sheet per label.

    ``values`` has one axis per grid followed by the label axis, so the shape
    is (n_points, n_labels) for one photon and (n_a, n_b, n_labels) for a
    pair.
    """

    grids: tuple[PointerGrid, ...]
    labels: tuple
    values: np.ndarray

    def label_index(self, label) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"unknown outcome label {label!r}") from None

    def sheet(self, label) -> np.ndarray:
        return self.values[..., self.label_index(label)]

    def cell_volume(self) -> float:
        volume = 1.0
        for grid in self.grids:
            volume *= grid.step
        return volume

    def integrate(self) -> float:
        """Quadrature over all grids and sum over labels."""
        return float(np.sum(self.values)) * self.cell_volume()

    def peak_location(self, label) -> tuple[float, ...]:
        """Grid coordinates of the sheet's maximum."""
        sheet = self.sheet(label)
        index = np.unravel_index(int(np.argmax(sheet)), sheet.shape)
        return tuple(float(grid.points()[i]) for grid, i in zip(self.grids, index))


def measurement_kernel(target, delta_s: float, m: float) -> np.ndarray:
    """Gaussian measurement operator for pointer value ``m`` on a Hermitian target."""
    target = require_hermitian(target)
    delta_s = validate_resolution(delta_s)
    prefactor = (2.0 * math.pi * delta_s**2) ** -0.25
    variance4 = 4.0 * delta_s**2
    return prefactor * operator_function(target, lambda x: math.exp(-((x - m) ** 2) / variance4))


def _gaussian_factors(decomposition: SpectralDecomposition, delta_s: float, points: np.ndarray) -> np.ndarray:
    """exp(-(lambda - m)^2 / (4 delta_s^2)) for every grid point and cluster."""
    gaps = points[:, None] - decomposition.distinct_eigenvalues[None, :]
    return np.exp(-(gaps**2) / (4.0 * delta_s**2))


def single_outcome_density(state, delta_s: float, grid: PointerGrid) -> OutcomeDensity:
    """Joint density of the s1 pointer value and the final s2 outcome.

    For each grid point m and s2 = +-1 this is |<s2| P(m) |state>|^2 with the
    kernel built on the s1 component. Evaluated through the spectral form of
    the kernel, which is identical to applying ``measurement_kernel`` point by
    point.
    """
    psi = require_normalized(state)
    if psi.size != 2:
        raise ValueError(f"single-photon state must have dimension 2, got {psi.size}")
    delta_s = validate_resolution(delta_s)

    decomposition = hermitian_eigen(stokes_operator(1))
    readout = [stokes_eigenstate(2, label) for label in SINGLE_LABELS]
    # amplitudes[e, j] = <s2_j| P_e |psi> for the s1 eigenprojectors P_e
    amplitudes = np.array(
        [[np.vdot(chi, projector @ psi) for chi in readout] for projector in decomposition.projectors]
    )

    factors = _gaussian_factors(decomposition, delta_s, grid.points())
    prefactor = 1.0 / math.sqrt(2.0 * math.pi * delta_s**2)
    values = prefactor * np.abs(factors @ amplitudes) ** 2
    return OutcomeDensity(grids=(grid,), labels=SINGLE_LABELS, values=values)


def eigenstate_density_closed_form(delta_s: float, m):
    """Closed-form densities for the s2 = +1 eigenstate.

    Returns the pair (P(m; s2=+1), P(m; s2=-1)); ``m`` may be a scalar or an
    array. Serves as an independent oracle for ``single_outcome_density``:

        P(m; +-1) = exp(-(m^2+1)/(2 ds^2)) / sqrt(2 pi ds^2)
                    * cosh^2 or sinh^2 of m/(2 ds^2).
    """
    delta_s = validate_resolution(delta_s)
    m = np.asarray(m, dtype=float)
    variance = delta_s**2
    envelope = np.exp(-(m**2 + 1.0) / (2.0 * variance)) / math.sqrt(2.0 * math.pi * variance)
    argument = m / (2.0 * variance)
    return envelope * np.cosh(argument) ** 2, envelope * np.sinh(argument) ** 2


def coincidence_density(
    state,
    delta_s: float,
    grid_a: PointerGrid,
    grid_b: PointerGrid,
    *,
    delta_s_b: float | None = None,
) -> OutcomeDensity:
    """Joint pointer/readout density for a photon pair.

    Both arms carry an s1 pointer measurement (resolution ``delta_s``, or
    ``delta_s_b`` on arm b when given) followed by projective s2 readouts.
    The two kernels act on different tensor factors and commute, so this is
    |<s2a, s2b| K_a(m_a) K_b(m_b) |state>|^2 per sheet.
    """
    psi = require_normalized(state)
    if psi.size != 4:
        raise ValueError(f"pair state must have dimension 4, got {psi.size}")
    delta_s = validate_resolution(delta_s)
    delta_s_b = delta_s if delta_s_b is None else validate_resolution(delta_s_b)

    decomposition_a = hermitian_eigen(two_photon_stokes(1, "a"))
    decomposition_b = hermitian_eigen(two_photon_stokes(1, "b"))
    readout = [
        tensor(stokes_eigenstate(2, s2a), stokes_eigenstate(2, s2b)) for s2a, s2b in PAIR_LABELS
    ]
    # amplitudes[e, f, j] = <s2 pair j| P_e(a) P_f(b) |psi>
    amplitudes = np.array(
        [
            [[np.vdot(chi, pa @ (pb @ psi)) for chi in readout] for pb in decomposition_b.projectors]
            for pa in decomposition_a.projectors
        ]
    )

    factors_a = _gaussian_factors(decomposition_a, delta_s, grid_a.points())
    factors_b = _gaussian_factors(decomposition_b, delta_s_b, grid_b.points())
    prefactor = 1.0 / (
        math.sqrt(2.0 * math.pi * delta_s**2) * math.sqrt(2.0 * math.pi * delta_s_b**2)
    )
    signal = np.einsum("pe,qf,efj->pqj", factors_a, factors_b, amplitudes, optimize=True)
    values = prefactor * np.abs(signal) ** 2
    return OutcomeDensity(grids=(grid_a, grid_b), labels=PAIR_LABELS, values=values)


def completeness_defect(target, delta_s: float, grid: PointerGrid) -> float:
    """Max-norm deviation of the pointer-integrated kernels from the identity.

    Approximates the integral of P(m)^H P(m) dm by the step-weighted sum over
    the grid; a small defect certifies that the kernel family is a valid
    measurement on that grid.
    """
    target = require_hermitian(target)
    delta_s = validate_resolution(delta_s)
    decomposition = hermitian_eigen(target)
    factors = _gaussian_factors(decomposition, delta_s, grid.points())
    prefactor = 1.0 / math.sqrt(2.0 * math.pi * delta_s**2)
    cluster_weights = prefactor * grid.step * np.sum(factors**2, axis=0)

    quadrature = np.zeros((decomposition.dim, decomposition.dim), dtype=complex)
    for weight, projector in zip(cluster_weights, decomposition.projectors):
        quadrature += weight * projector
    return float(np.max(np.abs(quadrature - np.eye(decomposition.dim))))
