import math

import numpy as np
import pytest


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    vec = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return vec / np.linalg.norm(vec)


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (raw + raw.conj().T) / 2.0


def spectral(target, f) -> np.ndarray:
    """V f(L) V^H for the eigenvalues L and eigenvectors V of a Hermitian ``target``, by ``np.linalg.eigh``.

    The result depends only on the spectrum, not on the basis eigh picks inside a degenerate eigenspace.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(target)
    values = np.array([float(f(float(x))) for x in eigenvalues])
    return (eigenvectors * values) @ eigenvectors.conj().T


def kernel(target, delta_s: float, m: float) -> np.ndarray:
    """The measurement operator P(m) on a Hermitian ``target``, point by point through ``spectral``.

    Its Gaussian is written out here, not taken from the library, so that a density checked against it is checked
    by a separate route.
    """
    norm = math.sqrt(delta_s * math.sqrt(2.0 * math.pi))
    return spectral(target, lambda x: math.exp(-(((x - m) / delta_s) ** 2) / 4) / norm)


def cell_volume(grids) -> float:
    return math.prod(grid.step for grid in grids)


def integrate(values: np.ndarray, grids) -> float:
    """Quadrature of a density's values over all its grids, summed over labels."""
    return float(np.sum(values)) * cell_volume(grids)


def peak_location(sheet: np.ndarray, grids) -> tuple[float, ...]:
    """Grid coordinates of the maximum of one density sheet."""
    index = np.unravel_index(int(np.argmax(sheet)), sheet.shape)
    return tuple(float(grid.points()[i]) for grid, i in zip(grids, index))


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(987654321)
