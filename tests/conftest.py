import math
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from weakpol.polarization import stokes_eigenstate, stokes_operator


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


def amplitudes_reference(state) -> np.ndarray:
    """A[e_a, e_b, ..., j] = <s2 sheet j| P_ea P_eb ... |state>, applied arm by arm with ``np.tensordot``.

    Each arm's factor <s2| (I + e s1)/2 is built here from the Stokes operator and eigenstates, with e in (-1, 1)
    and s2 in (1, -1); the sheets j run over the arms' s2 values with arm a slowest.
    """
    arm = np.array([[stokes_eigenstate(2, s2).conj() @ (np.eye(2) + e * stokes_operator(1)) / 2 for s2 in (1, -1)]
                    for e in (-1, 1)])
    arms = len(state).bit_length() - 1
    tensor = np.asarray(state, dtype=complex).reshape((2,) * arms)
    for _ in range(arms):
        # The next arm's axis is the leading one; its (e, s2) axes are appended.
        tensor = np.tensordot(tensor, arm, axes=([0], [2]))
    # Axes (e_a, s2a, e_b, s2b, ...): the e's first, then the s2's as one sheet axis.
    order = [*range(0, 2 * arms, 2), *range(1, 2 * arms, 2)]
    return tensor.transpose(order).reshape((2,) * arms + (-1,))


def table_reference(state, delta_s: float) -> dict:
    """Table weights keyed as the library keys them, by the per-arm construction from ``amplitudes_reference``.

    products[e_a, e_a', e_b, e_b', ..., j] = A[e_a, e_b, ..., j] conj(A[e_a', e_b', ..., j]) are contracted arm by
    arm, with ``np.tensordot``, against C[c, (e, e')]: 1 where the s1 center c in (-1, 0, 1) is the midpoint of the
    eigenvalues e and e', the cross pairs damped by exp(-1/(2 delta_s^2)) (1 at inf).
    """
    amplitudes = amplitudes_reference(state)
    arms = amplitudes.ndim - 1
    damping = math.exp(-0.5 / delta_s**2)
    centers = np.array([[1, 0, 0, 0], [0, damping, damping, 0], [0, 0, 0, 1]])
    primed, unprimed, sheet = [*range(1, 2 * arms, 2)], [*range(0, 2 * arms, 2)], 2 * arms
    weights = np.einsum(amplitudes, [*unprimed, sheet], amplitudes.conj(), [*primed, sheet], [*range(sheet + 1)])
    weights = weights.reshape((4,) * arms + (-1,))
    for _ in range(arms):
        # The next arm's (e, e') axis is the leading one; its center axis is appended.
        weights = np.tensordot(weights, centers, axes=([0], [1]))
    weights = np.moveaxis(weights, 0, -1).real
    labels = product(product((-1, 0, 1), repeat=arms), product((1, -1), repeat=arms))
    keys = [tuple(zip(s1, s2)) for s1, s2 in labels]
    return {key[0] if arms == 1 else key: weight for key, weight in zip(keys, weights.ravel().tolist())}


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


@pytest.fixture
def address_space_cap():
    """Cap this process's address space at its current size plus 1 GiB while the test runs, then restore the limit.

    A test of a refusal that must come before a large allocation then fails fast with ``MemoryError`` if the
    allocation comes first, instead of taking gigabytes. Where ``resource`` or ``/proc`` is missing the test is skipped.
    """
    resource = pytest.importorskip("resource")
    statm = Path("/proc/self/statm")
    if not statm.exists():
        pytest.skip("the process size, which the cap starts from, is read from /proc/self/statm")
    size = int(statm.read_text().split()[0]) * resource.getpagesize()
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    cap = size + 2**30 if soft == resource.RLIM_INFINITY else min(size + 2**30, soft)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))
