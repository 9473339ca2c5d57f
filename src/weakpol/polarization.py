"""Stokes operator algebra in the circular polarization basis.

Basis order is (R, L) for each photon; a two-photon operator is
``np.kron(op_a, op_b)``, arm ``a`` the slow factor, so the combined basis is
|RR>, |RL>, |LR>, |LL>. On the one-photon subspace the three Stokes
components are the Pauli matrices with eigenvalues +-1.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .linalg import expectation

STOKES_AXES = (1, 2, 3)

# Relative phase of the |L;R> component of the entangled pair state. With
# s1/s2 represented as below, +pi/4 makes the state the +2*sqrt(2) eigenstate
# of the CHSH correlation operator; the opposite sign would zero it out.
BELL_PHASE = np.pi / 4

_STOKES = {
    1: np.array([[0, 1], [1, 0]], dtype=complex),
    2: np.array([[0, -1j], [1j, 0]], dtype=complex),
    3: np.array([[1, 0], [0, -1]], dtype=complex),
}

# (axis, eigenvalue) -> eigenvector, in the phase convention of stokes_eigenstate.
_ROOT_HALF = 1.0 / np.sqrt(2.0)
_EIGENSTATES = {
    (1, 1): (_ROOT_HALF, _ROOT_HALF),
    (1, -1): (_ROOT_HALF, -_ROOT_HALF),
    (2, 1): (_ROOT_HALF, 1j * _ROOT_HALF),
    (2, -1): (_ROOT_HALF, -1j * _ROOT_HALF),
    (3, 1): (1.0, 0.0),
    (3, -1): (0.0, 1.0),
}


def _check_axis(axis: int) -> int:
    if axis not in STOKES_AXES:
        raise ValueError(f"Stokes axis must be one of {STOKES_AXES}, got {axis!r}")
    return axis


def stokes_operator(axis: int) -> np.ndarray:
    """Single-photon Stokes component (2x2 Hermitian) in the (R, L) basis."""
    return _STOKES[_check_axis(axis)].copy()


def stokes_eigenstate(axis: int, value: int) -> np.ndarray:
    """Normalized eigenvector of a Stokes component for eigenvalue +-1.

    The phase convention fixes the first component of largest magnitude to be
    real and positive, e.g. (axis 2, +1) -> (1, i)/sqrt(2).
    """
    if value not in (-1, 1):
        raise ValueError(f"Stokes eigenvalue must be -1 or +1, got {value!r}")
    return np.array(_EIGENSTATES[(_check_axis(axis), value)], dtype=complex)


def bell_state() -> np.ndarray:
    """Entangled pair state (|R;L> + exp(i*pi/4)|L;R>)/sqrt(2)."""
    state = np.zeros(4, dtype=complex)
    state[1] = 1.0
    state[2] = np.exp(1j * BELL_PHASE)
    return state / np.sqrt(2.0)


def chsh_combination(s1a: float, s2a: float, s1b: float, s2b: float) -> float:
    """The CHSH correlation combination s1a*s1b + s2a*s1b - s1a*s2b + s2a*s2b, elementwise on arrays."""
    return s1a * s1b + s2a * s1b - s1a * s2b + s2a * s2b


def bell_operator() -> np.ndarray:
    """CHSH correlation operator: ``chsh_combination`` with each product of two arms the np.kron of their matrices."""
    # Axes (row a, row b, column a, column b): elementwise products are Kronecker products, arm a the slow factor.
    s1a, s2a = (stokes_operator(axis)[:, None, :, None] for axis in (1, 2))
    s1b, s2b = (stokes_operator(axis)[None, :, None, :] for axis in (1, 2))
    return chsh_combination(s1a, s2a, s1b, s2b).reshape(4, 4)


def classical_chsh_bound() -> float:
    """Largest CHSH combination reachable by assigning +-1 to all four components."""
    return max(
        chsh_combination(s1a, s2a, s1b, s2b)
        for s1a, s2a, s1b, s2b in product((-1.0, 1.0), repeat=4)
    )


def bell_expectation() -> float:
    """CHSH expectation value of the entangled pair state (equals 2*sqrt(2))."""
    return expectation(bell_state(), bell_operator())
