"""Dense complex linear algebra for the 2- and 4-dimensional spaces used here.

Vectors and matrices are plain complex numpy arrays; nothing in this module
assumes a physical interpretation. Functions of Hermitian operators go
through ``numpy.linalg.eigh``; tensor products are plain ``np.kron``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

HERMITIAN_TOL = 1e-12
NORMALIZATION_TOL = 1e-12


def as_vector(v) -> np.ndarray:
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a nonempty 1-d complex vector, got shape {arr.shape}")
    return arr


def as_matrix(m) -> np.ndarray:
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"expected a square complex matrix, got shape {arr.shape}")
    return arr


def require_hermitian(m) -> np.ndarray:
    """Return ``m`` as a complex array, raising if it is not Hermitian."""
    arr = as_matrix(m)
    defect = float(np.max(np.abs(arr - arr.conj().T)))
    # Written so that a NaN defect fails the check too.
    if not defect <= HERMITIAN_TOL:
        raise ValueError(f"matrix is not Hermitian (max |M - M^H| = {defect:.3e})")
    return arr


def require_normalized(v) -> np.ndarray:
    arr = as_vector(v)
    norm = float(np.linalg.norm(arr))
    if not abs(norm - 1.0) <= NORMALIZATION_TOL:
        raise ValueError(f"state vector is not normalized (|norm - 1| = {abs(norm - 1.0):.3e})")
    return arr


def operator_function(m, f: Callable[[float], float]) -> np.ndarray:
    """Apply a real scalar function to a Hermitian matrix via spectral calculus.

    Returns ``V f(L) V^H`` for the eigenvalues ``L`` and eigenvectors ``V`` of
    ``m``. The result depends only on the spectrum, not on the basis chosen
    inside a degenerate eigenspace, so it stays continuous when an exact
    degeneracy is split by rounding; it is Hermitian whenever ``f`` is
    real-valued.
    """
    eigenvalues, eigenvectors = np.linalg.eigh(require_hermitian(m))
    values = np.array([float(f(float(x))) for x in eigenvalues])
    return (eigenvectors * values) @ eigenvectors.conj().T


def expectation(state, m) -> float:
    """Expectation value of a matrix in a normalized pure state.

    The imaginary part of the quadratic form must vanish to within 1e-12
    (true for Hermitian ``m``); the real part is returned. A NaN or infinite
    entry of ``m`` raises ``ValueError``.
    """
    psi = require_normalized(state)
    arr = as_matrix(m)
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite, without NaN or inf")
    if arr.shape[0] != psi.size:
        raise ValueError(f"dimension mismatch: state has {psi.size}, matrix has {arr.shape[0]}")
    value = complex(np.vdot(psi, arr @ psi))
    if abs(value.imag) > 1e-12:
        raise ValueError(f"expectation value has imaginary part {value.imag:.3e}")
    return value.real
