"""Dense complex linear algebra for the 2- and 4-dimensional spaces used here.

Vectors and matrices are plain complex numpy arrays; nothing in this module
assumes a physical interpretation.
"""

from __future__ import annotations

import numpy as np

NORMALIZATION_TOL = 1e-12


def require_normalized(v) -> np.ndarray:
    arr = np.asarray(v, dtype=complex)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"expected a nonempty 1-d complex vector, got shape {arr.shape}")
    norm = np.vdot(arr, arr).real ** 0.5
    if not abs(norm - 1.0) <= NORMALIZATION_TOL:
        raise ValueError(f"state vector is not normalized (|norm - 1| = {abs(norm - 1.0):.3e})")
    return arr


def expectation(state, m) -> float:
    """Expectation value of a matrix in a normalized pure state.

    The imaginary part of the quadratic form must vanish to within 1e-12
    (true for Hermitian ``m``); the real part is returned. An ``m`` that is
    not a nonempty square matrix, or has a NaN or infinite entry, raises
    ``ValueError``.
    """
    psi = require_normalized(state)
    arr = np.asarray(m, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise ValueError(f"expected a square complex matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite, without NaN or inf")
    if arr.shape[0] != psi.size:
        raise ValueError(f"dimension mismatch: state has {psi.size}, matrix has {arr.shape[0]}")
    value = complex(np.vdot(psi, arr @ psi))
    if abs(value.imag) > 1e-12:
        raise ValueError(f"expectation value has imaginary part {value.imag:.3e}")
    return value.real
