import math

import numpy as np
import pytest

from weakpol.linalg import (
    expectation,
    require_normalized,
)

from conftest import random_hermitian, random_pure_state, spectral

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
I2 = np.eye(2, dtype=complex)


class TestOperatorFunction:
    """The tests' spectral reference f(M) = V f(L) V^H."""

    def test_identity_function_returns_input(self, rng):
        m = random_hermitian(rng, 4)
        assert np.max(np.abs(spectral(m, lambda x: x) - m)) < 1e-10

    def test_square_of_sigma_x_is_identity(self):
        assert np.allclose(spectral(SIGMA_X, lambda x: x**2), I2)

    def test_symmetric_gaussian_collapses_to_scalar(self):
        got = spectral(SIGMA_X, lambda x: math.exp(-(x**2) / 4.0))
        assert np.allclose(got, math.exp(-0.25) * I2)

    def test_exponential_commutes_with_input(self, rng):
        for dim in (2, 4):
            m = random_hermitian(rng, dim)
            em = spectral(m, math.exp)
            assert np.max(np.abs(em @ m - m @ em)) < 1e-10

    def test_result_is_hermitian(self, rng):
        em = spectral(random_hermitian(rng, 4), math.exp)
        assert np.max(np.abs(em - em.conj().T)) <= 1e-12

    def test_degenerate_spectrum_split_by_rounding(self):
        # A two-photon s1 has the doubly degenerate eigenvalues -1 and +1. A
        # perturbation at rounding level must move the result only at that
        # level, whatever basis eigh picks inside each eigenspace.
        degenerate = np.kron(SIGMA_X, I2)
        split = degenerate + 1e-13 * np.diag([1.0, -1.0, 2.0, -2.0])
        upper = spectral(degenerate, lambda x: float(x > 0))
        assert abs(np.trace(upper).real - 2.0) < 1e-12
        assert np.max(np.abs(upper - (np.eye(4) + degenerate) / 2.0)) < 1e-12
        gaussian = lambda x: math.exp(-((x - 0.3) ** 2))
        assert np.max(np.abs(spectral(split, gaussian) - spectral(degenerate, gaussian))) < 1e-12


class TestShapesRejected:
    @pytest.mark.parametrize("v", [[], [[1.0]]])
    def test_require_normalized_needs_a_nonempty_1d_array(self, v):
        with pytest.raises(ValueError, match="nonempty 1-d complex vector"):
            require_normalized(v)

    def test_as_matrix_needs_a_square_array(self):
        with pytest.raises(ValueError, match=r"square complex matrix, got shape \(2, 3\)"):
            expectation([1.0, 0.0], np.zeros((2, 3)))


class TestNanInputsRejected:
    def test_require_normalized_rejects_nan(self):
        with pytest.raises(ValueError, match="normalized"):
            require_normalized([math.nan, 0.0])


class TestExpectation:
    def test_basis_state(self):
        assert expectation(np.array([1.0, 0.0]), np.diag([1.0, -1.0])) == pytest.approx(1.0)

    def test_sigma_x_plus_state(self):
        plus = np.array([1.0, 1.0]) / math.sqrt(2.0)
        assert expectation(plus, SIGMA_X) == pytest.approx(1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            expectation(np.array([1.0, 0.0, 0.0, 0.0]), SIGMA_X)

    def test_imaginary_quadratic_form_rejected(self):
        state = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        with pytest.raises(ValueError, match="imaginary part 5.000e-01"):
            expectation(state, np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_unnormalized_state_rejected(self):
        with pytest.raises(ValueError, match="normalized"):
            expectation(np.array([1.0, 1.0]), SIGMA_X)

    def test_matches_direct_quadratic_form(self, rng):
        for _ in range(20):
            state = random_pure_state(rng, 4)
            m = random_hermitian(rng, 4)
            direct = np.vdot(state, m @ state).real
            assert expectation(state, m) == pytest.approx(direct, abs=1e-14)

    # Every entry NaN, one real inf, one imaginary -inf.
    @pytest.mark.parametrize("cell,bad", [(..., math.nan), ((1, 2), math.inf), ((3, 0), complex(0.0, -math.inf))])
    def test_non_finite_matrix_rejected(self, cell, bad):
        m = np.eye(4, dtype=complex)
        m[cell] = bad
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            expectation(np.array([0.0, 1.0, 1.0j, 0.0]) / math.sqrt(2.0), m)
