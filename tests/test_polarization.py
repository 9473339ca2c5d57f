import math
from itertools import product

import numpy as np
import pytest

from weakpol.linalg import expectation
from weakpol.polarization import (
    bell_expectation,
    bell_operator,
    bell_state,
    chsh_combination,
    classical_chsh_bound,
    stokes_eigenstate,
    stokes_operator,
)

ROOT_HALF = 1.0 / math.sqrt(2.0)


class TestStokesOperators:
    def test_matrix_representations(self):
        assert np.array_equal(stokes_operator(1), [[0, 1], [1, 0]])
        assert np.array_equal(stokes_operator(2), [[0, -1j], [1j, 0]])
        assert np.array_equal(stokes_operator(3), [[1, 0], [0, -1]])

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_eigenvalues_are_plus_minus_one(self, axis):
        assert np.allclose(np.linalg.eigvalsh(stokes_operator(axis)), [-1.0, 1.0])

    @pytest.mark.parametrize("axis", [1, 2, 3])
    def test_square_is_identity(self, axis):
        s = stokes_operator(axis)
        assert np.array_equal(s @ s, np.eye(2))

    def test_commutator_algebra(self):
        # [s_i, s_j] = 2i epsilon_ijk s_k
        for i, j, k, sign in [(1, 2, 3, 1), (2, 3, 1, 1), (3, 1, 2, 1), (2, 1, 3, -1)]:
            si, sj, sk = stokes_operator(i), stokes_operator(j), stokes_operator(k)
            assert np.max(np.abs(si @ sj - sj @ si - sign * 2j * sk)) <= 1e-15

    def test_invalid_axis(self):
        with pytest.raises(ValueError, match="axis"):
            stokes_operator(4)


class TestStokesEigenstates:
    @pytest.mark.parametrize(
        "axis,value,expected",
        [
            (3, 1, [1.0, 0.0]),
            (3, -1, [0.0, 1.0]),
            (2, 1, [ROOT_HALF, 1j * ROOT_HALF]),
            (2, -1, [ROOT_HALF, -1j * ROOT_HALF]),
            (1, 1, [ROOT_HALF, ROOT_HALF]),
            (1, -1, [ROOT_HALF, -ROOT_HALF]),
        ],
    )
    def test_canonical_vectors(self, axis, value, expected):
        state = stokes_eigenstate(axis, value)
        assert np.allclose(state, expected, atol=1e-15)
        operator = stokes_operator(axis)
        assert np.allclose(operator @ state, value * state, atol=1e-15)

    def test_invalid_value(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            stokes_eigenstate(1, 0)


class TestBellState:
    def test_normalized(self):
        assert abs(np.linalg.norm(bell_state()) - 1.0) < 1e-15

    def test_no_rr_or_ll_amplitude(self):
        state = bell_state()
        assert state[0] == 0 and state[3] == 0

    def test_balanced_between_s3_branches(self):
        assert expectation(bell_state(), np.kron(stokes_operator(3), np.eye(2))) == pytest.approx(0.0, abs=1e-15)


class TestBellOperator:
    def test_hermitian(self):
        k = bell_operator()
        assert np.max(np.abs(k - k.conj().T)) <= 1e-15

    def test_expectation_reaches_two_root_two(self):
        assert abs(bell_expectation() - 2.0 * math.sqrt(2.0)) < 1e-12

    def test_equals_the_sum_of_arm_operator_products_bit_for_bit(self):
        identity = np.eye(2)
        a = {axis: np.kron(stokes_operator(axis), identity) for axis in (1, 2)}
        b = {axis: np.kron(identity, stokes_operator(axis)) for axis in (1, 2)}
        products = a[1] @ b[1] + a[2] @ b[1] - a[1] @ b[2] + a[2] @ b[2]
        operator = bell_operator()
        assert operator.shape == products.shape and operator.tobytes() == products.tobytes()

    def test_largest_eigenvalue(self):
        top = np.linalg.eigvalsh(bell_operator())[-1]
        assert top == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)

    def test_bell_state_is_eigenstate(self):
        psi = bell_state()
        residual = bell_operator() @ psi - 2.0 * math.sqrt(2.0) * psi
        assert np.linalg.norm(residual) < 1e-12


class TestClassicalBound:
    def test_maximum_is_two(self):
        assert classical_chsh_bound() == 2.0

    def test_minimum_is_minus_two(self):
        low = min(
            chsh_combination(*assignment) for assignment in product((-1.0, 1.0), repeat=4)
        )
        assert low == -2.0

    def test_specific_assignment(self):
        assert chsh_combination(1, 1, 1, -1) == 2.0

    def test_quantum_value_strictly_violates_bound(self):
        assert bell_expectation() > classical_chsh_bound()
