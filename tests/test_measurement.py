import dataclasses
import math
import tracemalloc
import warnings
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weakpol import measurement
from weakpol.measurement import (
    LIMIT,
    OutcomeDensity,
    PointerGrid,
    completeness_defect,
    eigenstate_density_closed_form,
    outcome_density,
    validate_resolution,
)
from weakpol.polarization import bell_state, stokes_eigenstate, stokes_operator
from weakpol.quasiprob import QuasiProbTable, deconvolve, quasiprob_table, reconstruct_density

from conftest import amplitudes_reference, integrate, kernel, peak_location, random_pure_state, spectral


class TestPointerGrid:
    def test_count_and_points(self):
        grid = PointerGrid(-6.0, 6.0, 0.01)
        points = grid.points()
        assert grid.count == 1201
        assert points[0] == -6.0
        assert points[-1] == pytest.approx(6.0, abs=1e-12)

    @pytest.mark.parametrize("lo,hi,step", [(-6.0, 6.0, 0.01), (0, 1, 0.3), (-14, 14, 0.05), (0.0, 1.0, 1.0), (-1, 1, 3)])
    def test_cached_count_equals_the_formula_and_keeps_equality_and_hash(self, lo, hi, step):
        grid, other = PointerGrid(lo, hi, step), PointerGrid(lo, hi, step)
        assert grid.count == int(math.floor((hi - lo) / step + 1e-9)) + 1 == len(grid.points())
        # The count is cached on the instance; a grid without it is still equal, with the same hash and repr.
        assert vars(other).pop("count") == grid.count and "count" not in vars(other)
        assert grid == other and hash(grid) == hash(other) == hash((lo, hi, step)) and repr(grid) == repr(other)
        assert [field.name for field in dataclasses.fields(PointerGrid)] == ["lo", "hi", "step"]
        assert other.count == grid.count and vars(other)["count"] == grid.count

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            PointerGrid(1.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            PointerGrid(-1.0, 1.0, 0.0)

    @pytest.mark.parametrize(
        "lo,hi,step",
        [(0.0, 1.0, math.inf), (0.0, math.inf, 1.0), (-math.inf, 0.0, 1.0), (0.0, 1.0, math.nan)],
    )
    def test_rejects_non_finite_bounds_and_step(self, lo, hi, step):
        with pytest.raises(ValueError, match="finite"):
            PointerGrid(lo, hi, step)

    @pytest.mark.parametrize("lo,hi,step", [(-1e308, 1e308, 1.0), (0.0, 1e308, 1e-10)])
    def test_rejects_finite_bounds_with_infinite_span(self, lo, hi, step):
        with pytest.raises(ValueError, match="span"):
            PointerGrid(lo, hi, step)

    @pytest.mark.parametrize("lo,hi", [(0.0, 1.7976931348623157e308), (-1.7976931348623157e308, 0.0)])
    def test_rejects_a_last_point_that_overflows(self, lo, hi):
        # The span is about 3 steps, so the last point is lo + step * 3, and step * 3 overflows.
        with pytest.raises(ValueError, match="last point must be finite"):
            PointerGrid(lo, hi, 5.992310449541053e307)

    @settings(max_examples=300, deadline=None)
    @given(
        bounds=st.lists(st.floats(allow_nan=False), min_size=2, max_size=2).map(sorted),
        points=st.integers(1, 10**4),
        step=st.none() | st.floats(allow_nan=False),
    )
    @example(bounds=[0.0, 1.7976931348623157e308], points=3, step=5.992310449541053e307)
    @example(bounds=[-1.7976931348623157e308, 0.0], points=3, step=5.992310449541053e307)
    def test_points_are_finite_over_the_full_float_range(self, bounds, points, step):
        lo, hi = bounds
        # Without a drawn step, one that gives about ``points`` points.
        step = (hi - lo) / points if step is None else step
        try:
            grid = PointerGrid(lo, hi, step)
        except ValueError:
            return
        if grid.count <= 10**4:
            assert np.isfinite(grid.points()).all()


class TestOutcomeDensityLabels:
    @pytest.mark.parametrize(
        "arms, labels",
        [(1, (1, -1)), (2, ((1, 1), (1, -1), (-1, 1), (-1, -1))), (3, tuple(product((1, -1), repeat=3)))],
    )
    def test_labels_follow_from_the_number_of_grids(self, arms, labels):
        grid = PointerGrid(-1.0, 1.0, 1.0)
        values = np.arange(3**arms * 2**arms, dtype=float).reshape((3,) * arms + (2**arms,))
        density = OutcomeDensity(grids=(grid,) * arms, values=values)
        assert density.labels == labels
        for index, label in enumerate(labels):
            assert np.array_equal(density.sheet(label), values[..., index])
        with pytest.raises(KeyError, match="unknown outcome label 0"):
            density.sheet(0)

    @pytest.mark.parametrize(
        "grids,shape,message",
        [
            ((PointerGrid(-8, 8, 1e-3),), (3, 2), r"\(3, 2\).*\(16001, 2\)"),
            ((PointerGrid(-1, 1, 1),) * 2, (3, 3, 2), r"\(3, 3, 2\).*\(3, 3, 4\)"),
            ((PointerGrid(-1, 1, 1),) * 2, (9, 4), r"\(9, 4\).*\(3, 3, 4\)"),
            ((), (1,), "1 to 3 photons"),
            ((PointerGrid(-1, 1, 1),) * 4, (3, 3, 3, 3, 16), "1 to 3 photons"),
        ],
        ids=["single-3-of-16001-points", "pair-2-labels", "pair-flat", "no-grids", "four-grids"],
    )
    def test_values_of_another_shape_or_arm_count_are_refused(self, grids, shape, message):
        with pytest.raises(ValueError, match=message):
            OutcomeDensity(grids, np.zeros(shape))

    @pytest.mark.parametrize(
        "values,kind",
        [
            ([[0.0, 0.0]] * 3, "list"),
            (np.zeros((3, 2), dtype=complex), "complex128"),
            (np.zeros((3, 2), dtype=object), "object"),
        ],
        ids=["list", "complex", "object"],
    )
    def test_values_that_are_not_a_real_numeric_array_are_refused(self, values, kind):
        with pytest.raises(ValueError, match=f"must be a real numeric array, got {kind}"):
            OutcomeDensity((PointerGrid(-1, 1, 1),), values)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.float32, np.float64])
    def test_integer_and_float_values_are_kept(self, dtype):
        values = np.ones((3, 2), dtype=dtype)
        assert OutcomeDensity((PointerGrid(-1, 1, 1),), values).values is values


class TestMeasurementKernel:
    """The tests' point-by-point reference for P(m): ``conftest.kernel``."""

    def test_centered_kernel_on_sigma_x(self):
        expected = math.exp(-0.25) * (2.0 * math.pi) ** -0.25 * np.eye(2)
        assert np.allclose(kernel(stokes_operator(1), 1.0, 0.0), expected, atol=1e-15)

    @pytest.mark.parametrize("m", [-2.0, -0.3, 0.0, 1.7])
    def test_commutes_with_target(self, m):
        s1 = stokes_operator(1)
        p = kernel(s1, 0.6, m)
        assert np.max(np.abs(p @ s1 - s1 @ p)) < 1e-15

    def test_positive_semidefinite(self):
        assert np.linalg.eigvalsh(kernel(stokes_operator(1), 0.5, 1.3)).min() > -1e-15


class TestCompleteness:
    def test_defect_small_on_adequate_grids(self):
        assert completeness_defect(0.6, PointerGrid(-8, 8, 1e-3)) < 1e-6
        assert completeness_defect(2.0, PointerGrid(-14, 14, 1e-3)) < 1e-6

    def test_truncated_grid_is_detected(self):
        defect = completeness_defect(2.0, PointerGrid(-2, 2, 1e-3))
        assert defect > 0.1

    @pytest.mark.parametrize("delta_s", [0.3, 0.6, 2.0])
    def test_equals_the_spectral_formula_on_s1(self, delta_s):
        # The integrated kernel, step sum_m exp(-((m - x)/delta_s)^2/2) / (delta_s sqrt(2 pi)),
        # as a function of s1 through its eigen-decomposition.
        norm = delta_s * math.sqrt(2 * math.pi)
        for grid in (PointerGrid(-8, 8, 1e-3), PointerGrid(-14, 14, 1e-3), PointerGrid(-2, 2, 1e-3)):
            points = grid.points()

            def integrated_kernel(x):
                return grid.step * float(np.sum(np.exp(-0.5 * ((points - x) / delta_s) ** 2))) / norm

            quadrature = spectral(stokes_operator(1), integrated_kernel)
            defect = float(np.max(np.abs(quadrature - np.eye(2))))
            assert completeness_defect(delta_s, grid) == pytest.approx(defect, abs=1e-15)


class TestSingleOutcomeDensity:
    def test_peak_value_for_s2_plus_eigenstate(self):
        # Oracle: the closed form at m=0 is exp(-1/(2 ds^2)) / sqrt(2 pi ds^2),
        # which evaluates to 0.16579523132124782 at ds=0.6; the s2=-1 sheet
        # carries a sinh(0)^2 = 0 factor there.
        density = outcome_density(stokes_eigenstate(2, +1), 0.6, PointerGrid(-6, 6, 0.01))
        center = 600
        expected = math.exp(-1.0 / 0.72) / math.sqrt(2.0 * math.pi * 0.36)
        assert density.sheet(1)[center] == pytest.approx(expected, abs=1e-12)
        assert abs(expected - 0.16580) < 5e-6
        assert density.sheet(-1)[center] == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("delta_s", [0.3, 0.6, 1.0, 2.0])
    def test_matches_closed_form_oracle(self, delta_s):
        grid = PointerGrid(-4, 4, 0.01)
        density = outcome_density(stokes_eigenstate(2, +1), delta_s, grid)
        p_plus, p_minus = eigenstate_density_closed_form(delta_s, grid.points())
        assert np.max(np.abs(density.sheet(1) - p_plus)) < 1e-12
        assert np.max(np.abs(density.sheet(-1) - p_minus)) < 1e-12

    def test_matches_literal_kernel_application(self):
        state = stokes_eigenstate(2, +1)
        grid = PointerGrid(-3, 3, 0.5)
        density = outcome_density(state, 0.6, grid)
        for i, m in enumerate(grid.points()):
            p = kernel(stokes_operator(1), 0.6, float(m))
            for s2 in (1, -1):
                literal = abs(np.vdot(stokes_eigenstate(2, s2), p @ state)) ** 2
                assert density.sheet(s2)[i] == pytest.approx(literal, abs=1e-14)

    def test_parity_symmetry_of_eigenstate_density(self):
        density = outcome_density(stokes_eigenstate(2, +1), 0.6, PointerGrid(-4, 4, 0.01))
        assert np.allclose(density.values, density.values[::-1], atol=1e-15)

    def test_normalization(self):
        density = outcome_density(stokes_eigenstate(2, +1), 0.6, PointerGrid(-6, 6, 0.01))
        assert integrate(density.values, density.grids) == pytest.approx(1.0, abs=1e-6)

    def test_back_action_populates_other_outcome(self):
        density = outcome_density(stokes_eigenstate(2, +1), 0.6, PointerGrid(-6, 6, 0.01))
        at_two = int(round((2.0 - (-6.0)) / 0.01))
        assert density.sheet(-1)[at_two] > 0.0

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="dimension 2"):
            outcome_density(bell_state(), 0.6, PointerGrid(-6, 6, 0.1))

    def test_limit_resolution_rejected(self):
        with pytest.raises(ValueError):
            outcome_density(stokes_eigenstate(2, +1), LIMIT, PointerGrid(-6, 6, 0.1))


class TestArmCount:
    """The number of grids is the number of photons, from 1 to 3."""

    def test_no_grid_rejected(self):
        with pytest.raises(ValueError, match="1 to 3 photons"):
            outcome_density(stokes_eigenstate(2, +1), 0.6)

    def test_four_photons_rejected(self):
        with pytest.raises(ValueError, match="1 to 3 photons"):
            outcome_density(np.full(16, 0.25), 0.6, *[PointerGrid(-1, 1, 1)] * 4)

    @pytest.mark.parametrize("photons,arms", [(1, 2), (2, 1), (2, 3), (3, 1), (3, 2)])
    def test_a_state_of_another_photon_count_is_refused_before_any_product(self, monkeypatch, rng, photons, arms):
        def state_map(arms):
            raise AssertionError("a product with the state was made")

        monkeypatch.setattr(measurement, "_state_map", state_map)
        state, grids = random_pure_state(rng, 2**photons), (PointerGrid(-1, 1, 1),) * arms
        message = f"{arms} grid(s) need a state of dimension {2**arms} (1 to 3 photons), got {2**photons}"
        with pytest.raises(ValueError) as refused:
            outcome_density(state, 0.6, *grids)
        assert str(refused.value) == message
        with pytest.raises(ValueError) as refused:
            measurement._density_chunks(state, 0.6, grids)
        assert str(refused.value) == message


class TestClosedForm:
    def test_against_inline_formula(self):
        delta_s, m = 0.6, 1.0
        variance = delta_s**2
        envelope = math.exp(-(m**2 + 1) / (2 * variance)) / math.sqrt(2 * math.pi * variance)
        p_plus, p_minus = eigenstate_density_closed_form(delta_s, m)
        assert p_plus == pytest.approx(envelope * math.cosh(m / (2 * variance)) ** 2, abs=1e-15)
        assert p_minus == pytest.approx(envelope * math.sinh(m / (2 * variance)) ** 2, abs=1e-15)

    @pytest.mark.parametrize("delta_s", [0.4, 0.6, 1.5])
    def test_sum_identity(self, delta_s):
        # cosh^2 + sinh^2 = cosh(2x)
        m = np.linspace(-3, 3, 61)
        p_plus, p_minus = eigenstate_density_closed_form(delta_s, m)
        variance = delta_s**2
        expected = (
            np.exp(-(m**2 + 1) / (2 * variance))
            / math.sqrt(2 * math.pi * variance)
            * np.cosh(m / variance)
        )
        assert np.max(np.abs(p_plus + p_minus - expected)) < 1e-14


@pytest.fixture(scope="module")
def bell_density():
    grid = PointerGrid(-14, 14, 0.05)
    return outcome_density(bell_state(), 2.0, grid, grid)


class TestCoincidenceDensity:

    def test_anticorrelated_sheet_peaks_beyond_eigenvalues(self, bell_density):
        root_two = math.sqrt(2.0)
        ma, mb = peak_location(bell_density.sheet((1, -1)), bell_density.grids)
        assert abs(ma - root_two) <= 0.05 and abs(mb - root_two) <= 0.05
        ma, mb = peak_location(bell_density.sheet((-1, 1)), bell_density.grids)
        assert abs(ma + root_two) <= 0.05 and abs(mb + root_two) <= 0.05

    def test_total_normalization(self, bell_density):
        assert integrate(bell_density.values, bell_density.grids) == pytest.approx(1.0, abs=1e-4)

    def test_point_reflection_symmetry_between_correlated_sheets(self, bell_density):
        sheet_pp = bell_density.sheet((1, 1))
        sheet_mm = bell_density.sheet((-1, -1))
        assert np.max(np.abs(sheet_pp - sheet_mm[::-1, ::-1])) < 1e-15

    def test_matches_literal_kernel_application(self, rng):
        grid_a = PointerGrid(-2, 2, 0.5)
        grid_b = PointerGrid(-1.5, 2.5, 1.0)
        for _ in range(3):
            state = random_pure_state(rng, 4)
            density = outcome_density(state, 0.6, grid_a, grid_b)
            readout = {
                label: np.kron(stokes_eigenstate(2, label[0]), stokes_eigenstate(2, label[1]))
                for label in density.labels
            }
            for i, ma in enumerate(grid_a.points()):
                kernel_a = kernel(np.kron(stokes_operator(1), np.eye(2)), 0.6, float(ma))
                for k, mb in enumerate(grid_b.points()):
                    kernel_b = kernel(np.kron(np.eye(2), stokes_operator(1)), 0.6, float(mb))
                    for label, chi in readout.items():
                        literal = abs(np.vdot(chi, kernel_a @ kernel_b @ state)) ** 2
                        assert density.sheet(label)[i, k] == pytest.approx(literal, abs=1e-14)

    def test_wrong_dimension_rejected(self):
        grid = PointerGrid(-8, 8, 0.5)
        with pytest.raises(ValueError, match="dimension 4"):
            outcome_density(stokes_eigenstate(2, +1), 1.0, grid, grid)


class TestThreePhotonDensity:
    def test_matches_literal_kernel_application(self, rng):
        # Three photons are the case where the first arm meets two other arms' kernels.
        grids = (PointerGrid(-2, 2, 1.0), PointerGrid(-1.5, 1.5, 1.5), PointerGrid(-1, 2, 1.0))
        # kron(s1, I, I), kron(I, s1, I) and kron(I, I, s1).
        s1, identity = stokes_operator(1), np.eye(2)
        targets = [reduce(np.kron, [s1 if arm == k else identity for arm in range(3)]) for k in range(3)]
        for _ in range(3):
            state = random_pure_state(rng, 8)
            density = outcome_density(state, 0.6, *grids)
            readout = [reduce(np.kron, [stokes_eigenstate(2, s2) for s2 in label]) for label in density.labels]
            for cell in np.ndindex(density.values.shape[:-1]):
                applied = state
                for target, grid, i in zip(targets, grids, cell):
                    applied = kernel(target, 0.6, float(grid.points()[i])) @ applied
                for sheet, chi in enumerate(readout):
                    literal = abs(np.vdot(chi, applied)) ** 2
                    assert density.values[(*cell, sheet)] == pytest.approx(literal, abs=1e-14)


class TestContractArms:
    @staticmethod
    def einsum_reference(matrices, weights):
        arms = len(matrices)
        operands = []
        for axis, matrix in enumerate(matrices):
            operands += [matrix, [arms + axis, axis]]
        return np.einsum(*operands, weights, [*range(arms), ...], [*range(arms, 2 * arms), ...])

    # (rows, columns) per arm: matrices that grow the array, shrink it, or both; a first matrix of one row is the
    # CLI's one-point chunk, and leading arms of one column give a later arm a batch of length 1.
    @pytest.mark.parametrize(
        "shapes",
        [
            [(9, 2)],
            [(3, 7)],
            [(1, 2)],
            [(9, 2), (7, 2)],
            [(3, 11), (3, 8)],
            [(1, 2), (13, 2)],
            [(9, 3), (2, 5)],
            [(2, 6), (10, 3)],
            [(5, 2), (4, 2), (6, 2)],
            [(3, 7), (3, 6), (3, 5)],
            [(1, 2), (6, 2), (5, 2)],
            [(4, 2), (3, 9), (6, 3)],
            [(3, 1), (4, 2)],
            [(2, 1), (5, 1), (3, 2)],
        ],
    )
    @pytest.mark.parametrize("trailing", [(), (4,), (2, 3)])
    def test_equals_einsum(self, rng, shapes, trailing):
        def draw(dtype, shape):
            return rng.normal(size=shape) + (1j * rng.normal(size=shape) if dtype is complex else 0)

        for matrix_type, weight_type in [(float, float), (float, complex), (complex, complex)]:
            matrices = [draw(matrix_type, shape) for shape in shapes]
            weights = draw(weight_type, (*(columns for _, columns in shapes), *trailing))
            # A view with the axes reversed is not C-contiguous, like the moved amplitudes a density's later arms take.
            reversed_view = draw(weight_type, weights.shape[::-1]).T
            for operand in (weights, reversed_view):
                result = measurement._contract_arms(matrices, operand)
                expected = self.einsum_reference(matrices, operand)
                assert result.shape == expected.shape
                np.testing.assert_allclose(result, expected, rtol=1e-14, atol=1e-14 * np.max(np.abs(expected)))

    @pytest.mark.parametrize("arms", [1, 2, 3])
    def test_densities_and_rebuilds_are_c_contiguous(self, arms):
        state = [stokes_eigenstate(2, +1), bell_state(), np.eye(8)[0] / 2**0.5 + np.eye(8)[7] / 2**0.5][arms - 1]
        grids = [PointerGrid(-6, 6, 0.5), PointerGrid(-5, 5, 0.25), PointerGrid(-7, 7, 1.0)][:arms]
        density = outcome_density(state, 0.6, *grids)
        rebuilt = reconstruct_density(quasiprob_table(state, 0.6), *grids)
        assert density.values.flags.c_contiguous and rebuilt.values.flags.c_contiguous


class TestStateMap:
    @pytest.mark.parametrize("arms", [1, 2, 3])
    def test_state_map_amplitudes_equal_the_per_arm_reference(self, rng, arms):
        for state in [*np.eye(2**arms), *(random_pure_state(rng, 2**arms) for _ in range(50))]:
            amplitudes = (measurement._state_map(arms) @ state).reshape((2,) * arms + (-1,))
            assert amplitudes.shape == (2,) * arms + (2**arms,)
            np.testing.assert_allclose(amplitudes, amplitudes_reference(state), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("arms", [1, 2, 3])
    def test_state_map_is_made_once_per_arm_count(self, arms):
        state_map = measurement._state_map(arms)
        assert state_map is measurement._state_map(arms) and state_map.shape == (4**arms, 2**arms)
        # Column k holds the amplitudes of basis state k.
        for k, basis in enumerate(np.eye(2**arms)):
            np.testing.assert_allclose(state_map[:, k], amplitudes_reference(basis).ravel(), rtol=0, atol=1e-15)


class TestArmFactors:
    def test_factor_is_made_once_per_distinct_grid_in_order_of_first_appearance(self):
        a, b = PointerGrid(-1, 1, 1), PointerGrid(-2, 2, 1)
        calls = []

        def factor(grid):
            calls.append(grid)
            return len(calls), grid

        # An equal grid built anew is the same grid.
        factors = measurement._arm_factors((b, a, PointerGrid(-2, 2, 1)), 1.0, factor)
        assert calls == [b, a]
        assert factors == [(1, b), (2, a), (1, b)] and factors[0] is factors[2]

    def test_grids_are_told_apart_without_hashing(self):
        class UnhashableGrid(PointerGrid):
            __hash__ = None

        a, b = UnhashableGrid(-1, 1, 1), UnhashableGrid(-2, 2, 1)
        with pytest.raises(TypeError):
            hash(a)
        calls = []

        def factor(grid):
            calls.append(grid)
            return len(calls), grid

        factors = measurement._arm_factors((b, a, UnhashableGrid(-2, 2, 1)), 1.0, factor)
        assert calls == [b, a]
        assert factors == [(1, b), (2, a), (1, b)] and factors[0] is factors[2]

    @pytest.mark.parametrize(
        "grids,delta_s,message",
        [
            ((PointerGrid(-14, 14, 1e-7),), 1.0, "over the size budget"),
            ((PointerGrid(0, 4096, 1),) * 2, 1.0, "over the size budget"),
            ((PointerGrid(-1, 1, 1),) * 3, 1e-104, "too small for 3 photons"),
        ],
        ids=["points", "cells", "peak"],
    )
    def test_over_the_budget_or_the_peak_raises_before_a_factor_is_made(self, grids, delta_s, message):
        def factor(grid):
            raise AssertionError("a factor was made")

        with pytest.raises(ValueError, match=message):
            measurement._arm_factors(grids, delta_s, factor)


class TestDensityChunks:
    @staticmethod
    def drain_peak(points_a, points_b):
        grid_a, grid_b = PointerGrid(-14, 14, 28 / (points_a - 1)), PointerGrid(-14, 14, 28 / (points_b - 1))
        tracemalloc.start()
        try:
            for _ in measurement._density_chunks(bell_state(), 2.0, (grid_a, grid_b)):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_draining_the_chunks_holds_a_few_chunks_at_any_grid_size(self):
        # A run of 1024 rows takes 32 KB; arm b's kernel arrays about 180 bytes per cell of its grid and labels, 1.1 MB
        # at 1501 points. Neither grows with arm a's grid.
        small = self.drain_peak(801, 801)
        assert self.drain_peak(1501, 1501) < 2**21
        assert self.drain_peak(1501, 801) < 1.1 * small

    def test_a_later_arm_cell_costs_at_most_its_budget_constant(self):
        # tracemalloc's marginal peak per cell of the second arm's grid and labels, between two large second grids.
        def peak(points_b):
            grids = (PointerGrid(-14, 14, 28), PointerGrid(-14, 14, 28 / (points_b - 1)))
            tracemalloc.start()
            try:
                measurement._density_chunks(bell_state(), 2.0, grids)
                return tracemalloc.get_traced_memory()[1], grids[1].count * 4
            finally:
                tracemalloc.stop()

        (small, small_cells), (large, large_cells) = peak(20001), peak(40001)
        assert large_cells - small_cells == 80000
        assert (large - small) / (large_cells - small_cells) <= measurement._LATER_CELL_BYTES

    def test_draining_the_default_pair_chunks_holds_one_chunk_of_real_values(self):
        # The default `weakpol pair`: 561x561 points, 4 sheets, in runs of 8-byte values (32 KB), and arm b's kernel
        # arrays (about 180 bytes for each of its 561 x 4 cells, 404 KB), and nothing grid-sized.
        grid = PointerGrid(-14, 14, 0.05)
        tracemalloc.start()
        try:
            for chunk in measurement._density_chunks(bell_state(), 2.0, (grid, grid)):
                del chunk
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**19

    @staticmethod
    def density_peak(points):
        grid = PointerGrid(-10, 10, 20 / (points - 1))
        tracemalloc.start()
        try:
            density = outcome_density(bell_state(), 2.0, grid, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert density.values.shape == (points, points, 4)
        return peak / density.values.nbytes

    def test_a_density_in_one_chunk_allocates_little_beyond_its_values(self):
        assert self.density_peak(401) < 1.25

    def test_a_density_of_many_chunks_allocates_little_beyond_its_values(self):
        # The default `weakpol pair` density, 561x561 points: the CLI takes it in 561 runs, the library in one.
        assert self.density_peak(561) < 1.25

    def test_chunks_are_runs_of_first_arm_points_within_the_chunk_size(self):
        cases = [
            # 601 rows per first-arm point: one point per run.
            (PointerGrid(-14, 14, 0.05), PointerGrid(-3, 3, 0.01), [601] * 561),
            # 5 rows per point: runs of 204 points, and the 153 left.
            (PointerGrid(-14, 14, 0.05), PointerGrid(-1, 1, 0.5), [1020, 1020, 765]),
            # 3001 rows per point: each point in runs of 1024, 1024 and 953 rows.
            (PointerGrid(-1, 1, 1), PointerGrid(-3, 3, 0.002), [1024, 1024, 953] * 3),
        ]
        assert measurement._RUN_ROWS == 1024
        for grid_a, grid_b, lengths in cases:
            chunks = measurement._density_chunks(bell_state(), 2.0, (grid_a, grid_b))
            assert [chunk.shape for chunk in chunks] == [(length, 4) for length in lengths]

    @pytest.mark.parametrize("arms,points", [(1, 2**19 + 1), (2, 513), (3, 41)])
    def test_chunks_equal_the_density_in_one_piece(self, rng, arms, points):
        # 2**19 + 1 points of one arm in runs of 1024 rows leave a last run of one row; a three-photon point of 41x41
        # rows comes in runs of 1024 and 657 rows.
        grids = (PointerGrid(-6, 6, 12 / (points - 1)),) * arms
        state = [stokes_eigenstate(2, +1), bell_state(), random_pure_state(rng, 8)][arms - 1]
        chunks = list(measurement._density_chunks(state, 0.6, grids))
        expected = outcome_density(state, 0.6, *grids).values
        assert len(chunks) > 1 and np.array_equal(np.concatenate(chunks), expected.reshape(-1, 2**arms))

    def test_a_lone_chunk_is_the_density(self, monkeypatch):
        chunk = np.ones((3, 2))
        monkeypatch.setattr(measurement, "_density_chunks", lambda *args: iter([chunk]))
        # A view of the lone run, not a copy.
        assert outcome_density(stokes_eigenstate(2, +1), 0.6, PointerGrid(-1, 1, 1)).values.base is chunk

    @pytest.mark.parametrize(
        "counts",
        [(2, 1333334), (2, 1000, 1000)],
        ids=["pair-2x1333334", "three-2x1000x1000"],
    )
    @pytest.mark.usefixtures("address_space_cap")
    def test_kernel_arrays_over_the_size_budget_raise_before_allocating(self, rng, counts):
        # 10.7M and 16M cells, under the budget of 2**24 cells, but the kernel arrays of the arms after the first would
        # take about 180 bytes per cell of their grids and labels: 960 MB and 1.4 GB.
        grids = [PointerGrid(0, count - 1, 1) for count in counts]
        assert [grid.count for grid in grids] == list(counts)
        state = random_pure_state(rng, 2 ** len(counts))
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="over the size budget"):
                outcome_density(state, 2.0, *grids)
            with pytest.raises(ValueError, match="over the size budget"):
                measurement._density_chunks(state, 2.0, grids)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("grid", [PointerGrid(-14, 14, 1e-7), PointerGrid(-14, 14, 0.005)])
    @pytest.mark.usefixtures("address_space_cap")
    def test_over_the_size_budget_raises_before_allocating(self, grid):
        table = quasiprob_table(bell_state(), 2.0)
        calls = [
            lambda: outcome_density(bell_state(), 2.0, grid, grid),
            lambda: reconstruct_density(table, grid, grid),
            # 2,000,000,001 points: 16 GB for the points alone.
            lambda: completeness_defect(2.0, PointerGrid(-1e5, 1e5, 1e-4)),
        ]
        tracemalloc.start()
        try:
            for call in calls:
                with pytest.raises(ValueError, match="over the size budget"):
                    call()
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()

    @pytest.mark.usefixtures("address_space_cap")
    def test_deconvolution_and_rebuild_check_their_grids_before_allocating(self):
        def deconvolve_zeros_on(grid):
            # Every value a view of one zero, so that the density allocates nothing.
            return deconvolve(OutcomeDensity((grid,), np.broadcast_to(0.0, (grid.count, 2))), 1.0)

        calls = [
            # 1600001 points: over the budget of points per grid.
            (lambda: deconvolve_zeros_on(PointerGrid(-8, 8, 1e-5)), "over the size budget"),
            # Seven photons: the table keys alone would take 132 MiB.
            (lambda: reconstruct_density(QuasiProbTable({}, 1.0, 7), *[PointerGrid(0, 1, 1)] * 7), "1 to 3 photons"),
        ]
        tracemalloc.start()
        try:
            for call, message in calls:
                with pytest.raises(ValueError, match=message):
                    call()
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()


class TestNonnegativity:
    def test_densities_of_random_states_are_nonnegative(self, rng):
        grid_1d = PointerGrid(-6, 6, 0.02)
        for _ in range(25):
            density = outcome_density(random_pure_state(rng, 2), 0.6, grid_1d)
            assert density.values.min() >= -1e-12
        grid_2d = PointerGrid(-6, 6, 0.1)
        for _ in range(25):
            density = outcome_density(random_pure_state(rng, 4), 0.6, grid_2d, grid_2d)
            assert density.values.min() >= -1e-12

    # The three-term sum can round below zero where the two s1 = +-1 branches cancel; it is clamped at 0.
    @pytest.mark.parametrize("delta_s", [0.3, 0.6, 1.0, 1.5, 2.0])
    def test_cancelling_sheets_through_m_zero_are_exactly_nonnegative(self, delta_s):
        # y+ on s2 = -1: the branches are equal and opposite, and at m = 0 the density is sinh^2(0) = 0.
        grid = PointerGrid(-3, 3, 0.125)
        density = outcome_density(stokes_eigenstate(2, +1), delta_s, grid)
        assert grid.points()[24] == 0.0 and density.sheet(-1)[24] == 0.0
        assert density.values.min() >= 0.0
        # Unclamped, 20 to 956 of these values of two and three y+ photons came out below zero at delta_s >= 1.
        near_zero, coarse = PointerGrid(-1e-6, 1e-6, 1e-8), PointerGrid(-3, 3, 0.5)
        for arms in (1, 2, 3):
            state = reduce(np.kron, [stokes_eigenstate(2, +1)] * arms)
            density = outcome_density(state, delta_s, near_zero, *[coarse] * (arms - 1))
            assert density.values.min() >= 0.0

    def test_densities_of_random_states_are_exactly_nonnegative(self, rng):
        grids = [PointerGrid(-6, 6, 0.02), PointerGrid(-6, 6, 0.1), PointerGrid(-3, 3, 0.25)]
        for arms, grid in enumerate(grids, start=1):
            for delta_s in (0.3, 0.6, 2.0):
                for _ in range(8):
                    density = outcome_density(random_pure_state(rng, 2**arms), delta_s, *[grid] * arms)
                    assert density.values.min() >= 0.0

    def test_pair_labels_cover_all_four_sheets(self, bell_density):
        assert set(bell_density.labels) == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
        assert len(bell_density.labels) == bell_density.values.shape[-1]


class TestResolutionRange:
    @pytest.mark.parametrize("delta_s", [1e-200, 5e-324, 1e155, 1e200, 0.0, -1.0, math.nan, -math.inf])
    def test_out_of_range_names_the_accepted_range(self, delta_s):
        with pytest.raises(ValueError, match="7.5e-155 to 1.3e154"):
            validate_resolution(delta_s)

    @settings(max_examples=150, deadline=None)
    @given(delta_s=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @example(delta_s=1e-104)
    def test_every_positive_float_gives_finite_results_or_value_error(self, delta_s):
        grid = PointerGrid(-2, 2, 0.5)
        yplus = stokes_eigenstate(2, +1)
        ghz = np.zeros(8)
        ghz[[0, 7]] = 2**-0.5
        # Three-photon densities peak near (delta_s sqrt(2 pi))**-3, past the float range at 1e-104.
        three_photons = [
            lambda: outcome_density(ghz, delta_s, grid, grid, grid).values,
            lambda: reconstruct_density(quasiprob_table(ghz, delta_s), grid, grid, grid).values,
        ]
        calls = [
            lambda: outcome_density(yplus, delta_s, grid).values,
            lambda: outcome_density(bell_state(), delta_s, grid, grid).values,
            lambda: list(quasiprob_table(yplus, delta_s).entries.values()),
            lambda: list(quasiprob_table(bell_state(), delta_s).entries.values()),
            lambda: reconstruct_density(quasiprob_table(bell_state(), delta_s), grid, grid).values,
            lambda: eigenstate_density_closed_form(delta_s, grid.points()),
            lambda: completeness_defect(delta_s, grid),
        ]
        try:
            validate_resolution(delta_s)
        except ValueError:
            for call in calls + three_photons:
                with pytest.raises(ValueError):
                    call()
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                assert np.isfinite(np.asarray(call())).all()
            for call in three_photons:
                try:
                    assert np.isfinite(call()).all()
                except ValueError:
                    # Refused only where the peak is past the float range: at 1e-100 it is 1.98e297.
                    assert delta_s < 1e-100
            # The fit may refuse the grid or the design, but only with ValueError.
            try:
                table = deconvolve(outcome_density(yplus, delta_s, PointerGrid(-8, 8, 0.5)), delta_s)
            except ValueError:
                return
            assert np.isfinite(list(table.entries.values())).all()


class TestPointerValueRange:
    def test_far_pointer_values_give_zeros_without_warning(self):
        grid = PointerGrid(-1e300, 1e300, 1e299)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert completeness_defect(1e-10, grid) == 1.0
            rebuilt = reconstruct_density(quasiprob_table(stokes_eigenstate(2, +1), 1e-10), grid)
            assert not rebuilt.values.any()

    @settings(max_examples=150, deadline=None)
    @given(m=st.floats(), delta_s=st.sampled_from([1e-150, 1e-10, 0.6, 1e150]))
    @example(m=math.nan, delta_s=0.6)
    def test_every_float_gives_finite_values_or_value_error(self, m, delta_s):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if math.isnan(m):
                with pytest.raises(ValueError, match="NaN"):
                    eigenstate_density_closed_form(delta_s, m)
            else:
                assert np.isfinite(eigenstate_density_closed_form(delta_s, m)).all()
