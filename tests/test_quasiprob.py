import math
import re
import subprocess
import sys
import tracemalloc
from functools import reduce
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import weakpol
from weakpol import measurement, quasiprob
from weakpol.linalg import expectation
from weakpol.measurement import (
    LIMIT,
    OutcomeDensity,
    PointerGrid,
    outcome_density,
)
from weakpol.polarization import bell_state, chsh_combination, stokes_eigenstate, stokes_operator
from weakpol.quasiprob import (
    IllConditionedDesignError,
    PAIR_COLUMN_LABELS,
    PAIR_ROW_LABELS,
    QuasiProbTable,
    deconvolve,
    k_distribution,
    quasiprob_table,
    reconstruct_density,
)

from conftest import kernel, random_pure_state, table_reference

ROOT_TWO = math.sqrt(2.0)


class TestSingleTable:
    def test_limit_table_for_s2_plus_eigenstate(self):
        table = quasiprob_table(stokes_eigenstate(2, +1), LIMIT)
        expected = {
            (-1, 1): 0.25,
            (0, 1): 0.5,
            (1, 1): 0.25,
            (-1, -1): 0.25,
            (0, -1): -0.5,
            (1, -1): 0.25,
        }
        for label, value in expected.items():
            assert table.entries[label] == pytest.approx(value, abs=1e-12)
        assert table.total == pytest.approx(1.0, abs=1e-12)
        assert abs(table.deficit) < 1e-12

    @pytest.mark.parametrize("delta_s", [0.5, 1.0, 2.0])
    def test_finite_resolution_damps_cross_terms_only(self, delta_s):
        table = quasiprob_table(stokes_eigenstate(2, +1), delta_s)
        damping = math.exp(-1.0 / (2.0 * delta_s**2))
        for s2 in (1, -1):
            assert table.entries[(1, s2)] == pytest.approx(0.25, abs=1e-12)
            assert table.entries[(-1, s2)] == pytest.approx(0.25, abs=1e-12)
        assert table.entries[(0, 1)] == pytest.approx(0.5 * damping, abs=1e-12)
        assert table.entries[(0, -1)] == pytest.approx(-0.5 * damping, abs=1e-12)
        assert table.total == pytest.approx(1.0, abs=1e-12)

    def test_s1_eigenstate_concentrates_on_one_column(self):
        table = quasiprob_table(stokes_eigenstate(1, +1), LIMIT)
        assert table.entries[(1, 1)] == pytest.approx(0.5, abs=1e-12)
        assert table.entries[(1, -1)] == pytest.approx(0.5, abs=1e-12)
        for label in [(-1, 1), (-1, -1), (0, 1), (0, -1)]:
            assert table.entries[label] == pytest.approx(0.0, abs=1e-12)

    def test_zero_marginal_for_random_states(self, rng):
        for _ in range(20):
            table = quasiprob_table(random_pure_state(rng, 2), LIMIT)
            assert abs(table.entries[(0, 1)] + table.entries[(0, -1)]) < 1e-12

    def test_moment_reproduction_at_limit(self, rng):
        s1 = stokes_operator(1)
        s2 = stokes_operator(2)
        symmetrized = (s1 @ s2 + s2 @ s1) / 2.0
        for _ in range(20):
            state = random_pure_state(rng, 2)
            table = quasiprob_table(state, LIMIT)
            m1 = sum(w * label[0] for label, w in table.entries.items())
            m2 = sum(w * label[1] for label, w in table.entries.items())
            m12 = sum(w * label[0] * label[1] for label, w in table.entries.items())
            assert m1 == pytest.approx(expectation(state, s1), abs=1e-12)
            assert m2 == pytest.approx(expectation(state, s2), abs=1e-12)
            assert m12 == pytest.approx(expectation(state, symmetrized), abs=1e-12)


@pytest.fixture(scope="module")
def limit_table():
    return quasiprob_table(bell_state(), LIMIT)


class TestPairTable:

    def test_anchor_entries(self, limit_table):
        assert limit_table.entries[((1, 1), (1, 1))] == pytest.approx((2 + ROOT_TWO) / 32, abs=1e-12)
        assert limit_table.entries[((0, 1), (0, 1))] == pytest.approx(1 / (4 * ROOT_TWO), abs=1e-12)
        assert limit_table.entries[((0, -1), (0, 1))] == pytest.approx(-1 / (4 * ROOT_TWO), abs=1e-12)

    def test_total_is_one(self, limit_table):
        assert limit_table.total == pytest.approx(1.0, abs=1e-12)
        assert len(limit_table.entries) == 36

    def test_contains_negative_weights(self, limit_table):
        assert min(limit_table.entries.values()) < -1e-3

    def test_zero_hyper_marginals(self, rng):
        for _ in range(20):
            table = quasiprob_table(random_pure_state(rng, 4), LIMIT)
            zero_a = sum(w for (la, lb), w in table.entries.items() if la[0] == 0)
            zero_b = sum(w for (la, lb), w in table.entries.items() if lb[0] == 0)
            assert abs(zero_a) < 1e-12
            assert abs(zero_b) < 1e-12

    def test_moment_reproduction_at_limit(self, rng):
        operators = {
            (i, j): np.kron(stokes_operator(i), stokes_operator(j))
            for i in (1, 2)
            for j in (1, 2)
        }
        for _ in range(20):
            state = random_pure_state(rng, 4)
            table = quasiprob_table(state, LIMIT)
            for (i, j), operator in operators.items():
                moment = sum(
                    w * la[i - 1] * lb[j - 1] for (la, lb), w in table.entries.items()
                )
                assert moment == pytest.approx(expectation(state, operator), abs=1e-12)


class TestReconstruction:
    def test_single_rebuilds_measured_density(self, rng):
        grid = PointerGrid(-6, 6, 0.01)
        for _ in range(10):
            state = random_pure_state(rng, 2)
            table = quasiprob_table(state, 0.6)
            rebuilt = reconstruct_density(table, grid)
            direct = outcome_density(state, 0.6, grid)
            assert np.max(np.abs(rebuilt.values - direct.values)) < 1e-10

    def test_pair_rebuilds_measured_density(self, rng):
        grid = PointerGrid(-8, 8, 0.1)
        for _ in range(3):
            state = random_pure_state(rng, 4)
            table = quasiprob_table(state, 1.0)
            rebuilt = reconstruct_density(table, grid, grid)
            direct = outcome_density(state, 1.0, grid, grid)
            assert np.max(np.abs(rebuilt.values - direct.values)) < 1e-10

    def test_negative_weights_never_surface_in_the_density(self):
        table = quasiprob_table(bell_state(), 2.0)
        assert min(table.entries.values()) < -1e-3
        grid = PointerGrid(-14, 14, 0.1)
        rebuilt = reconstruct_density(table, grid, grid)
        assert rebuilt.values.min() >= -1e-12

    @pytest.mark.parametrize("arms,grids", [(1, 2), (2, 1), (2, 3)])
    def test_one_grid_per_photon(self, arms, grids):
        state = stokes_eigenstate(2, +1) if arms == 1 else bell_state()
        table = quasiprob_table(state, 0.6)
        with pytest.raises(ValueError, match=f"a {arms}-photon table needs one grid per photon, got {grids} grid"):
            reconstruct_density(table, *[PointerGrid(-6, 6, 0.1)] * grids)

    def test_limit_table_cannot_be_remixed(self):
        table = quasiprob_table(stokes_eigenstate(2, +1), LIMIT)
        with pytest.raises(ValueError):
            reconstruct_density(table, PointerGrid(-6, 6, 0.1))

    # A table is checked when it is built, so that reconstruct_density, k_distribution, total and deficit can trust it.
    @pytest.mark.parametrize("arms", [0, 4, 7])
    def test_arm_count_outside_one_to_three_rejected(self, arms):
        with pytest.raises(ValueError, match=f"tables of 1 to 3 photons are supported, got {arms} photon"):
            QuasiProbTable({}, 1.0, arms)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_is_named(self, bad):
        table = quasiprob_table(bell_state(), 2.0)
        key = list(table.entries)[5]
        with pytest.raises(ValueError, match=re.escape(f"table weight {bad!r} of key {key!r} is not finite")):
            QuasiProbTable({**table.entries, key: bad}, 2.0, 2)

    @settings(max_examples=100, deadline=None)
    @given(arms=st.integers(1, 3), bad=st.sampled_from([math.nan, math.inf, -math.inf]), data=st.data())
    def test_non_finite_weight_at_any_key_is_named(self, arms, bad, data):
        entries = quasiprob_table(np.eye(2**arms)[0], 1.0).entries
        key = data.draw(st.sampled_from(list(entries)))
        with pytest.raises(ValueError, match=re.escape(f"of key {key!r} is not finite")):
            QuasiProbTable({**entries, key: bad}, 1.0, arms)

    def test_missing_weight_is_named(self):
        table = quasiprob_table(bell_state(), 2.0)
        key = list(table.entries)[5]
        entries = {other: weight for other, weight in table.entries.items() if other != key}
        with pytest.raises(ValueError, match=re.escape(f"the table has no weight for key {key!r}")):
            QuasiProbTable(entries, 2.0, 2)

    def test_extra_key_is_named(self):
        table = quasiprob_table(bell_state(), 2.0)
        with pytest.raises(ValueError, match="weight for key 'unused', which is not a 2-photon label"):
            QuasiProbTable({**table.entries, "unused": 0.0}, 2.0, 2)

    def test_a_missing_key_is_named_before_a_non_finite_weight(self):
        entries = dict(quasiprob_table(bell_state(), 2.0).entries)
        keys = list(entries)
        del entries[keys[5]]
        entries[keys[0]] = math.nan
        with pytest.raises(ValueError, match=re.escape(f"the table has no weight for key {keys[5]!r}")):
            QuasiProbTable(entries, 2.0, 2)

    def test_a_foreign_key_in_place_of_a_label_is_refused(self):
        # The same number of keys, one of them not a label: the missing label is named.
        entries = dict(quasiprob_table(bell_state(), 2.0).entries)
        key = list(entries)[5]
        del entries[key]
        entries["unused"] = 0.0
        with pytest.raises(ValueError, match=re.escape(f"the table has no weight for key {key!r}")):
            QuasiProbTable(entries, 2.0, 2)

    def test_an_extra_key_is_named_before_a_non_finite_weight(self):
        entries = {**quasiprob_table(bell_state(), 2.0).entries, "unused": 0.0}
        entries[next(iter(entries))] = math.nan
        with pytest.raises(ValueError, match="weight for key 'unused', which is not a 2-photon label"):
            QuasiProbTable(entries, 2.0, 2)

    def test_a_non_finite_weight_is_named_before_an_overflowing_sum(self):
        entries = self.pair_table_with_k_extremes(1e308)
        key = list(entries)[7]
        entries[key] = math.nan
        with pytest.raises(ValueError, match=re.escape(f"table weight nan of key {key!r} is not finite")):
            QuasiProbTable(entries, 2.0, 2)

    @pytest.mark.parametrize("arms", [1, 2, 3])
    def test_shuffled_keys_negative_zero_and_subnormal_weights_are_accepted(self, rng, arms):
        entries = quasiprob_table(random_pure_state(rng, 2**arms), 0.8).entries
        keys = list(entries)
        shuffled = {keys[i]: entries[keys[i]] for i in rng.permutation(len(keys))}
        shuffled[keys[0]], shuffled[keys[1]], shuffled[keys[2]] = -0.0, 5e-324, -2.2250738585072e-310
        given_keys, given_bits = list(shuffled), np.array(list(shuffled.values())).tobytes()
        table = QuasiProbTable(shuffled, 0.8, arms)
        # The same key -> weight pairs, bit for bit, in table order.
        assert list(table.entries) == keys and list(shuffled) != keys
        assert np.array(list(table.entries.values())).tobytes() == np.array([shuffled[k] for k in keys]).tobytes()
        # The sign of -0.0 and the subnormals are kept.
        assert math.copysign(1.0, table.entries[keys[0]]) == -1.0
        assert (table.entries[keys[1]], table.entries[keys[2]]) == (5e-324, -2.2250738585072e-310)
        # The caller's dict is not changed.
        assert table.entries is not shuffled
        assert list(shuffled) == given_keys and np.array(list(shuffled.values())).tobytes() == given_bits

    @pytest.mark.parametrize("arms", [1, 2, 3])
    def test_of_two_missing_keys_the_first_in_table_order_is_named(self, rng, arms):
        entries = quasiprob_table(random_pure_state(rng, 2**arms), 1.0).entries
        keys = list(entries)
        pairs = list(combinations(range(len(keys)), 2))
        for i, j in pairs if arms < 3 else [pairs[k] for k in rng.choice(len(pairs), 100, replace=False)]:
            missing = {key: weight for key, weight in entries.items() if key not in (keys[i], keys[j])}
            with pytest.raises(ValueError, match=re.escape(f"the table has no weight for key {keys[i]!r}")):
                QuasiProbTable(missing, 1.0, arms)

    @pytest.mark.parametrize("arms", [1, 2, 3])
    def test_a_shuffled_table_rebuilds_and_sums_bit_for_bit_as_in_table_order(self, rng, arms):
        grid = PointerGrid(-5, 5, 0.5)
        for delta_s in (0.3, 1.0, 2.5):
            table = quasiprob_table(random_pure_state(rng, 2**arms), delta_s)
            keys = list(table.entries)
            entries = {keys[i]: table.entries[keys[i]] for i in rng.permutation(len(keys))}
            shuffled = QuasiProbTable(entries, delta_s, arms)
            rebuilt = [reconstruct_density(t, *[grid] * arms).values.tobytes() for t in (table, shuffled)]
            assert rebuilt[0] == rebuilt[1]
            if arms == 2:
                assert repr(k_distribution(shuffled).weights) == repr(k_distribution(table).weights)

    def test_entries_and_k_weights_are_python_floats(self, rng):
        # The benchmark digests a table as repr(list(entries.items())): an np.float64 would print differently.
        grid = PointerGrid(-8, 8, 0.25)
        for arms in (1, 2):
            state = random_pure_state(rng, 2**arms)
            deconvolved = deconvolve(outcome_density(state, 1.0, *[grid] * arms), 1.0)
            for table in (quasiprob_table(state, 1.0), quasiprob_table(state, LIMIT), deconvolved):
                assert all(type(weight) is float for weight in table.entries.values())
        weights = k_distribution(quasiprob_table(bell_state(), 1.0)).weights
        assert [*map(type, weights)] == [int] * 5 and [*map(type, weights.values())] == [float] * 5

    @pytest.mark.parametrize("weight", [1.0, 2**-1074, "1.0", 1j])
    def test_a_weight_that_is_not_a_real_number_is_refused(self, weight):
        entries = dict.fromkeys(quasiprob_table(bell_state(), 2.0).entries, 0.0)
        entries[(0, 1), (0, 1)] = weight
        if isinstance(weight, float):
            assert QuasiProbTable(entries, 2.0, 2).entries[(0, 1), (0, 1)] == weight
        else:
            with pytest.raises(TypeError, match="must be real number"):
                QuasiProbTable(entries, 2.0, 2)

    @staticmethod
    def pair_table_with_k_extremes(weight):
        entries = dict.fromkeys(quasiprob_table(bell_state(), 2.0).entries, 0.0)
        # K = 2 and K = -2.
        entries[(1, 1), (1, 1)] = entries[(-1, -1), (1, 1)] = weight
        return entries

    def test_weights_whose_doubled_sum_overflows_are_rejected(self):
        # Else its K mean would be inf - inf = nan, its total inf and its deficit -inf.
        with pytest.raises(ValueError, match="overflows the float range"):
            QuasiProbTable(self.pair_table_with_k_extremes(1e308), 2.0, 2)

    def test_weights_inside_the_float_range_give_finite_sums(self):
        table = QuasiProbTable(self.pair_table_with_k_extremes(4e307), 2.0, 2)
        distribution = k_distribution(table)
        assert (distribution.mean(), distribution.total(), table.total, table.deficit) == (0.0, 8e307, 8e307, -8e307)

    def test_weights_too_large_for_the_rebuild_raise_before_allocating(self):
        # At delta_s = 0.1 the Gaussians peak at 3.99 per arm: 4e307 * 3.99**2 is past the float range.
        entries = dict.fromkeys(quasiprob_table(bell_state(), 2.0).entries, 0.0)
        entries[(1, 1), (1, 1)] = 4e307
        grid = PointerGrid(-2, 2, 0.5)
        table = QuasiProbTable(entries, 0.1, 2)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="could overflow the float range"):
                reconstruct_density(table, grid, grid)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()
        # At delta_s = 0.4 the peak is below 1, and the same weights rebuild to finite values.
        assert np.isfinite(reconstruct_density(QuasiProbTable(entries, 0.4, 2), grid, grid).values).all()


class TestTableOrder:
    @staticmethod
    def dict_table(weights):
        """Entries through a dict keyed in the weight tensor's C order, then looked up in table order."""
        arms = weights.ndim - 1
        readouts = list(product((1, -1), repeat=arms))
        tensor_keys = [tuple(zip(s1, s2)) for s1 in product((-1, 0, 1), repeat=arms) for s2 in readouts]
        tensor_keys = [key[0] if arms == 1 else key for key in tensor_keys]
        by_key = dict(zip(tensor_keys, weights.ravel().tolist()))
        table_keys = {
            1: [(s1, s2) for s2 in (1, -1) for s1 in (-1, 0, 1)],
            2: [(label_a, label_b) for label_b in PAIR_ROW_LABELS for label_a in PAIR_COLUMN_LABELS],
        }.get(arms, tensor_keys)
        return {key: by_key[key] for key in table_keys}

    @pytest.mark.parametrize("arms", [1, 2, 3])
    def test_table_order_and_values_equal_the_dict_construction_bit_for_bit(self, rng, arms):
        for _ in range(20):
            weights = rng.normal(size=(3,) * arms + (2**arms,))
            weights.ravel()[rng.integers(weights.size, size=3)] = -0.0
            entries, expected = quasiprob._table(weights, 0.7).entries, self.dict_table(weights)
            assert list(entries) == list(expected)
            assert np.array(list(entries.values())).tobytes() == np.array(list(expected.values())).tobytes()


class TestTableMap:
    @staticmethod
    def at_midpoint(key, arms: int) -> bool:
        """Whether some arm of the key has s1 = 0."""
        return 0 in ([key[0]] if arms == 1 else [s1 for s1, _ in key])

    @pytest.mark.parametrize("arms", [1, 2, 3])
    def test_table_map_weights_equal_the_per_arm_reference(self, rng, arms):
        for _ in range(30):
            state = random_pure_state(rng, 2**arms)
            for delta_s in (1e-3, 0.3, 1.0, 2.5, LIMIT):
                entries, expected = quasiprob_table(state, delta_s).entries, table_reference(state, delta_s)
                assert entries.keys() == expected.keys()
                np.testing.assert_allclose([entries[key] for key in expected], [*expected.values()], rtol=0, atol=1e-15)

    @pytest.mark.parametrize("arms", [1, 2, 3])
    def test_table_map_is_made_once_per_arm_count(self, arms):
        operators, zeros = quasiprob._table_map(arms)
        assert quasiprob._table_map(arms)[0] is operators and operators.shape == (6**arms, 4**arms)
        # Row r belongs to table key r; zeros[r] counts its arms at s1 = 0.
        keys = [[key] if arms == 1 else key for key in quasiprob_table(np.eye(2**arms)[0], 1.0).entries]
        assert zeros.tolist() == [sum(s1 == 0 for s1, _ in key) for key in keys]

    def test_table_map_is_not_made_at_import(self):
        probe = "from weakpol import quasiprob; print(quasiprob._table_map.cache_info().currsize)"
        assert subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout == "0\n"

    @pytest.mark.parametrize("arms", [1, 2, 3])
    def test_table_map_weights_without_a_midpoint_are_bit_identical_at_every_resolution(self, rng, arms):
        state = random_pure_state(rng, 2**arms)
        limit = quasiprob_table(state, LIMIT).entries
        plain = [key for key in limit if not self.at_midpoint(key, arms)]
        for delta_s in (1e-3, 0.05, 0.3, 1.0, 2.5, 1e150):
            entries = quasiprob_table(state, delta_s).entries
            assert np.array([entries[k] for k in plain]).tobytes() == np.array([limit[k] for k in plain]).tobytes()

    @pytest.mark.parametrize("arms", [1, 2, 3])
    def test_table_map_midpoint_weights_are_exactly_zero_at_tiny_resolution(self, rng, arms):
        entries = quasiprob_table(random_pure_state(rng, 2**arms), 1e-3).entries
        midpoint = [weight for key, weight in entries.items() if self.at_midpoint(key, arms)]
        # Exactly 0.0, not the -0.0 of a negative weight times a damping of 0.0.
        assert len(midpoint) == 6**arms - 4**arms and all(math.copysign(1.0, w) == 1.0 and w == 0.0 for w in midpoint)

    @pytest.mark.parametrize("arms", [1, 2, 3])
    def test_table_map_order_takes_the_one_pass_check_and_shuffled_keys_are_reordered(self, rng, arms):
        class Entries(dict):
            def items(self):
                raise AssertionError("the per-key checks ran")

        table = quasiprob_table(random_pure_state(rng, 2**arms), 0.7)
        assert tuple(table.entries) == quasiprob._keys(arms)[0]
        keys = list(table.entries)
        # A dict in table order is checked in one pass and kept as given.
        ordered = Entries(table.entries)
        assert QuasiProbTable(ordered, 0.7, arms).entries is ordered
        shuffled = [keys[i] for i in rng.permutation(len(keys))]
        assert shuffled != keys
        # A dict in another order comes back as a new dict in table order.
        reordered = QuasiProbTable({key: table.entries[key] for key in shuffled}, 0.7, arms).entries
        assert list(reordered.items()) == list(table.entries.items())
        for order in (keys, shuffled):
            entries = {key: table.entries[key] for key in order}
            entries[keys[-1]] = 1j
            with pytest.raises(TypeError, match="must be real number"):
                QuasiProbTable(entries, 0.7, arms)


class TestDeconvolve:
    def test_recovers_single_table(self):
        grid = PointerGrid(-8, 8, 0.01)
        state = stokes_eigenstate(2, +1)
        recovered = deconvolve(outcome_density(state, 1.0, grid), 1.0)
        analytic = quasiprob_table(state, 1.0)
        for label, weight in analytic.entries.items():
            assert recovered.entries[label] == pytest.approx(weight, abs=1e-8)

    def test_recovers_pair_table(self):
        grid = PointerGrid(-8, 8, 0.05)
        state = bell_state()
        recovered = deconvolve(outcome_density(state, 1.0, grid, grid), 1.0)
        analytic = quasiprob_table(state, 1.0)
        for label, weight in analytic.entries.items():
            assert recovered.entries[label] == pytest.approx(weight, abs=1e-6)

    def test_exact_basis_member(self):
        grid = PointerGrid(-8, 8, 0.01)
        points = grid.points()
        values = np.zeros((grid.count, 2))
        values[:, 0] = np.exp(-((points - 1.0) ** 2) / 2.0) / math.sqrt(2.0 * math.pi)
        synthetic = OutcomeDensity(grids=(grid,), values=values)
        table = deconvolve(synthetic, 1.0)
        assert table.entries[(1, 1)] == pytest.approx(1.0, abs=1e-10)
        for label in [(-1, 1), (0, 1), (-1, -1), (0, -1), (1, -1)]:
            assert table.entries[label] == pytest.approx(0.0, abs=1e-10)

    def test_ill_conditioned_design_raises(self):
        delta_s = 2e5
        grid = PointerGrid(-(1 + 6 * delta_s), 1 + 6 * delta_s, 1e3)
        flat = OutcomeDensity(
            grids=(grid,), values=np.zeros((grid.count, 2))
        )
        with pytest.raises(IllConditionedDesignError, match="200000"):
            deconvolve(flat, delta_s)

    def test_design_of_zero_columns_has_infinite_condition(self):
        # Points 7 apart at delta_s 0.01: every Gaussian underflows to 0, and so does every singular value.
        grid = PointerGrid(-10, 10, 7.0)
        with pytest.raises(IllConditionedDesignError) as excinfo:
            deconvolve(OutcomeDensity(grids=(grid,), values=np.zeros((grid.count, 2))), 0.01)
        assert excinfo.value.condition_number == math.inf

    def test_pair_guard_reports_condition_of_kronecker_design(self):
        delta_s = 200.0
        half_width = 1 + 6 * delta_s
        grid = PointerGrid(-half_width, half_width, delta_s / 4)
        points = grid.points()
        design = np.stack(
            [np.exp(-((points - c) ** 2) / (2 * delta_s**2)) / math.sqrt(2 * math.pi * delta_s**2) for c in (-1, 0, 1)],
            axis=1,
        )
        flat = OutcomeDensity(
            grids=(grid, grid), values=np.zeros((grid.count, grid.count, 4))
        )
        with pytest.raises(IllConditionedDesignError) as excinfo:
            deconvolve(flat, delta_s)
        expected = np.linalg.cond(np.kron(design, design))
        assert excinfo.value.condition_number == pytest.approx(expected, rel=1e-6)

    def test_insufficient_grid_coverage_rejected(self):
        density = outcome_density(stokes_eigenstate(2, +1), 1.0, PointerGrid(-4, 4, 0.01))
        with pytest.raises(ValueError, match="cover"):
            deconvolve(density, 1.0)

    def test_limit_resolution_rejected(self):
        density = outcome_density(stokes_eigenstate(2, +1), 1.0, PointerGrid(-8, 8, 0.01))
        with pytest.raises(ValueError):
            deconvolve(density, LIMIT)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arms", [1, 2])
    def test_non_finite_values_rejected(self, bad, arms):
        grid = PointerGrid(-14, 14, 0.1)
        density = outcome_density(stokes_eigenstate(2, +1) if arms == 1 else bell_state(), 2.0, *[grid] * arms)
        values = density.values.copy()
        values.flat[values.size // 3] = bad
        with pytest.raises(ValueError, match="finite"):
            deconvolve(OutcomeDensity(density.grids, values), 2.0)

    def test_integer_values_give_the_table_of_their_floats(self):
        grid = PointerGrid(-8, 8, 0.5)
        counts = np.arange(2 * grid.count, dtype=np.int64).reshape(-1, 2)
        integer = deconvolve(OutcomeDensity((grid,), counts), 1.0)
        assert integer.entries == deconvolve(OutcomeDensity((grid,), counts.astype(float)), 1.0).entries

    def test_pair_allocates_little_beyond_its_density(self):
        # The 401x401 density takes 5.1 MB; a transposed copy of it would take as much again, the finiteness mask 0.6 MB.
        grid = PointerGrid(-14, 14, 28 / 400)
        density = outcome_density(bell_state(), 2.0, grid, grid)
        tracemalloc.start()
        try:
            deconvolve(density, 2.0)
            assert tracemalloc.get_traced_memory()[1] < 2**20
        finally:
            tracemalloc.stop()


def unit_table(label_a, label_b) -> QuasiProbTable:
    """The pair table of weight 1 at (label_a, label_b) and 0 at the other 35 keys."""
    entries = {(a, b): 0.0 for b in PAIR_ROW_LABELS for a in PAIR_COLUMN_LABELS}
    return QuasiProbTable({**entries, (label_a, label_b): 1.0}, LIMIT, 2)


class TestKValue:
    """The K value of one label pair, read from the K distribution of its unit table."""

    @pytest.mark.parametrize(
        "label_a,label_b,expected",
        [
            ((-1, -1), (1, 1), -2),
            ((0, -1), (0, 1), -1),
            ((0, 1), (0, 1), 1),
            ((1, 1), (1, 1), 2),
            ((1, -1), (0, 1), -2),
        ],
    )
    def test_examples(self, label_a, label_b, expected):
        assert k_distribution(unit_table(label_a, label_b)).weights == {k: float(k == expected) for k in range(-2, 3)}

    def test_invalid_labels_rejected(self):
        for label in [((2, 1), (0, 1)), ((0, 0), (0, 1))]:
            with pytest.raises(ValueError, match=re.escape(f"key {label!r}, which is not a 2-photon label")):
                QuasiProbTable({**unit_table((0, 1), (0, 1)).entries, label: 0.0}, LIMIT, 2)


class TestKDistribution:
    def test_exact_weights_for_limit_table(self):
        distribution = k_distribution(quasiprob_table(bell_state(), LIMIT))
        weights = distribution.weights
        assert weights[2] == pytest.approx((4 + 3 * ROOT_TWO) / 8, abs=1e-12)
        assert weights[-2] == pytest.approx((4 - 3 * ROOT_TWO) / 8, abs=1e-12)
        assert weights[1] == pytest.approx(1 / (2 * ROOT_TWO), abs=1e-12)
        assert weights[-1] == pytest.approx(-1 / (2 * ROOT_TWO), abs=1e-12)
        assert weights[0] == pytest.approx(0.0, abs=1e-12)

    def test_sum_and_mean(self):
        distribution = k_distribution(quasiprob_table(bell_state(), LIMIT))
        assert distribution.total() == pytest.approx(1.0, abs=1e-12)
        assert distribution.mean() == pytest.approx(2.0 * ROOT_TWO, abs=1e-12)

    def test_rejects_single_photon_table(self):
        table = quasiprob_table(stokes_eigenstate(2, +1), LIMIT)
        with pytest.raises(ValueError, match="pair"):
            k_distribution(table)

    @staticmethod
    def entry_order_sums(table):
        """The K weights as one running sum per K value over the table's entries, in their order."""
        weights = dict.fromkeys(range(-2, 3), 0.0)
        for (label_a, label_b), weight in table.entries.items():
            weights[chsh_combination(*label_a, *label_b)] += weight
        return weights

    def test_k_index_is_not_made_at_import(self):
        probe = "from weakpol import quasiprob; print(quasiprob._k_index.cache_info().currsize)"
        assert subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, check=True).stdout == "0\n"

    @pytest.mark.parametrize("delta_s", [0.3, 1.0, 2.5, LIMIT])
    def test_weights_are_the_entry_order_sums_bit_for_bit(self, rng, delta_s):
        for state in (bell_state(), random_pure_state(rng, 4)):
            table = quasiprob_table(state, delta_s)
            assert k_distribution(table).weights == self.entry_order_sums(table)
            keys = list(table.entries)
            shuffled = QuasiProbTable({keys[i]: table.entries[keys[i]] for i in rng.permutation(len(keys))}, delta_s, 2)
            assert k_distribution(shuffled).weights == self.entry_order_sums(shuffled)


# Three photons in (|RRR> + |LLL>)/sqrt(2), with the Mermin combination
# M = s1 s1 s1 - s1 s2 s2 - s2 s1 s2 - s2 s2 s1 of the arms' (s1, s2) labels:
# N. D. Mermin, PRL 65, 1838 (1990). Classical bound 2, quantum value 4.
GHZ = np.zeros(8, dtype=complex)
GHZ[[0, 7]] = 1 / ROOT_TWO


def mermin(label_a, label_b, label_c):
    (s1a, s2a), (s1b, s2b), (s1c, s2c) = label_a, label_b, label_c
    return s1a * s1b * s1c - s1a * s2b * s2c - s2a * s1b * s2c - s2a * s2b * s1c


def kron(*factors):
    return reduce(np.kron, factors)


class TestArmCount:
    @pytest.mark.parametrize("size", [1, 3, 16])
    def test_state_of_other_than_two_four_or_eight_amplitudes_rejected(self, size):
        with pytest.raises(ValueError, match="photon"):
            quasiprob_table(np.full(size, size**-0.5), 1.0)

    def test_state_is_checked_before_its_size(self):
        with pytest.raises(ValueError, match="not normalized"):
            quasiprob_table(np.ones(16), 1.0)

    def test_twin_names_are_aliases_of_the_arm_generic_functions(self):
        # The benchmark checks CLI output bit for bit against coincidence_density.
        assert measurement.single_outcome_density is measurement.outcome_density
        assert measurement.coincidence_density is measurement.outcome_density
        assert quasiprob.quasiprob_table_single is quasiprob.quasiprob_table
        assert quasiprob.quasiprob_table_pair is quasiprob.quasiprob_table
        # The whole public API, so that adding or removing a name shows here.
        assert sorted(weakpol.__all__) == [
            "IllConditionedDesignError", "KDistribution", "LIMIT", "OutcomeDensity", "PAIR_COLUMN_LABELS",
            "PAIR_ROW_LABELS", "PointerGrid", "QuasiProbTable", "SINGLE_LABELS", "bell_expectation", "bell_operator",
            "bell_state", "chsh_combination", "classical_chsh_bound", "completeness_defect", "deconvolve",
            "eigenstate_density_closed_form", "expectation", "k_distribution", "outcome_density", "quasiprob_table",
            "reconstruct_density", "stokes_eigenstate", "stokes_operator",
        ]
        twins = ("single_outcome_density", "coincidence_density", "quasiprob_table_single", "quasiprob_table_pair")
        assert not any(hasattr(weakpol, name) for name in twins)


class TestThreePhotons:
    def test_density_is_the_product_of_the_kernels(self):
        grid = PointerGrid(-2, 2, 1.0)
        density = outcome_density(GHZ, 0.6, grid, grid, grid)
        assert density.labels == tuple(product((1, -1), repeat=3))
        kernels = [kernel(stokes_operator(1), 0.6, m) for m in grid.points()]
        for cell in np.ndindex(density.values.shape):
            *points, sheet = cell
            bra = kron(*[stokes_eigenstate(2, s2) for s2 in density.labels[sheet]])
            amplitude = np.vdot(bra, kron(*[kernels[i] for i in points]) @ GHZ)
            assert abs(abs(amplitude) ** 2 - density.values[cell]) < 1e-14

    def test_table_rebuilds_the_density(self):
        grid = PointerGrid(-4, 4, 0.5)
        rebuilt = reconstruct_density(quasiprob_table(GHZ, 0.6), grid, grid, grid)
        direct = outcome_density(GHZ, 0.6, grid, grid, grid)
        assert rebuilt.labels == direct.labels
        assert np.max(np.abs(rebuilt.values - direct.values)) < 1e-14

    def test_deconvolution_recovers_the_table(self):
        grid = PointerGrid(-8, 8, 0.5)
        recovered = deconvolve(outcome_density(GHZ, 1.0, grid, grid, grid), 1.0)
        analytic = quasiprob_table(GHZ, 1.0)
        assert list(recovered.entries) == list(analytic.entries)
        assert max(abs(recovered.entries[k] - analytic.entries[k]) for k in analytic.entries) < 1e-12

    def test_limit_table_moments_are_operator_expectations(self):
        table = quasiprob_table(GHZ, LIMIT)
        assert len(table.entries) == 6**3
        for axes in product((1, 2), repeat=3):
            moment = sum(w * math.prod(label[i - 1] for label, i in zip(key, axes)) for key, w in table.entries.items())
            operator = kron(*[stokes_operator(i) for i in axes])
            assert moment == pytest.approx(expectation(GHZ, operator), abs=1e-12)

    def test_mermin_distribution_beats_the_classical_bound_with_negative_weight(self):
        weights = {}
        for key, w in quasiprob_table(GHZ, LIMIT).entries.items():
            weights[mermin(*key)] = weights.get(mermin(*key), 0.0) + w
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)
        assert sum(m * w for m, w in weights.items()) == pytest.approx(4.0, abs=1e-12)
        assert weights[-1] == pytest.approx(-1.5, abs=1e-12)
        assignments = product((-1, 1), repeat=6)
        assert max(mermin((a1, a2), (b1, b2), (c1, c2)) for a1, a2, b1, b2, c1, c2 in assignments) == 2
