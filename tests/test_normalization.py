import numpy as np
import pytest

from moea_lab.genome import random_population
from moea_lab.normalization import (
    DegeneratePopulationError,
    NormalizationState,
    extreme_point,
    hyperplane_intercepts,
    normalize,
    update_ideal_and_worst,
)
from moea_lab.problems import pareto_front_3omm, three_omm


class TestUpdateIdealAndWorst:
    def test_fresh_state_single_point(self):
        state = update_ideal_and_worst(NormalizationState(), [[2, 1, 1]])
        assert state.ideal.tolist() == [2, 1, 1]
        assert state.worst.tolist() == [2, 1, 1]

    def test_ideal_is_sticky(self):
        state = NormalizationState(ideal=np.zeros(3), worst=np.zeros(3))
        state = update_ideal_and_worst(state, [[4, 0, 0]])
        assert state.ideal.tolist() == [0, 0, 0]

    def test_worst_componentwise_max(self):
        state = NormalizationState(ideal=np.zeros(3), worst=np.array([3.0, 2.0, 2.0]))
        state = update_ideal_and_worst(state, [[4, 0, 0], [0, 2, 2]])
        assert state.worst.tolist() == [4, 2, 2]

    def test_monotone_across_iterations(self, rng):
        state = NormalizationState()
        prev_ideal, prev_worst = None, None
        for _ in range(20):
            state = update_ideal_and_worst(state, rng.integers(0, 50, (8, 2)))
            if prev_ideal is not None:
                assert np.all(state.ideal <= prev_ideal)
                assert np.all(state.worst >= prev_worst)
            prev_ideal, prev_worst = state.ideal, state.worst


class TestExtremePoint:
    def test_asf_picks_axis_aligned_candidate(self):
        cands = np.array([[1, 0, 0], [0, 1, 0], [0.5, 0.5, 0]])
        chosen = extreme_point(0, cands, np.zeros(3))
        assert chosen.tolist() == [1, 0, 0]

    def test_single_candidate(self):
        chosen = extreme_point(2, np.array([[3.0, 1.0, 2.0]]), np.zeros(3))
        assert chosen.tolist() == [3, 1, 2]

    def test_axis_swap_symmetry(self):
        cands = np.array([[5, 1, 0], [1, 5, 0], [2, 2, 0]], dtype=float)
        e0 = extreme_point(0, cands, np.zeros(3))
        e1 = extreme_point(1, cands, np.zeros(3))
        assert e0.tolist() == [5, 1, 0]
        assert e1.tolist() == [1, 5, 0]


class TestHyperplaneIntercepts:
    def test_axis_aligned_translated_extremes(self):
        extremes = np.array([[2.0, 0, 0], [0, 3.0, 0], [0, 0, 4.0]])
        valid, intercepts = hyperplane_intercepts(extremes, np.zeros(3))
        assert valid
        assert np.allclose(intercepts, [2, 3, 4])

    def test_unit_simplex(self):
        valid, intercepts = hyperplane_intercepts(np.eye(3), np.zeros(3))
        assert valid
        assert np.allclose(intercepts, [1, 1, 1])

    def test_3omm_plane_intercepts_are_n(self):
        # any three 3-OMM values spanning a plane: intercepts all equal n
        n = 8
        extremes = np.array([[8, 0, 0], [1, 4, 3], [4, 0, 4]], dtype=float)
        ideal = np.array([1.0, 0.0, 0.0])
        valid, intercepts = hyperplane_intercepts(extremes, ideal)
        assert valid
        assert np.allclose(intercepts, [n, n, n], atol=1e-9)

    def test_dependent_extremes_flagged(self):
        extremes = np.array([[1.0, 0, 0], [2.0, 0, 0], [0, 0, 1.0]])
        valid, _ = hyperplane_intercepts(extremes, np.zeros(3))
        assert not valid

    def test_invalidity_is_a_flag_not_an_error(self):
        extremes = np.zeros((3, 3))
        valid, intercepts = hyperplane_intercepts(extremes, np.zeros(3))
        assert not valid
        assert intercepts.shape == (3,)


class TestNormalize:
    def _full_front_state(self, n):
        front = pareto_front_3omm(n).astype(float)
        state = NormalizationState()
        return state, front

    def test_full_front_n4(self):
        state, front = self._full_front_state(4)
        nv, state = normalize(state, front, [front])
        assert state.ideal.tolist() == [0, 0, 0]
        assert state.nadir.tolist() == [4, 2, 2]
        middle = front.tolist().index([2, 1, 1])
        assert nv[middle].tolist() == [0.5, 0.5, 0.5]

    def test_unit_range_when_extremes_present(self, rng):
        n = 10
        values = three_omm(n).evaluate(random_population(40, n, rng)).astype(float)
        values[0] = [n, 0, 0]
        values[1] = [0, n // 2, n // 2]
        nv, _ = normalize(NormalizationState(), values, [values])
        assert np.allclose(nv.min(axis=0), 0.0, atol=1e-12)
        assert np.allclose(nv.max(axis=0), 1.0, atol=1e-12)

    def test_ideal_maps_to_zero(self, rng):
        values = rng.integers(0, 6, (20, 3)).astype(float)
        nv, state = normalize(NormalizationState(), values, [values])
        # a fresh state's ideal is each objective's minimum over the values
        assert np.array_equal(state.ideal, values.min(axis=0))
        assert np.all(nv.min(axis=0) == 0.0)

    def test_returns_values_under_the_states_map(self, rng):
        # the returned values are (values - ideal) / (nadir - ideal) from the
        # returned state, bit for bit, on integer input as the engine passes it
        state = NormalizationState()
        for _ in range(10):
            values = rng.integers(0, 9, (30, 3))
            nv, state = normalize(state, values, [values])
            want = (values.astype(float) - state.ideal) / (state.nadir - state.ideal)
            assert nv.dtype == np.float64
            assert nv.tobytes() == want.tobytes()

    def test_degenerate_population_raises(self):
        values = np.tile([3.0, 3.0, 3.0], (5, 1))
        with pytest.raises(DegeneratePopulationError):
            normalize(NormalizationState(), values, [values])

    def test_extremes_carried_between_calls(self):
        state, front = self._full_front_state(6)
        _, state = normalize(state, front, [front])
        assert state.extremes is not None
        subset = np.array([[6, 0, 0], [0, 3, 3], [3, 1, 2], [2, 2, 2]], dtype=float)
        _, state2 = normalize(state, subset, [subset])
        # running ideal survives even though the subset is narrower
        assert state2.ideal.tolist() == [0, 0, 0]


class TestMinMaxEquivalence:
    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_matches_min_max_formula(self, n, rng):
        # populations covering the per-objective extremes: the full cascade
        # collapses to plain min-max scaling
        prob = three_omm(n)
        front = pareto_front_3omm(n)
        for trial in range(30):
            pop = random_population(60, n, rng)
            values = prob.evaluate(pop).astype(float)
            # force the extremes into the population
            values[0] = [n, 0, 0]
            values[1] = [0, n // 2, n // 2]
            nv, _ = normalize(NormalizationState(), values, [values])
            lo = values.min(axis=0)
            hi = values.max(axis=0)
            expected = (values - lo) / (hi - lo)
            assert np.allclose(nv, expected, atol=1e-12)
