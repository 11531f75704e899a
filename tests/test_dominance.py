import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moea_lab.dominance import fast_nondominated_sort
from moea_lab.problems import pareto_front_3omm

from conftest import dominates


def brute_force_ranks(values, sense):
    """Quadratic oracle: iterated removal of non-strictly-dominated layers."""
    remaining = list(range(len(values)))
    fronts = []
    while remaining:
        layer = [
            i
            for i in remaining
            if not any(
                dominates(values[j], values[i], sense) == "strict"
                for j in remaining
                if j != i
            )
        ]
        fronts.append(layer)
        remaining = [i for i in remaining if i not in layer]
    return fronts


class TestDominates:
    def test_identical_is_weak_not_strict(self):
        assert dominates((1, 1), (1, 1), "min") == "weak"

    def test_strictly_better_in_one(self):
        assert dominates((1, 2), (2, 2), "min") == "strict"

    def test_incomparable(self):
        assert dominates((1, 2), (2, 1), "min") == "none"

    def test_sense_flips_direction(self):
        assert dominates((2, 2), (1, 2), "max") == "strict"
        assert dominates((2, 2), (1, 2), "min") == "none"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1, 2), (1, 2, 3), "min")

    def test_3omm_values_are_incomparable(self):
        front = pareto_front_3omm(8)
        for a in front[:10]:
            for b in front[:10]:
                if not np.array_equal(a, b):
                    assert dominates(a, b, "max") == "none"


class TestFastNondominatedSort:
    def test_single_individual(self):
        fronts = fast_nondominated_sort(np.array([[3, 1]]), "min")
        assert [f.tolist() for f in fronts] == [[0]]

    def test_three_layer_example(self):
        values = np.array([[1, 2], [2, 1], [2, 2], [3, 3]])
        fronts = fast_nondominated_sort(values, "min")
        assert [f.tolist() for f in fronts] == [[0, 1], [2], [3]]

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            fast_nondominated_sort(np.empty((0, 2)), "min")

    def test_3omm_population_is_one_front(self, rng):
        from moea_lab.problems import three_omm
        from moea_lab.genome import random_population

        prob = three_omm(10)
        values = prob.evaluate(random_population(40, 10, rng))
        fronts = fast_nondominated_sort(values, "max")
        assert len(fronts) == 1
        assert len(fronts[0]) == 40

    def test_duplicates_share_a_front(self):
        values = np.array([[1, 1], [1, 1], [2, 2]])
        fronts = fast_nondominated_sort(values, "min")
        assert fronts[0].tolist() == [0, 1]
        assert fronts[1].tolist() == [2]

    def test_fronts_partition_input(self, rng):
        values = rng.integers(0, 5, size=(30, 3))
        fronts = fast_nondominated_sort(values, "min")
        combined = np.sort(np.concatenate(fronts))
        assert combined.tolist() == list(range(30))

    def test_stable_within_front(self, rng):
        values = rng.integers(0, 4, size=(25, 2))
        for front in fast_nondominated_sort(values, "max"):
            assert np.all(np.diff(front) > 0)

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 64),
        m=st.integers(1, 3),
        sense=st.sampled_from(["min", "max"]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force_oracle(self, seed, size, m, sense):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 6, size=(size, m))
        fronts = fast_nondominated_sort(values, sense)
        oracle = brute_force_ranks(values, sense)
        assert [sorted(f.tolist()) for f in fronts] == [sorted(f) for f in oracle]
