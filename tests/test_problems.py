import itertools

import numpy as np
import pytest

from moea_lab.problems import (
    make_problem,
    one_min_max,
    pareto_front_3omm,
    three_omm,
)

from conftest import three_sum_evaluate


def bits(s):
    return np.array([int(c) for c in s], dtype=np.uint8)


def all_genomes(n):
    return np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.uint8)


class TestOneMinMax:
    @pytest.mark.parametrize(
        "genome,expected",
        [("0000", (4, 0)), ("1111", (0, 4)), ("1010", (2, 2))],
    )
    def test_examples(self, genome, expected):
        assert one_min_max(4).evaluate(bits(genome)).tolist() == [list(expected)]

    def test_components_sum_to_n(self, rng):
        for n in (1, 5, 16):
            pop = (rng.random((20, n)) < 0.5).astype(np.uint8)
            assert np.all(one_min_max(n).evaluate(pop).sum(axis=1) == n)


class Test3OMM:
    @pytest.mark.parametrize(
        "genome,expected",
        [("0000", (4, 0, 0)), ("1111", (0, 2, 2)), ("1010", (2, 1, 1))],
    )
    def test_examples(self, genome, expected):
        assert three_omm(4).evaluate(bits(genome)).tolist() == [list(expected)]

    def test_odd_length_rejected(self):
        with pytest.raises(ValueError):
            three_omm(3)
        with pytest.raises(ValueError):
            three_omm(5)
        with pytest.raises(ValueError):
            three_omm(4).evaluate(bits("101"))

    @pytest.mark.parametrize("n", [2, 4, 6, 8, 10, 12])
    def test_components_sum_to_n_exhaustive(self, n):
        assert np.all(three_omm(n).evaluate(all_genomes(n)).sum(axis=1) == n)


class TestParetoFront3OMM:
    def test_n2(self):
        values = {tuple(v) for v in pareto_front_3omm(2)}
        assert values == {(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1)}

    def test_n4_cardinality(self):
        assert pareto_front_3omm(4).shape == (9, 3)

    def test_n40_cardinality(self):
        assert pareto_front_3omm(40).shape == (441, 3)

    def test_lexicographic_order(self):
        front = pareto_front_3omm(6)
        ab = [(int(a), int(b)) for _, a, b in front]
        assert ab == sorted(ab)

    def test_odd_n_rejected(self):
        with pytest.raises(ValueError):
            pareto_front_3omm(5)

    @pytest.mark.parametrize("make,n", [
        *(pytest.param(three_omm, n, id=f"{n}") for n in (2, 4, 6, 8, 10, 12)),
        *(pytest.param(one_min_max, n, id=f"omm-{n}") for n in (1, 2, 5, 8, 11)),
    ])
    def test_front_matches_brute_force(self, make, n):
        # every genome's value is on the front and every front value is hit
        prob = make(n)
        front = prob.front()
        assert front.dtype == np.int64 and len(front) == prob.front_size
        achieved = {tuple(v) for v in prob.evaluate(all_genomes(n))}
        assert achieved == {tuple(v) for v in front}


class TestProblemObjects:
    def test_vectorized_evaluation_matches_scalar(self, rng):
        # each row against its bit counts, and against a single-row call
        prob = three_omm(10)
        pop = (rng.random((50, 10)) < 0.5).astype(np.uint8)
        batch = prob.evaluate(pop)
        for row, x in zip(batch, pop):
            first, second = int(x[:5].sum()), int(x[5:].sum())
            assert row.tolist() == [10 - first - second, first, second]
            assert np.array_equal(prob.evaluate(x), row[None, :])

    @pytest.mark.parametrize("name,n", [
        ("omm", 1), ("omm", 3), ("omm", 40), ("omm", 41), ("omm", 64), ("omm", 257),
        ("3omm", 2), ("3omm", 40), ("3omm", 64), ("3omm", 512),
    ])
    @pytest.mark.parametrize("dtype", [np.uint8, np.bool_])
    def test_matches_three_sum_oracle(self, name, n, dtype, rng):
        # random rows plus all-zeros and all-ones rows; at n = 512 a half
        # holds 256 ones, more than a uint8 count can
        prob = make_problem(name, n)
        pop = np.concatenate([rng.random((60, n)) < 0.5, np.zeros((1, n)), np.ones((1, n))])
        pop = pop.astype(dtype)
        values = prob.evaluate(pop)
        assert values.dtype == np.int64
        assert np.array_equal(values, three_sum_evaluate(prob, pop))

    def test_omm_front(self):
        # ordered by ones count, ascending
        assert one_min_max(3).front().tolist() == [[3, 0], [2, 1], [1, 2], [0, 3]]

    def test_factory(self):
        assert make_problem("omm", 5).num_objectives == 2
        assert make_problem("3omm", 6).num_objectives == 3
        with pytest.raises(ValueError):
            make_problem("lotz", 6)
