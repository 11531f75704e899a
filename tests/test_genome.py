import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moea_lab.genome import mutate_population, random_population, uniform_crossover

from conftest import RiggedSource


def random_genome(n, rng):
    return random_population(1, n, rng)[0]


class TestRandomGenome:
    def test_all_heads(self, all_heads):
        assert random_population(2, 4, all_heads).tolist() == [[1, 1, 1, 1]] * 2

    def test_all_tails(self, all_tails):
        assert random_population(2, 4, all_tails).tolist() == [[0, 0, 0, 0]] * 2

    def test_zero_length_rejected(self, rng):
        with pytest.raises(ValueError):
            random_population(1, 0, rng)
        with pytest.raises(ValueError):
            random_population(0, 4, rng)

    def test_ones_count_matches_binomial(self, rng):
        # mean ones over 1e4 draws of n=1000 vs Binomial(1000, 1/2), 5 sigma
        n, draws = 1000, 10_000
        pop = random_population(draws, n, rng)
        mean_ones = pop.sum(axis=1).mean()
        sigma = np.sqrt(n * 0.25 / draws)
        assert abs(mean_ones - n / 2) < 5 * sigma


class TestStandardBitMutation:
    def test_zero_prob_is_identity(self, rng):
        parents = random_population(5, 32, rng)
        children = mutate_population(parents, 0.0, rng)
        assert np.array_equal(children, parents)

    def test_prob_one_is_complement(self, rng):
        parents = random_population(5, 32, rng)
        children = mutate_population(parents, 1.0, rng)
        assert np.array_equal(children, 1 - parents)

    def test_parent_unchanged(self, rng):
        parents = random_population(5, 16, rng)
        before = parents.copy()
        mutate_population(parents, 0.5, rng)
        assert np.array_equal(parents, before)

    def test_invalid_prob_rejected(self, rng):
        parents = random_population(2, 4, rng)
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                mutate_population(parents, bad, rng)

    def test_length_preserved(self, rng):
        assert mutate_population(random_population(3, 17, rng), 0.3, rng).shape == (3, 17)
        assert mutate_population(random_genome(17, rng), 0.3, rng).shape == (17,)

    def test_mean_hamming_distance(self, rng):
        # flip_prob = 1/n, n=100: Binomial(100, 1/100) mean 1.0, 5 sigma
        n, trials = 100, 100_000
        parent = random_genome(n, rng)
        pop = np.tile(parent, (trials, 1))
        mutants = mutate_population(pop, 1 / n, rng)
        distances = (mutants != parent).sum(axis=1)
        sigma = np.sqrt(100 * 0.01 * 0.99 / trials)
        assert abs(distances.mean() - 1.0) < 5 * sigma


class TestUniformCrossover:
    def test_equal_parents_unchanged(self, rng):
        a = random_genome(16, rng)
        c1, c2 = uniform_crossover(a, a.copy(), 0.5, rng)
        assert np.array_equal(c1, a)
        assert np.array_equal(c2, a)

    def test_complementary_parents_stay_complementary(self, rng):
        a = np.zeros(8, dtype=np.uint8)
        b = np.ones(8, dtype=np.uint8)
        c1, c2 = uniform_crossover(a, b, 0.5, rng)
        assert np.all(c1 != c2)

    def test_length_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            uniform_crossover(np.zeros(4, np.uint8), np.zeros(5, np.uint8), 0.5, rng)
        with pytest.raises(ValueError):
            uniform_crossover(np.zeros((2, 4), np.uint8), np.zeros((3, 4), np.uint8), 0.5, rng)

    def test_swap_fraction(self, rng):
        n, trials = 1000, 10_000
        a = np.zeros(n, dtype=np.uint8)
        b = np.ones(n, dtype=np.uint8)
        swapped = 0
        for _ in range(trials // 100):
            c1, _ = uniform_crossover(a, b, 0.5, rng)
            swapped += int(c1.sum())
        total = (trials // 100) * n
        frac = swapped / total
        sigma = np.sqrt(0.25 / total)
        assert abs(frac - 0.5) < 5 * sigma

    def test_positionwise_multiset_exhaustive(self):
        # all n=4 parent pairs, one pair per row of a batch, under the
        # all-swap and no-swap riggings: multiset {a_i, b_i} kept
        pairs = list(itertools.product(itertools.product((0, 1), repeat=4), repeat=2))
        a = np.array([pa for pa, _ in pairs], dtype=np.uint8)
        b = np.array([pb for _, pb in pairs], dtype=np.uint8)
        for rig in (RiggedSource(0.0), RiggedSource(0.99)):
            c1, c2 = uniform_crossover(a, b, 0.5, rig)
            assert np.array_equal(np.minimum(c1, c2), np.minimum(a, b))
            assert np.array_equal(np.maximum(c1, c2), np.maximum(a, b))
            for row in range(len(pairs)):  # and each row on its own
                r1, r2 = uniform_crossover(a[row], b[row], 0.5, rig)
                assert np.array_equal(r1, c1[row]) and np.array_equal(r2, c2[row])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 64), st.integers(1, 5))
    @settings(max_examples=50, deadline=None)
    def test_positionwise_multiset_random(self, seed, n, rows):
        rng = np.random.default_rng(seed)
        for a, b in (
            (random_genome(n, rng), random_genome(n, rng)),
            (random_population(rows, n, rng), random_population(rows, n, rng)),
        ):
            c1, c2 = uniform_crossover(a, b, rng.random(), rng)
            assert c1.shape == c2.shape == a.shape
            assert np.array_equal(c1 + c2, a + b)
            assert np.array_equal(c1 | c2, a | b)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 64), st.integers(0, 6))
    @settings(max_examples=50, deadline=None)
    def test_batch_equals_row_by_row(self, seed, n, rows):
        # one draw per position in row-major order: a batch call and
        # successive single-row calls consume the same stream
        parents = np.random.default_rng(seed)
        a = random_population(rows + 1, n, parents)[:rows]
        b = random_population(rows + 1, n, parents)[:rows]
        swap_prob = parents.random()
        batch_rng = np.random.default_rng(seed + 1)
        row_rng = np.random.default_rng(seed + 1)
        c1, c2 = uniform_crossover(a, b, swap_prob, batch_rng)
        for i in range(rows):
            r1, r2 = uniform_crossover(a[i], b[i], swap_prob, row_rng)
            assert np.array_equal(r1, c1[i]) and np.array_equal(r2, c2[i])
        assert batch_rng.bit_generator.state == row_rng.bit_generator.state


class TestReproducibility:
    def test_seed_replay_is_bit_exact(self):
        streams = []
        for _ in range(2):
            rng = np.random.default_rng([99, 3])
            pop = random_population(20, 30, rng)
            pop = mutate_population(pop, 0.1, rng)
            c1, c2 = uniform_crossover(pop[0], pop[1], 0.5, rng)
            streams.append((pop.copy(), c1.copy(), c2.copy()))
        assert np.array_equal(streams[0][0], streams[1][0])
        assert np.array_equal(streams[0][1], streams[1][1])
        assert np.array_equal(streams[0][2], streams[1][2])

    def test_distinct_run_indices_differ(self):
        a = random_population(10, 50, np.random.default_rng([7, 0]))
        b = random_population(10, 50, np.random.default_rng([7, 1]))
        assert not np.array_equal(a, b)
