import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from moea_lab import engine
from moea_lab.dominance import fast_nondominated_sort
from moea_lab.engine import GenerationState, RunConfig, make_offspring, run_collect
from moea_lab.genome import mutate_population, random_population
from moea_lab.problems import three_omm

from conftest import PRINT_PEAK_KB, dense_associate

SRC = Path(__file__).resolve().parents[1] / "src"


def assert_survivors_from_one_front(pre, post, cfg, prob, rng_state):
    """Re-derive the parents and offspring the iteration from ``pre`` to
    ``post`` selected from (its offspring drawn from ``rng_state``): they
    rank as one front, and ``post`` is ``pop_size`` of them."""
    replay = np.random.default_rng()
    replay.bit_generator.state = rng_state
    combined = np.concatenate([pre, make_offspring(pre, cfg, replay)])
    assert len(fast_nondominated_sort(prob.evaluate(combined), "max")) == 1

    def genomes(rows):
        return Counter(row.tobytes() for row in rows)

    assert post.shape == (cfg.pop_size, cfg.n)
    assert genomes(post) <= genomes(combined)


class OneMaxTwice:
    """Both objectives count ones, so each distinct count is its own front."""

    def evaluate(self, population):
        ones = population.sum(axis=1, dtype=np.int64)
        return np.stack([ones, ones], axis=1)


def config(**overrides):
    base = dict(
        problem="3omm",
        n=8,
        pop_size=25,
        algorithm="nsga3",
        divisions=40,
        max_iterations=50,
        seed=[11, 0],
        stop="iters",
        run_id="t",
    )
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_valid(self):
        config().validate()

    def test_nsga3_needs_divisions(self):
        with pytest.raises(ValueError):
            config(divisions=None).validate()

    def test_nsga2_rejects_divisions(self):
        with pytest.raises(ValueError):
            config(algorithm="nsga2").validate()
        config(algorithm="nsga2", divisions=None).validate()

    def test_default_mutation_prob(self):
        assert config().effective_mutation_prob == pytest.approx(1 / 8)
        assert config(mutation_prob=0.25).effective_mutation_prob == 0.25

    def test_bad_values_rejected(self):
        for bad in (
            config(pop_size=0),
            config(crossover_rate=1.5),
            config(stop="forever"),
            config(stop="monitor"),
            config(algorithm="sms-emoa", divisions=None),
            config(max_iterations=-1),
        ):
            with pytest.raises(ValueError):
                bad.validate()


def per_pair_offspring(population, cfg, rng):
    """Oracle: make_offspring with crossover as a loop over crossed pairs,
    drawing the same numbers in the same order."""
    flip = cfg.effective_mutation_prob
    if cfg.crossover_rate == 0.0:
        return mutate_population(population, flip, rng)
    size = population.shape[0]
    children = population[rng.permutation(size)]
    num_pairs = size // 2
    do_cross = rng.random(num_pairs) < cfg.crossover_rate
    masks = rng.random((num_pairs, population.shape[1])) < 0.5
    for pair in np.flatnonzero(do_cross):
        i, j = 2 * pair, 2 * pair + 1
        a = children[i].copy()
        children[i] = np.where(masks[pair], children[j], a)
        children[j] = np.where(masks[pair], a, children[j])
    return mutate_population(children, flip, rng)


class TestMakeOffspring:
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 441, 442])
    @pytest.mark.parametrize("chi", [0.0, 0.3, 0.9, 1.0])
    def test_matches_per_pair_loop(self, size, chi):
        cfg = config(pop_size=size, crossover_rate=chi)
        for seed in range(5):
            pop = random_population(size, cfg.n, np.random.default_rng([seed, size]))
            rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            off = make_offspring(pop, cfg, rng)
            assert np.array_equal(off, per_pair_offspring(pop, cfg, ref_rng))
            assert off.dtype == np.uint8
            assert rng.bit_generator.state == ref_rng.bit_generator.state

    def test_identity_pipeline(self, rng):
        pop = random_population(10, 8, rng)
        cfg = config(mutation_prob=0.0)
        off = make_offspring(pop, cfg, rng)
        assert np.array_equal(off, pop)

    def test_pairing_preserves_multiset_without_mutation(self, rng):
        pop = random_population(12, 8, rng)
        cfg = config(mutation_prob=0.0, crossover_rate=1.0)
        off = make_offspring(pop, cfg, rng)
        # columnwise bit totals survive crossover of paired genomes
        assert off.shape == pop.shape
        assert off.sum() == pop.sum()

    def test_identical_parent_pairs_unchanged(self, rng):
        pop = np.tile(random_population(1, 8, rng), (6, 1))
        cfg = config(mutation_prob=0.0, crossover_rate=1.0)
        off = make_offspring(pop, cfg, rng)
        assert np.array_equal(off, pop)

    def test_odd_population_size(self, rng):
        pop = random_population(11, 8, rng)
        cfg = config(crossover_rate=0.7)
        assert make_offspring(pop, cfg, rng).shape == (11, 8)

    def test_crossover_rate_monte_carlo(self, rng):
        # chi = 1/2: fraction of pairs crossed within 5 sigma
        n = 16
        pop = np.zeros((1000, n), dtype=np.uint8)
        pop[500:] = 1  # pairs of distinct parents are detectably crossed
        cfg = config(n=n, mutation_prob=0.0, crossover_rate=0.5)
        crossed = 0
        pairs = 0
        for _ in range(20):
            off = make_offspring(pop, cfg, rng)
            for i in range(0, 1000, 2):
                a, b = off[i], off[i + 1]
                if a.sum() + b.sum() != n:
                    continue  # pair of same-type parents: swap undetectable
                if 0 < a.sum() < n:  # mixed genome implies a swap happened
                    crossed += 1
                pairs += 1
        # P(no position swapped | crossover) = 2^-16, negligible
        frac = crossed / pairs
        sigma = np.sqrt(0.25 / pairs)
        assert abs(frac - 0.5) < 5 * sigma


class TestRun:
    def test_zero_iterations_single_record(self):
        recs = run_collect(config(max_iterations=0))
        assert len(recs) == 1
        assert recs[0].iteration == 0

    def test_population_size_invariant(self):
        from moea_lab.engine import run_iteration
        from moea_lab.normalization import NormalizationState
        from moea_lab.refpoints import generate_reference_points
        from moea_lab import genome as gn

        cfg = config()
        prob = three_omm(cfg.n)
        refs = generate_reference_points(3, cfg.divisions)
        rng = np.random.default_rng(cfg.seed)
        state = GenerationState(
            population=gn.random_population(cfg.pop_size, cfg.n, rng),
            norm=NormalizationState(),
        )
        for _ in range(20):
            pre = state.population.copy()
            rng_state = rng.bit_generator.state
            run_iteration(state, cfg, prob, refs, rng)
            assert_survivors_from_one_front(pre, state.population, cfg, prob, rng_state)

    def test_same_seed_identical_records(self):
        a = run_collect(config(max_iterations=30))
        b = run_collect(config(max_iterations=30))
        assert [(r.iteration, r.covered, r.losses_cum, r.new_values) for r in a] == [
            (r.iteration, r.covered, r.losses_cum, r.new_values) for r in b
        ]

    def test_different_seeds_differ(self):
        a = run_collect(config(max_iterations=30, seed=[11, 0]))
        b = run_collect(config(max_iterations=30, seed=[11, 1]))
        assert [r.covered for r in a] != [r.covered for r in b]

    def test_stop_on_coverage(self):
        recs = run_collect(config(max_iterations=500, stop="coverage"))
        assert recs[-1].covered == recs[-1].front_size
        assert recs[-1].iteration < 500

    def test_iters_runs_past_coverage_without_losses(self):
        # n=20, N=121, p=420, mutation-only: full coverage then no loss
        cfg = config(
            n=20,
            pop_size=121,
            divisions=420,
            max_iterations=250,
            stop="iters",
            seed=[13, 0],
        )
        recs = run_collect(cfg)
        covered = [r.covered for r in recs]
        assert max(covered) == 121
        assert recs[-1].losses_cum == 0
        assert covered == sorted(covered)  # monotone coverage

    def test_nsga2_pop_size_one(self):
        cfg = config(algorithm="nsga2", divisions=None, pop_size=1, max_iterations=10)
        recs = run_collect(cfg)
        assert len(recs) == 11

    def test_nsga2_run_works(self):
        cfg = config(algorithm="nsga2", divisions=None, max_iterations=40)
        recs = run_collect(cfg)
        assert recs[-1].iteration == 40

    def test_invalid_config_errors_before_running(self):
        bad = config(pop_size=0)
        with pytest.raises(ValueError):
            list(run_collect(bad))

    @pytest.mark.parametrize("algorithm,divisions", [("nsga2", None), ("nsga3", 12)])
    def test_more_than_one_front_raises(self, algorithm, divisions, rng):
        # OneMaxTwice ranks each ones count as its own front; parents at 0
        # and at 12 ones stay more than one front after mutation
        from moea_lab.engine import run_iteration
        from moea_lab.normalization import NormalizationState
        from moea_lab.refpoints import generate_reference_points

        cfg = config(problem="omm", n=12, pop_size=6, algorithm=algorithm, divisions=divisions)
        population = np.zeros((6, 12), dtype=np.uint8)
        population[3:] = 1
        state = GenerationState(population=population.copy(), norm=NormalizationState())
        refs = generate_reference_points(2, divisions) if divisions else None
        with pytest.raises(RuntimeError, match=r"form \d+ fronts, not one"):
            run_iteration(state, cfg, OneMaxTwice(), refs, rng)
        assert np.array_equal(state.population, population)


# (problem, n, pop_size, divisions, crossover_rate): 3-OMM at the golden
# runs' p = 21n and at a small p, OneMinMax (M = 2) at two odd p. Every case
# draws among tied reference points within its 60 iterations.
REPLAY_CASES = [
    ("3omm", 12, 49, 252, 0.0),
    ("3omm", 8, 25, 10, 0.9),
    ("omm", 20, 21, 21, 0.0),
    ("omm", 30, 40, 45, 0.5),
]


class TestAssociationReplay:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("problem,n,pop_size,divisions,crossover", REPLAY_CASES)
    def test_records_match_dense_association(
        self, problem, n, pop_size, divisions, crossover, seed, monkeypatch
    ):
        cfg = config(problem=problem, n=n, pop_size=pop_size, divisions=divisions,
                     crossover_rate=crossover, max_iterations=60, seed=[23, seed])

        def fields(records):
            return [replace(record, wall_time=0.0) for record in records]

        got = fields(run_collect(cfg))
        monkeypatch.setattr(engine, "associate", dense_associate)
        assert got == fields(run_collect(cfg))


class TestPaperRegime:
    def test_p21n_fits_at_n64(self):
        # N = (n/2+1)^2 = 1,089 against p = 21n = 1,344 (905,185 reference
        # points); association scores each distinct value on its 36-point
        # candidate box and builds no lattice, so memory does not grow with p
        code = (
            "from moea_lab.engine import RunConfig, run_collect\n"
            "records = run_collect(RunConfig(problem='3omm', n=64, pop_size=1089,\n"
            "    algorithm='nsga3', divisions=1344, max_iterations=3, seed=[7, 0]))\n"
            "assert len(records) == 4 and records[-1].losses_cum == 0\n"
            + PRINT_PEAK_KB
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < 100 * 1024  # kB
