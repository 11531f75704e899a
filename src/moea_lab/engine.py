"""Generation loop shared by NSGA-II and NSGA-III.

Each iteration: build N offspring (mutation only, or random pairing +
uniform crossover + mutation), then keep N of the 2N parents and offspring
by reference-point niching (NSGA-III) or crowding distance (NSGA-II). The
2N rows form one front (see ``problems``), so survival selects from all of
them; a problem whose rows did not share a sum would need a multi-front
split. One run owns its generator and is strictly sequential; separate
runs share nothing mutable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import genome as gn
from .analysis import RunRecord, coverage, detect_loss
from .dominance import fast_nondominated_sort
# unused here; perfbench's tracer patches update_ideal_and_worst in this module
from .normalization import NormalizationState, normalize, update_ideal_and_worst
from .problems import Problem, make_problem, require_indexable
from .refpoints import ReferencePointSet, generate_reference_points
from .selection import associate, crowding_distance_select, niching_select

__all__ = [
    "RunConfig",
    "GenerationState",
    "make_offspring",
    "run_iteration",
    "run",
    "run_collect",
]

ALGORITHMS = ("nsga2", "nsga3")
STOP_POLICIES = ("iters", "coverage")

CROSSOVER_SWAP_PROB = 0.5


@dataclass(frozen=True)
class RunConfig:
    """Everything one optimization run needs, including its seed."""

    problem: str  # a key of problems.PROBLEMS
    n: int
    pop_size: int
    algorithm: str  # one of ALGORITHMS
    divisions: int | None = None  # reference lattice divisions, nsga3 only
    crossover_rate: float = 0.0
    mutation_prob: float | None = None  # defaults to 1/n
    max_iterations: int = 1000
    seed: object = 0  # anything numpy's default_rng accepts
    stop: str = "iters"
    run_id: str = "run0"

    def validate(self) -> None:
        problem = make_problem(self.problem, self.n)
        if self.pop_size < 1:
            raise ValueError(f"population size must be >= 1, got {self.pop_size}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be {' or '.join(ALGORITHMS)}, got {self.algorithm!r}")
        if self.algorithm == "nsga3":
            if self.divisions is None or self.divisions < 1:
                raise ValueError("nsga3 requires divisions >= 1")
        elif self.divisions is not None:
            raise ValueError("divisions only applies to nsga3")
        if not 0.0 <= self.crossover_rate <= 1.0:
            raise ValueError(f"crossover rate must be in [0, 1], got {self.crossover_rate}")
        if self.mutation_prob is not None and not 0.0 <= self.mutation_prob <= 1.0:
            raise ValueError(f"mutation probability must be in [0, 1], got {self.mutation_prob}")
        if self.max_iterations < 0:
            raise ValueError(f"max iterations must be >= 0, got {self.max_iterations}")
        if self.stop not in STOP_POLICIES:
            raise ValueError(f"stop policy must be one of {STOP_POLICIES}, got {self.stop!r}")
        require_indexable(problem, self.pop_size, self.divisions)

    @property
    def effective_mutation_prob(self) -> float:
        return 1.0 / self.n if self.mutation_prob is None else self.mutation_prob


@dataclass
class GenerationState:
    """Mutable per-run state kept across iterations."""

    population: np.ndarray  # (N, n) bits
    norm: NormalizationState


def make_offspring(
    population: np.ndarray, config: RunConfig, rng: np.random.Generator
) -> np.ndarray:
    """N offspring from N parents.

    With crossover rate 0 every parent is mutated once. Otherwise the
    population is randomly partitioned into pairs, each pair is uniformly
    crossed over with probability ``crossover_rate`` (a leftover individual
    under odd N skips crossover), and every result is mutated.
    """
    flip = config.effective_mutation_prob
    chi = config.crossover_rate
    if chi == 0.0:
        return gn.mutate_population(population, flip, rng)

    size = population.shape[0]
    perm = rng.permutation(size)
    paired = size - size % 2
    children = population[perm]
    do_cross = rng.random(paired // 2) < chi
    first, second = children[0:paired:2], children[1:paired:2]
    swapped = gn.uniform_crossover(first, second, CROSSOVER_SWAP_PROB, rng)
    children[0:paired:2] = np.where(do_cross[:, None], swapped[0], first)
    children[1:paired:2] = np.where(do_cross[:, None], swapped[1], second)
    return gn.mutate_population(children, flip, rng)


def run_iteration(
    state: GenerationState,
    config: RunConfig,
    problem: Problem,
    refs: ReferencePointSet | None,
    rng: np.random.Generator,
) -> None:
    """One full generation: offspring, then survivors from all 2N rows.
    Raises ``RuntimeError`` if the rows rank into more than one front."""
    offspring = make_offspring(state.population, config, rng)
    combined = np.concatenate([state.population, offspring], axis=0)
    values = problem.evaluate(combined)
    fronts = fast_nondominated_sort(values, sense="max")
    if len(fronts) > 1:
        raise RuntimeError(f"parents and offspring form {len(fronts)} fronts, not one")
    if config.algorithm == "nsga3":
        nvals, state.norm = normalize(state.norm, values)
        assoc = associate(nvals, refs, rng)
        survivors = niching_select(assoc.ref_index, assoc.distance, k=config.pop_size, rng=rng)
    else:
        survivors = crowding_distance_select(values, config.pop_size, rng)
    state.population = combined[survivors]


def run(config: RunConfig):
    """Generator of RunRecords, one per iteration (iteration 0 = initial pop).

    Stop policy 'iters' runs to max_iterations; 'coverage' additionally
    stops at the first iteration with full front coverage.
    """
    config.validate()
    problem = make_problem(config.problem, config.n)
    refs = (
        generate_reference_points(problem.num_objectives, config.divisions)
        if config.algorithm == "nsga3"
        else None
    )
    rng = np.random.default_rng(config.seed)
    front = problem.front()
    front_size = front.shape[0]

    state = GenerationState(
        population=gn.random_population(config.pop_size, config.n, rng),
        norm=NormalizationState(),
    )

    covered = set()
    losses = 0
    for iteration in range(config.max_iterations + 1):
        t0 = time.perf_counter()
        if iteration:
            run_iteration(state, config, problem, refs, rng)
        now_covered = coverage(problem.evaluate(state.population), front)
        losses += len(detect_loss(covered, now_covered))
        new = tuple(sorted(now_covered - covered))
        covered = now_covered
        yield RunRecord(
            run_id=config.run_id,
            iteration=iteration,
            covered=len(covered),
            front_size=front_size,
            new_values=new,
            losses_cum=losses,
            wall_time=time.perf_counter() - t0 if iteration else 0.0,
        )
        if config.stop == "coverage" and len(covered) == front_size:
            return


def run_collect(config: RunConfig) -> list[RunRecord]:
    """Run to completion and return all records."""
    return list(run(config))
