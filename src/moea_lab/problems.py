"""Benchmark objective functions and exact Pareto-front enumeration.

Both maximization benchmarks split a bit string of length ``n`` into
blocks and count the zeros, then the ones in each block: OneMinMax (M=2)
has one block, 3-OMM (M=3, even n) the two halves. Each row is (zeros,
ones per block), so every row sums to n and no row dominates another:
every bit string is Pareto-optimal, any population is one front (the
engine selects survivors from all of it), and the front is every
combination of per-block ones counts, prod(b + 1) values over the block
lengths b.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Problem",
    "PROBLEMS",
    "one_min_max",
    "three_omm",
    "pareto_front_3omm",
    "make_problem",
]


@dataclass(frozen=True)
class Problem:
    """A maximization benchmark instance: genome length and block lengths."""

    n: int
    blocks: tuple[int, ...]

    @property
    def num_objectives(self) -> int:
        return len(self.blocks) + 1

    def _values(self, ones) -> np.ndarray:
        """(size, M) int64 rows from the (blocks, size) per-block ones counts."""
        return np.stack([self.n - sum(ones), *ones], axis=1)

    def evaluate(self, population: np.ndarray) -> np.ndarray:
        """Objective values, shape (size, M), int64, for a (size, n) population
        of 0/1 bits, in one pass: one ``reduceat`` counts every block's ones,
        in the smallest unsigned type that holds n (so the bits are not copied
        to a wider type)."""
        population = np.atleast_2d(np.asarray(population))
        if population.shape[1] != self.n:
            raise ValueError(
                f"expected genomes of length {self.n}, got {population.shape[1]}"
            )
        starts = list(itertools.accumulate(self.blocks[:-1], initial=0))
        counts = np.add.reduceat(population, starts, axis=1, dtype=np.min_scalar_type(self.n))
        return self._values(counts.astype(np.int64).T)

    def front(self) -> np.ndarray:
        """The Pareto front's values, in lexicographic order of the ones counts."""
        grids = np.meshgrid(*(np.arange(b + 1, dtype=np.int64) for b in self.blocks), indexing="ij")
        return self._values([grid.ravel() for grid in grids])

    @property
    def front_size(self) -> int:
        """Number of front values, counted without enumerating them."""
        return math.prod(b + 1 for b in self.blocks)


def one_min_max(n: int) -> Problem:
    """The 2-objective OneMinMax benchmark."""
    if n < 1:
        raise ValueError(f"genome length must be >= 1, got {n}")
    return Problem(n, (n,))


def three_omm(n: int) -> Problem:
    """The 3-objective OneMinMax benchmark (requires even n)."""
    if n < 1 or n % 2 != 0:
        raise ValueError(f"3-OMM requires even genome length >= 2, got n={n}")
    return Problem(n, (n // 2, n // 2))


def pareto_front_3omm(n: int) -> np.ndarray:
    """The full 3-OMM Pareto front {(n - a - b, a, b) : 0 <= a, b <= n/2},
    (n/2+1)^2 values in lexicographic (a, b) order."""
    return three_omm(n).front()


PROBLEMS = {"omm": one_min_max, "3omm": three_omm}


def make_problem(name: str, n: int) -> Problem:
    """Factory by CLI name, a key of ``PROBLEMS``."""
    if name not in PROBLEMS:
        raise ValueError(f"unknown problem {name!r} (expected {' or '.join(map(repr, PROBLEMS))})")
    return PROBLEMS[name](n)


def require_indexable(problem: Problem, pop_size: int = 0, divisions: int | None = None) -> None:
    """Refuse, before anything is built, an array numpy cannot index: one
    generation's parent and offspring bits, the front, or the lattice of
    C(p + M - 1, M - 1) points, all counted as Python ints. Neither the
    engine nor the verifier allocates the lattice; its count guards their
    int64 lattice indices. What numpy can index but memory cannot hold is
    left to the allocator."""
    dim = problem.num_objectives
    sizes = {"population": 2 * pop_size * problem.n, "front": dim * problem.front_size}
    if divisions is not None:
        sizes["reference lattice"] = dim * math.comb(divisions + dim - 1, dim - 1)
    for what, count in sizes.items():
        if count > np.iinfo(np.intp).max:
            raise ValueError(f"{what} of {count} elements is more than numpy can index")
