"""Benchmark objective functions and exact Pareto-front enumeration.

Two maximization benchmarks on bit strings of length ``n``:

* OneMinMax (M=2): (zeros count, ones count).
* 3-OMM (M=3, even n): (zeros count, ones in first half, ones in second
  half). Every bit string is Pareto-optimal, so the front has exactly
  (n/2 + 1)^2 values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Problem",
    "one_min_max",
    "three_omm",
    "pareto_front_3omm",
    "pareto_front_oneminmax",
    "make_problem",
]


def pareto_front_oneminmax(n: int) -> np.ndarray:
    """All OneMinMax objective values {(n-k, k) : 0 <= k <= n}."""
    if n < 1:
        raise ValueError(f"genome length must be >= 1, got {n}")
    k = np.arange(n + 1, dtype=np.int64)
    return np.stack([n - k, k], axis=1)


def pareto_front_3omm(n: int) -> np.ndarray:
    """The full 3-OMM Pareto front, (n/2+1)^2 values in lexicographic (a, b) order.

    Every genome is Pareto-optimal, so the front is exactly
    {(n - a - b, a, b) : 0 <= a, b <= n/2}.
    """
    if n < 1 or n % 2 != 0:
        raise ValueError(f"3-OMM requires even genome length >= 2, got n={n}")
    half = n // 2
    a, b = np.meshgrid(np.arange(half + 1), np.arange(half + 1), indexing="ij")
    a = a.ravel()
    b = b.ravel()
    return np.stack([n - a - b, a, b], axis=1).astype(np.int64)


@dataclass(frozen=True)
class Problem:
    """A maximization benchmark instance: name, genome length, objective count."""

    name: str
    n: int
    num_objectives: int

    def evaluate(self, population: np.ndarray) -> np.ndarray:
        """Objective values, shape (size, M), int64, for a (size, n) population
        of 0/1 bits, in one pass: 3-OMM counts both halves with one
        ``reduceat``, in the smallest unsigned type that holds n (so the
        bits are not copied to a wider type), and adds them for the ones."""
        population = np.atleast_2d(np.asarray(population))
        if population.shape[1] != self.n:
            raise ValueError(
                f"expected genomes of length {self.n}, got {population.shape[1]}"
            )
        if self.name == "omm":
            ones = population.sum(axis=1, dtype=np.int64)
            return np.stack([self.n - ones, ones], axis=1)
        halves = np.add.reduceat(population, [0, self.n // 2], axis=1,
                                 dtype=np.min_scalar_type(self.n))
        first, second = halves.astype(np.int64).T
        return np.stack([self.n - first - second, first, second], axis=1)

    def front(self) -> np.ndarray:
        """Exact enumeration of the Pareto front's objective values."""
        if self.name == "omm":
            return pareto_front_oneminmax(self.n)
        return pareto_front_3omm(self.n)

    @property
    def front_size(self) -> int:
        """Number of front values, counted without enumerating them."""
        return self.n + 1 if self.name == "omm" else (self.n // 2 + 1) ** 2


def one_min_max(n: int) -> Problem:
    """The 2-objective OneMinMax benchmark."""
    if n < 1:
        raise ValueError(f"genome length must be >= 1, got {n}")
    return Problem(name="omm", n=n, num_objectives=2)


def three_omm(n: int) -> Problem:
    """The 3-objective OneMinMax benchmark (requires even n)."""
    if n < 1 or n % 2 != 0:
        raise ValueError(f"3-OMM requires even genome length >= 2, got n={n}")
    return Problem(name="3omm", n=n, num_objectives=3)


def make_problem(name: str, n: int) -> Problem:
    """Factory by CLI name ('omm' or '3omm')."""
    if name == "omm":
        return one_min_max(n)
    if name == "3omm":
        return three_omm(n)
    raise ValueError(f"unknown problem {name!r} (expected 'omm' or '3omm')")


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
