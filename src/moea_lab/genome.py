"""Bit-string genomes: random initialisation, mutation and uniform crossover.

Genomes are fixed-length bit sequences stored as numpy ``uint8`` arrays
(values 0/1), one genome per row. All randomized operators take an explicit
``numpy.random.Generator`` so that replaying a seed reproduces an entire
experiment's genome stream bit-exactly.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "random_population",
    "mutate_population",
    "uniform_crossover",
]


def random_population(size: int, n: int, rng: np.random.Generator) -> np.ndarray:
    """(size, n) array of independent uniform random genomes."""
    if n < 1:
        raise ValueError(f"genome length must be >= 1, got {n}")
    if size < 1:
        raise ValueError(f"population size must be >= 1, got {size}")
    return (rng.random((size, n)) < 0.5).astype(np.uint8)


def mutate_population(
    population: np.ndarray, flip_prob: float, rng: np.random.Generator
) -> np.ndarray:
    """Standard bit mutation: flip every bit independently with
    probability ``flip_prob``. Returns new genomes; the input is untouched."""
    population = np.asarray(population, dtype=np.uint8)
    if not 0.0 <= flip_prob <= 1.0:
        raise ValueError(f"flip probability must be in [0, 1], got {flip_prob}")
    flips = rng.random(population.shape) < flip_prob
    return population ^ flips.astype(np.uint8)


def uniform_crossover(
    a: np.ndarray, b: np.ndarray, swap_prob: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Exchange bits between parents, independently per position.

    ``a`` and ``b`` are single genomes or equal-shape batches of rows, row i
    of ``a`` paired with row i of ``b``. At each position, with probability
    ``swap_prob`` the two bits are swapped between the children, otherwise
    passed through; one uniform draw per position, in row-major order. The
    positionwise multiset {a_i, b_i} is preserved in every outcome.
    """
    a = np.asarray(a, dtype=np.uint8)
    b = np.asarray(b, dtype=np.uint8)
    if a.shape != b.shape:
        raise ValueError(f"parent shape mismatch: {a.shape} vs {b.shape}")
    if not 0.0 <= swap_prob <= 1.0:
        raise ValueError(f"swap probability must be in [0, 1], got {swap_prob}")
    swap = rng.random(a.shape) < swap_prob
    return np.where(swap, b, a), np.where(swap, a, b)
