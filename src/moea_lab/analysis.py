"""Coverage tracking, loss detection, and reference-lattice verification.

Coverage is keyed on exact integer objective tuples, never on normalized
floats. The lattice verifier enumerates the 3-OMM front, normalizes it by
the plain min-max map, associates every value with its nearest reference
line, and reports the exact angular quantities that make unique
association provable (smallest angle between distinct front values versus
twice the largest association angle).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .problems import pareto_front_3omm
from .refpoints import _angles, generate_reference_points

__all__ = [
    "RunRecord",
    "AngleReport",
    "MinimalPResult",
    "coverage",
    "detect_loss",
    "verify_unique_association",
    "minimal_p_search",
]

Value = tuple[int, ...]

ANGLE_SLACK = 1e-12

# Rows of the front x front angle matrix held at once when taking its
# minimum: memory grows with the front size U, not with U^2.
_PAIR_BLOCK = 128


@dataclass
class RunRecord:
    """Per-iteration statistics of one optimization run."""

    run_id: str
    iteration: int
    covered: int
    front_size: int
    new_values: tuple[Value, ...] = ()
    losses_cum: int = 0
    wall_time: float = 0.0


@dataclass(frozen=True)
class AngleReport:
    """Exact association geometry of the 3-OMM front for one (n, p).

    ``collisions`` sums, over the reference points held by some front
    value's tie set (its nearest lines, see ``ReferencePointSet.nearest``),
    the number of values holding the point minus one. With no ties it is the
    number of front values minus the number of points they occupy; a tied
    value collides wherever another value holds one of its points.
    """

    n: int
    p: int
    min_pairwise_angle: float
    max_assoc_angle: float
    separated: bool  # min pairwise > 2 * max association
    collisions: int  # see above: values sharing a nearest reference point


@dataclass(frozen=True)
class MinimalPResult:
    """Outcome of scanning divisions for the first collision-free lattice."""

    n: int
    p_min: int | None  # None when no collision-free p in range
    lower_bound: int  # ceil(n / sqrt(2)): fewer divisions cannot suffice
    p_searched_max: int


def coverage(values: np.ndarray, front: np.ndarray) -> set[Value]:
    """Front values represented in a population (exact integer match)."""
    front_set = {tuple(int(v) for v in row) for row in np.atleast_2d(front)}
    pop_set = {tuple(int(v) for v in row) for row in np.atleast_2d(values)}
    return pop_set & front_set


def detect_loss(previous: set[Value], current: set[Value]) -> list[Value]:
    """Previously covered front values with no representative anymore."""
    return sorted(previous - current)


def _front_directions(n: int) -> np.ndarray:
    """The min-max normalized 3-OMM front, f / (n, n/2, n/2), scaled by n.

    Scaling keeps every line through the origin, and the integer
    coordinates make the angle products exact.
    """
    return (pareto_front_3omm(n) * np.array([1, 2, 2])).astype(float)


def verify_unique_association(n: int, p: int) -> AngleReport:
    """Check that every 3-OMM front value claims its own reference point.

    Enumerates all (n/2+1)^2 front values, normalizes with the min-max map
    (ideal at the origin, per-objective maxima (n, n/2, n/2)), finds each
    value's nearest reference lines with ``ReferencePointSet.nearest``, and
    measures the exact extremal angles. ``separated`` means the smallest
    angle between two distinct normalized front values exceeds twice the
    largest value-to-reference angle, which forces zero collisions.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"3-OMM requires even n >= 2, got {n}")
    if p < 1:
        raise ValueError(f"divisions must be >= 1, got {p}")

    dirs = _front_directions(n)
    angle, index, tie = generate_reference_points(3, p).nearest(dirs)
    max_assoc_angle = float(angle.max())

    min_pairwise_angle = math.inf
    for start in range(0, len(dirs), _PAIR_BLOCK):
        pairs = _angles(dirs[start : start + _PAIR_BLOCK, None, :], dirs[None, :, :])
        rows = np.arange(pairs.shape[0])
        pairs[rows, start + rows] = np.inf  # a value and itself
        min_pairwise_angle = min(min_pairwise_angle, float(pairs.min()))

    _, claims = np.unique(index[tie], return_counts=True)
    return AngleReport(
        n=n,
        p=p,
        min_pairwise_angle=min_pairwise_angle,
        max_assoc_angle=max_assoc_angle,
        separated=min_pairwise_angle > 2.0 * max_assoc_angle,
        collisions=int((claims - 1).sum()),
    )


def minimal_p_search(n: int, p_max: int, p_min: int = 1) -> MinimalPResult:
    """Smallest division count with zero association collisions.

    Linear scan over [p_min, p_max] (collision-freeness is not known to be
    monotone in p, so no bisection). The reported lower bound ceil(n /
    sqrt(2)) is the counting threshold below which there are fewer
    reference points than front values.
    """
    if p_max < p_min or p_min < 1:
        raise ValueError(f"invalid division range [{p_min}, {p_max}]")
    lower = math.ceil(n / math.sqrt(2))
    for p in range(p_min, p_max + 1):
        if verify_unique_association(n, p).collisions == 0:
            return MinimalPResult(n=n, p_min=p, lower_bound=lower, p_searched_max=p_max)
    return MinimalPResult(n=n, p_min=None, lower_bound=lower, p_searched_max=p_max)
