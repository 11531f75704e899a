"""Coverage tracking, loss detection, and reference-lattice verification.

Coverage is keyed on exact integer objective tuples, never on normalized
floats. The lattice verifier enumerates the 3-OMM front, normalizes it by
the plain min-max map, associates every value with its nearest reference
line, and reports the exact angular quantities that make unique
association provable (smallest angle between distinct front values versus
twice the largest association angle). The smallest pairwise angle comes from
each front value's one-step neighbours in the (a, b) grid, so its cost is
linear in the front. It does not depend on p; it is held for the last n
asked, so a scan over p does only the p-dependent work, the nearest-line
search, which reads only p: no lattice is built.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dominance import _box_codes
from .problems import pareto_front_3omm, require_indexable, three_omm
from .refpoints import _plane_angles, generate_reference_points

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
    """Front values represented in a population (exact integer match).

    Rows are matched as mixed-radix integer codes over the front's bounding
    box (``_box_codes``, one column at a time), so tuples are built only for
    the covered front values and memory stays linear in the population plus
    the front; a box too large for int64 codes is matched as tuple sets.
    """
    front = np.atleast_2d(front).astype(np.int64)
    values = np.atleast_2d(values).astype(np.int64)
    lo, hi = [c.min() for c in front.T], [c.max() for c in front.T]
    in_box = np.ones(len(values), dtype=bool)
    for column, low, high in zip(values.T, lo, hi):
        in_box &= (column >= low) & (column <= high)
    front_codes = _box_codes(front.T, lo, hi)
    if front_codes is None:
        return set(map(tuple, front.tolist())) & set(map(tuple, values.tolist()))
    pop_codes = _box_codes([c[in_box] for c in values.T], lo, hi)
    covered = front[np.isin(front_codes, pop_codes)]
    return set(map(tuple, covered.tolist()))


def detect_loss(previous: set[Value], current: set[Value]) -> list[Value]:
    """Previously covered front values with no representative anymore."""
    return sorted(previous - current)


def _front_directions(n: int) -> np.ndarray:
    """The min-max normalized 3-OMM front, f / (n, n/2, n/2), scaled by n.

    Scaling keeps every line through the origin, and the integer
    coordinates make the angle products exact.
    """
    return (pareto_front_3omm(n) * np.array([1, 2, 2])).astype(float)


# Only one-step neighbours in the (a, b) grid can hold the front's smallest
# pairwise angle. The directions u = (n - a - b, 2a, 2b) lie on the plane
# x + y/2 + z/2 = n, at distance h = n sqrt(2/3) from the origin, and none is
# longer than sqrt(2) n, so |w| / h <= sqrt(3). |u x w| is |u - w| times the
# distance from the origin to the line through u and w, a line in that
# plane, so |u x w| >= h |u - w|. Every u has a neighbour u + e with e a
# step of one in a or in b, |e|^2 = 5, and
# sin angle(u, u + e) = |(u + e) x e| / (|u| |u + e|) <= |e| / |u|. A pair
# with |da| or |db| at least 2 has
# |u - w|^2 = 5 da^2 + 2 da db + 5 db^2 >= 19.2 > 15 >= (|e| |w| / h)^2, so
# sin angle(u, w) >= h |u - w| / (|u| |w|) > |e| / |u|. No angle exceeds
# pi/2, as all coordinates are non-negative, so angle(u, w) is larger than
# one of u's one-step angles, by a sine ratio of at least sqrt(19.2 / 15),
# far beyond rounding. ``_plane_angles`` gives (u, w) and (w, u) the same
# bits (a rounded product commutes and x - y rounds to -(y - x)), so the
# minimum over neighbours equals the minimum over all pairs bit for bit.
@functools.lru_cache(maxsize=1)
def _min_pairwise_angle(n: int) -> float:
    """Smallest angle between two distinct normalized 3-OMM front values,
    from each value's one-step neighbours, so linear in the front.

    It does not depend on p, so it is held for the last n asked: a
    minimal-p search takes it once for all the divisions it scans.
    """
    side = n // 2 + 1
    grid = _front_directions(n).T.reshape(3, side, side)
    # steps (0, 1), (1, -1), (1, 0) and (1, 1): each neighbour pair once
    near = [(grid[:, :, :-1], grid[:, :, 1:]), (grid[:, :-1, 1:], grid[:, 1:, :-1]),
            (grid[:, :-1], grid[:, 1:]), (grid[:, :-1, :-1], grid[:, 1:, 1:])]
    u, w = (np.concatenate([pair[k].reshape(3, -1) for pair in near], axis=1) for k in (0, 1))
    return float(_plane_angles(list(u), list(w)).min())


def verify_unique_association(n: int, p: int) -> AngleReport:
    """Check that every 3-OMM front value claims its own reference point.

    Enumerates all (n/2+1)^2 front values, normalizes with the min-max map
    (ideal at the origin, per-objective maxima (n, n/2, n/2)), finds each
    value's nearest reference lines with ``ReferencePointSet.nearest``, and
    measures the exact extremal angles. ``separated`` means the smallest
    angle between two distinct normalized front values exceeds twice the
    largest value-to-reference angle, which forces zero collisions.
    """
    if p < 1:
        raise ValueError(f"divisions must be >= 1, got {p}")
    require_indexable(three_omm(n), divisions=p)  # also checks n

    dirs = _front_directions(n)
    angle, _, index = generate_reference_points(3, p).nearest(dirs)
    max_assoc_angle = float(angle.max())
    min_pairwise_angle = _min_pairwise_angle(n)

    _, claims = np.unique(index, return_counts=True)
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
    monotone in p, so no bisection), one ``verify_unique_association`` per
    division. The front's smallest pairwise angle, taken from one-step
    neighbours in time linear in the front, is p-independent and held for
    the last n, so it is computed once per search, not once per p. The
    reported lower bound ceil(n / sqrt(2)) is the counting threshold below
    which there are fewer reference points than front values.
    """
    if p_max < p_min or p_min < 1:
        raise ValueError(f"invalid division range [{p_min}, {p_max}]")
    # ceil(n / sqrt(2)) in integers, so no n is too large for a float: n / sqrt(2)
    # is irrational, so this is the least k with 2 k^2 > n^2
    lower = math.isqrt(n * n // 2) + 1
    for p in range(p_min, p_max + 1):
        if verify_unique_association(n, p).collisions == 0:
            return MinimalPResult(n=n, p_min=p, lower_bound=lower, p_searched_max=p_max)
    return MinimalPResult(n=n, p_min=None, lower_bound=lower, p_searched_max=p_max)
