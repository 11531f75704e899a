"""Simplex-lattice reference points and reference-line geometry.

The structured reference set with ``p`` divisions per objective is the
lattice of points with coordinates that are non-negative multiples of
``1/p`` summing to 1; it has C(p + M - 1, M - 1) points. Individuals are
compared to reference points via the perpendicular distance to the line
through the origin, or equivalently the angle between the vectors.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "ReferencePointSet",
    "generate_reference_points",
]

# Half-width of the candidate box in ReferencePointSet.nearest. Candidates
# span floor(q_i) - 2 .. floor(q_i) + 3 in each of the first M - 1
# coordinates of the projection q, so a lattice point left out is at least
# 3 from q in one coordinate, hence at least 3 * sqrt(M / (M - 1)) from q on
# the plane sum(x) = p. The line through such a point x meets the plane at
# an angle whose sine is (p / sqrt(M)) / |x| >= 1 / sqrt(M), as no point of
# the simplex is longer than p, so the line passes at least 3 / sqrt(M - 1)
# from q. The lattice point nearest q (q rounded on the plane) is in the
# box, and its line passes within the lattice's covering radius
# sqrt(a (M - a) / M), a = M // 2, of q. For M <= 6 that radius is below
# 3 / sqrt(M - 1), so no left-out point can beat or tie the best candidate;
# and the angle to a line grows with its distance from q.
_RADIUS = 2
_MAX_NEAREST_DIM = 6

# Relative width of a tie in ReferencePointSet.nearest. Rounding moves a
# computed angle by about 1e-16 / angle, relative (an ulp of |v| |u| in the
# minors); integer-valued rows, as the verifier's are, leave only a few
# ulps. So 1e-9 holds every true tie at angles above 1e-6, while on the 3-OMM
# fronts of every even n <= 40 at every p <= 21n, and at n = 64, p = 1344, a
# best candidate and the nearest candidate that is not an exact tie differ
# by at least 1.7e-6, relative.
_TIE_RTOL = 1e-9


@dataclass(frozen=True)
class ReferencePointSet:
    """Immutable lattice of reference points on the unit simplex, given by p and dim alone."""

    p: int
    dim: int
    # selection.associate's results for the distinct rows of its last call on
    # this lattice: row.tobytes() -> (lattice indices of the row's best lines,
    # in lattice order, and the row's distance to each)
    _associations: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return math.comb(self.p + self.dim - 1, self.dim - 1)

    @property
    def points(self) -> np.ndarray:
        """The (count, M) lattice in lexicographic order, built anew on every read."""
        return _compositions(self.p, self.dim) / float(self.p)

    @property
    def unit_points(self) -> np.ndarray:
        """Points scaled to unit Euclidean length, built anew on every read.

        ``_units`` makes them, as it makes the unit vectors that
        ``selection.associate`` scores, so the two have the same bits. The
        engine reads neither whole: association scores each row on its own
        candidate box.
        """
        return _units(list(_compositions(self.p, self.dim).T), self.p)

    def nearest(self, values) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Nearest reference lines of non-negative vectors, with their ties.

        Each row v is projected onto the lattice's simplex as q = p v / sum(v),
        and only the lattice points in a small box around q are scored (see
        ``_RADIUS``), so the work does not grow with the lattice. The
        candidates are held as one (rows x candidates) array per coordinate,
        and their angles come from ``_plane_angles``.

        Returns ``(angle, row, index)``. ``angle[i]`` is row i's smallest
        angle to a reference line. Each ``(row[j], index[j])`` is a tie entry:
        the angle between that row and lattice point ``index[j]`` is within a
        relative ``_TIE_RTOL`` of the row's smallest. Rows ascend, and within
        a row points are in lattice order.
        """
        v = np.atleast_2d(np.asarray(values, dtype=float))
        if v.ndim != 2 or v.shape[1] != self.dim:
            raise ValueError(f"values must be rows of {self.dim} coordinates")
        if self.dim > _MAX_NEAREST_DIM:
            raise ValueError(f"nearest supports up to {_MAX_NEAREST_DIM} dimensions")
        if not np.all(np.isfinite(v)) or np.any(v < 0):
            raise ValueError("values must be finite and non-negative")
        if np.any(_row_sums(v) == 0):
            raise ValueError("values must have a positive sum")

        grid, on_simplex = self._box(v)
        angle = _plane_angles(
            [v[:, i, None] for i in range(self.dim)], [part.astype(float) for part in grid]
        )
        angle[~on_simplex] = np.inf
        best = angle.min(axis=1)
        row, col = np.nonzero(angle <= best[:, None] * (1.0 + _TIE_RTOL))
        return best, row, _lattice_index([part[row, col] for part in grid], self.p)

    def _box(self, v: np.ndarray) -> tuple[list, np.ndarray]:
        """The candidate box (see ``_RADIUS``) of each row of ``v``, rows
        non-negative with positive sums.

        Returns ``(grid, on_simplex)``: ``grid`` holds one (rows x candidates)
        integer array per coordinate, the candidates in lattice order, and
        ``on_simplex`` marks the candidates with no negative coordinate, the
        only ones ``_lattice_index`` may index.
        """
        q = self.p * v[:, :-1] / _row_sums(v)[:, None]
        floor = np.floor(q).astype(np.int64)
        grid = [floor[:, i, None] + steps for i, steps in enumerate(_box_offsets(self.dim))]
        grid.append(self.p - sum(grid))
        return grid, functools.reduce(np.logical_and, [part >= 0 for part in grid])


def _row_sums(v: np.ndarray) -> np.ndarray:
    """``v.sum(axis=1)`` with the same bits, added one column at a time left
    to right, the order numpy sums a row of fewer than 8 items in, without a
    pass over the short row axis."""
    return functools.reduce(np.add, v.T)


def _units(grid: list, p: int) -> np.ndarray:
    """Unit vectors of lattice points given as one integer array per part,
    stacked on a new last axis; every part may have any shape. Each squared
    norm is summed one part at a time, ((x0^2 + x1^2) + x2^2) ..., the order
    numpy sums a last axis of fewer than 8 items in, so a point gets the same
    bits in any array as from ``np.linalg.norm(axis=-1)``, without a pass
    over a short last axis."""
    parts = [part / float(p) for part in grid]
    norm = np.sqrt(sum(x * x for x in parts))
    return np.stack([x / norm for x in parts], axis=-1)


def _plane_angles(a: list, b: list) -> np.ndarray:
    """Angles between vectors given as one broadcast array per coordinate.

    atan2(|a x b|, a . b), with |a x b| summed from the 2x2 minors
    a_i b_j - a_j b_i, so it stays accurate near 0 where arccos of a cosine
    loses half the digits, and products of integer-valued rows are exact.
    Each coordinate is a plain array, so no pass runs over a short last axis.
    """
    cross = sum(
        (a[i] * b[j] - a[j] * b[i]) ** 2
        for i, j in itertools.combinations(range(len(a)), 2)
    )
    dot = sum(a[i] * b[i] for i in range(len(a)))
    return np.arctan2(np.sqrt(cross), dot)


@functools.cache
def _box_offsets(dim: int) -> np.ndarray:
    """Candidate offsets from floor(q) in the first dim - 1 coordinates, one
    row per coordinate; the columns are lexicographic, so candidates come in
    lattice order. Built once per dim (at most ``_MAX_NEAREST_DIM``) and
    read-only."""
    steps = range(-_RADIUS, _RADIUS + 2)
    offsets = np.array(list(itertools.product(steps, repeat=dim - 1)), dtype=np.int64).T.copy()
    offsets.flags.writeable = False
    return offsets


def _binomial(m: np.ndarray, k: int) -> np.ndarray:
    """C(m, k) elementwise for non-negative integer arrays ``m``."""
    out = np.ones_like(m)
    for t in range(k):
        out = out * (m - t) // (t + 1)  # C(m, t) (m - t) / (t + 1) = C(m, t + 1)
    return out


def _lattice_index(grid: list, p: int) -> np.ndarray:
    """Row index in ``_compositions(p, M)`` of compositions given as one
    integer array per part.

    The compositions before x agree with it up to some part i and have a
    smaller part i; with r left for parts i.. and k = M - 1 - i parts after
    it, they number sum over t < x_i of C(r - t + k - 1, k - 1), which is
    C(r + k, k) - C(r - x_i + k, k). Every part must be non-negative.
    """
    dim = len(grid)
    index = np.zeros(grid[0].shape, dtype=np.int64)
    left = np.full(grid[0].shape, p, dtype=np.int64)
    for i in range(dim - 1):
        k = dim - 1 - i
        after = left - grid[i]
        index += _binomial(left + k, k) - _binomial(after + k, k)
        left = after
    return index


def _compositions(total: int, parts: int) -> np.ndarray:
    """All orderings of non-negative integers with given sum, lexicographic.

    Built one column at a time: each prefix is repeated once per possible
    next part (0 up to what remains), so the rows stay in lexicographic
    order; the last column is what remains.
    """
    prefix = np.empty((1, 0), dtype=np.int64)
    remaining = np.array([total], dtype=np.int64)
    for _ in range(parts - 1):
        counts = remaining + 1
        starts = np.cumsum(counts) - counts
        part = np.arange(counts.sum(), dtype=np.int64) - np.repeat(starts, counts)
        prefix = np.column_stack([np.repeat(prefix, counts, axis=0), part])
        remaining = np.repeat(remaining, counts) - part
    return np.column_stack([prefix, remaining])


def generate_reference_points(dim: int, p: int) -> ReferencePointSet:
    """Lattice with ``p`` divisions in ``dim`` objectives; its points are built when read."""
    if dim < 2:
        raise ValueError(f"dimension must be >= 2, got {dim}")
    if p < 1:
        raise ValueError(f"divisions must be >= 1, got {p}")
    return ReferencePointSet(p=p, dim=dim)
