import itertools

import numpy as np
import pytest

from moea_lab.dominance import _distinct_rows
from moea_lab.normalization import (
    ASF_OFF_AXIS_WEIGHT,
    EPSILON_NADIR,
    DegeneratePopulationError,
    NormalizationState,
    hyperplane_intercepts,
)
from moea_lab.problems import pareto_front_3omm
from moea_lab.refpoints import _RADIUS, _TIE_RTOL, _binomial, _plane_angles
from moea_lab.selection import Association


class RiggedSource:
    """Generator stand-in emitting a constant uniform value.

    value < 0.5 makes every `rng.random() < 0.5` draw succeed (all heads);
    value >= 0.5 makes every draw fail (all tails).
    """

    def __init__(self, value: float):
        self.value = value

    def random(self, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)


# Last line of a child interpreter's code: print the child's own peak
# resident set, in kB. Its ru_maxrss would not do: on Linux that keeps the
# high-water mark of the process that forked it, across exec.
PRINT_PEAK_KB = (
    "print(next(line.split()[1] for line in open('/proc/self/status')"
    " if line.startswith('VmHWM:')))\n"
)


STRICT = "strict"
WEAK = "weak"
NONE = "none"


def dominates(a, b, sense: str = "min") -> str:
    """Oracle: compare two objective vectors under the given optimization
    sense.

    Returns 'weak' if a is at least as good as b in every objective,
    'strict' if additionally strictly better in at least one, else 'none'.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"objective dimension mismatch: {a.shape} vs {b.shape}")
    if sense == "max":
        a, b = b, a  # not negated, which would wrap unsigned, bool and -2**63
    elif sense != "min":
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    if np.all(a <= b):
        return STRICT if np.any(a < b) else WEAK
    return NONE


def perpendicular_distance(v, r) -> float:
    """Oracle: Euclidean distance from ``v`` to the line through the origin
    and ``r``."""
    v = np.asarray(v, dtype=float)
    r = np.asarray(r, dtype=float)
    rr = float(r @ r)
    if rr == 0.0:
        raise ValueError("reference point must be non-zero")
    proj = (float(v @ r) / rr) * r
    return float(np.linalg.norm(v - proj))


def angle_between(u, v) -> float:
    """Oracle: angle in [0, pi] between two non-zero vectors, from arccos of
    the normalized inner product clamped into [-1, 1]."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    nu = float(np.linalg.norm(u))
    nv = float(np.linalg.norm(v))
    if nu == 0.0 or nv == 0.0:
        raise ValueError("angle is undefined for a zero vector")
    cos = float(u @ v) / (nu * nv)
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))


def tuple_set_coverage(values, front) -> set[tuple[int, ...]]:
    """Oracle: front values represented in a population, as the intersection
    of two sets of integer tuples."""
    front_set = {tuple(int(v) for v in row) for row in np.atleast_2d(front)}
    pop_set = {tuple(int(v) for v in row) for row in np.atleast_2d(values)}
    return pop_set & front_set


def three_sum_evaluate(problem, population) -> np.ndarray:
    """Oracle: ``Problem.evaluate`` from three int64 row sums, one over the
    whole genome and one over each half."""
    population = np.atleast_2d(np.asarray(population))
    ones = population.sum(axis=1, dtype=np.int64)
    if problem.num_objectives == 2:
        return np.stack([problem.n - ones, ones], axis=1)
    half = problem.n // 2
    first = population[:, :half].sum(axis=1, dtype=np.int64)
    second = population[:, half:].sum(axis=1, dtype=np.int64)
    return np.stack([problem.n - ones, first, second], axis=1)


def stacked_nearest(refs, values):
    """Oracle: ``ReferencePointSet.nearest`` on (rows x candidates x M)
    stacks, with every per-candidate pass over the short last axis. Reads only
    ``refs.p`` and ``refs.dim``; expects valid rows."""
    v = np.atleast_2d(np.asarray(values, dtype=float))
    p, dim = refs.p, refs.dim
    steps = range(-_RADIUS, _RADIUS + 2)
    offsets = np.array(list(itertools.product(steps, repeat=dim - 1)), dtype=np.int64)
    total = v.sum(axis=1)

    q = p * v[:, :-1] / total[:, None]
    head = np.floor(q).astype(np.int64)[:, None, :] + offsets
    grid = np.concatenate([head, p - head.sum(axis=2, keepdims=True)], axis=2)
    on_simplex = np.all(grid >= 0, axis=2)
    index = np.zeros(grid.shape[:-1], dtype=np.int64)
    left = np.full(grid.shape[:-1], p, dtype=np.int64)
    for i in range(dim - 1):
        k = dim - 1 - i
        after = left - grid[..., i]
        index += _binomial(left + k, k) - _binomial(after + k, k)
        left = after
    index = np.where(on_simplex, index, -1)

    a, b = v[:, None, :], grid.astype(float)
    cross = sum(
        (a[..., i] * b[..., j] - a[..., j] * b[..., i]) ** 2
        for i, j in itertools.combinations(range(dim), 2)
    )
    dot = sum(a[..., i] * b[..., i] for i in range(dim))
    angle = np.arctan2(np.sqrt(cross), dot)
    angle[~on_simplex] = np.inf
    best = angle.min(axis=1)
    return best, index, angle <= best[:, None] * (1.0 + _TIE_RTOL)


def exhaustive_min_pairwise_angle(n: int, block: int = 128) -> float:
    """Oracle: smallest ``_plane_angles`` between any two distinct directions
    of the scaled 3-OMM front (n - a - b, 2a, 2b), over all ordered pairs,
    ``block`` rows at a time."""
    dirs = pareto_front_3omm(n) * np.array([1.0, 2.0, 2.0])
    smallest = np.inf
    for start in range(0, len(dirs), block):
        rows, cols = dirs[start : start + block, None, :], dirs[None, :, :]
        pairs = _plane_angles([rows[..., i] for i in range(3)], [cols[..., i] for i in range(3)])
        own = np.arange(pairs.shape[0])
        pairs[own, start + own] = np.inf  # a value and itself
        smallest = min(smallest, float(pairs.min()))
    return smallest


def dense_associate(normalized, refs, rng) -> Association:
    """Oracle: association from each distinct row's product with the whole
    lattice, with a separate max, argmax and tie count. Each row is
    multiplied as two copies of itself, on its own: numpy computes a one-row
    product as a matrix-vector call, and the last bits of a many-row product
    can depend on how many rows it holds."""
    normalized = np.atleast_2d(np.asarray(normalized, dtype=float))
    uniq, inverse = _distinct_rows(normalized)
    units = refs.unit_points
    chosen, best = [], []
    for row in uniq:
        proj = (np.repeat(row[None], 2, axis=0) @ units.T)[0]
        ties = np.flatnonzero(proj == proj.max())
        chosen.append(ties[rng.integers(ties.size)] if ties.size > 1 else ties[0])
        best.append(proj[chosen[-1]])
    chosen = np.array(chosen, dtype=np.intp)
    residual = uniq - np.array(best)[:, None] * units[chosen]
    dist = np.linalg.norm(residual, axis=1)
    return Association(ref_index=chosen[inverse], distance=dist[inverse])


def row_axis_extreme_point(j, candidates, ideal):
    """Oracle: ``normalization.extreme_point`` with the ASF as one max over
    each candidate's row of weighted terms."""
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    weights = np.full(candidates.shape[1], ASF_OFF_AXIS_WEIGHT)
    weights[j] = 1.0
    asf = ((candidates - np.asarray(ideal, dtype=float)) / weights).max(axis=1)
    return candidates[int(np.argmin(asf))].copy()


def row_axis_normalize(state, values):
    """Oracle: ``normalization.normalize`` with every minimum and maximum
    taken by a reduction over the whole (rows x M) array."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    ideal, worst = values.min(axis=0), values.max(axis=0)
    if state.ideal is not None:
        ideal = np.minimum(state.ideal, ideal)
    if state.worst is not None:
        worst = np.maximum(state.worst, worst)
    candidates = values if state.extremes is None else np.concatenate([values, state.extremes])
    m = values.shape[1]
    extremes = np.stack([row_axis_extreme_point(j, candidates, ideal) for j in range(m)])

    nadir = values.max(axis=0)
    valid, intercepts = hyperplane_intercepts(extremes, ideal)
    if valid and np.all((intercepts >= EPSILON_NADIR) & (intercepts <= worst)):
        nadir = np.where(intercepts < ideal + EPSILON_NADIR, nadir, intercepts)
    if np.any(nadir < ideal + EPSILON_NADIR):
        raise DegeneratePopulationError("no spread")
    state = NormalizationState(ideal=ideal, worst=worst, extremes=extremes, nadir=nadir)
    return (values - ideal) / (nadir - ideal), state


def loop_niching_select(selected_refs, cand_refs, cand_dists, k, refs, rng):
    """Oracle: niching that rescans every active reference point's niche
    count for each pick, over an R-sized count array and dict-of-lists
    pools."""
    cand_refs = np.asarray(cand_refs)
    cand_dists = np.asarray(cand_dists, dtype=float)
    n_cand = cand_refs.shape[0]
    if not 0 < k <= n_cand:
        raise ValueError(f"need 0 < k <= {n_cand} candidates, got k={k}")

    rho = np.zeros(len(refs), dtype=np.int64)
    sel = np.asarray(selected_refs)
    if sel.size:
        np.add.at(rho, sel, 1)

    pools: dict[int, list[int]] = {}
    for idx, r in enumerate(cand_refs):
        pools.setdefault(int(r), []).append(idx)

    active = np.array(sorted(pools), dtype=np.int64)
    chosen: list[int] = []
    while len(chosen) < k:
        counts = rho[active]
        minimum = counts.min()
        ties = active[counts == minimum]
        r = int(ties[rng.integers(ties.size)]) if ties.size > 1 else int(ties[0])

        pool = pools[r]
        if not pool:
            active = active[active != r]
            continue
        if rho[r] == 0:
            dists = cand_dists[pool]
            best = dists.min()
            best_positions = np.flatnonzero(dists == best)
            pos = int(best_positions[rng.integers(best_positions.size)]) \
                if best_positions.size > 1 else int(best_positions[0])
        else:
            pos = int(rng.integers(len(pool)))
        chosen.append(pool.pop(pos))
        rho[r] += 1
    return np.array(chosen, dtype=np.int64)


@pytest.fixture
def all_heads():
    return RiggedSource(0.0)


@pytest.fixture
def all_tails():
    return RiggedSource(0.99)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
