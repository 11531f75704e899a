"""Survivor selection on the critical front.

Two paths: reference-point association + niching (the NSGA-III route) and
crowding distance (the NSGA-II route). All random tie-breaks draw from the
run's generator in a fixed order (reference points in lattice order,
individuals in population order), so runs replay exactly.

Association scores distinct normalized values against every reference line
with a BLAS matrix product, computed a few rows at a time (``_ROW_BLOCK``),
so memory is a block of rows times the lattice, not values times the
lattice. A row's pick and ties are read only at the 36 (M = 3) lattice
points of its candidate box from ``ReferencePointSet.nearest``, as no entry
outside the box can reach the best one's bits. A block never has a single
row: numpy computes a one-row product as a matrix-vector call whose last
bits can differ, and those bits decide which lines tie. In blocks of 2 to 16
rows, a row's best projection and the entries tying with it have the same
bits whichever rows share its block (on the golden and benchmark fronts; an
entry far from the best can move by an ulp with the block's shape). So what
a row gets (its pick, its best projection and, for a tie row, its tie set)
depends only on its float64 bits and the lattice. The lattice keeps those
results for the distinct rows of association's last call, keyed by the rows'
bytes, and only rows it has not seen are multiplied: the population carries
over between generations, so most rows repeat. Keeping only the last call
bounds the record by one call's distinct rows; a longer history would find
few more repeats.

Ties are still read from the product's bits, so they can depend on the BLAS
build; ``ReferencePointSet.nearest`` has exact tie sets, but association on
it would draw a different stream, and that switch is still open.

Niching keeps the active reference points in buckets by niche count, each
bucket in lattice order, so every pick draws among the same points, with the
same calls, as a scan of all active points would.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass

import numpy as np

from .dominance import _distinct_rows
from .refpoints import _MAX_NEAREST_DIM, ReferencePointSet, _lattice_index

__all__ = [
    "Association",
    "associate",
    "niching_select",
    "crowding_distance",
    "crowding_distance_select",
]

# Rows of the (distinct values x reference points) product held at once.
# np.array_split into len // _ROW_BLOCK blocks gives blocks of 8 to 15 rows;
# a lone row is doubled (see the module docstring). On the 3-OMM fronts of
# the golden runs and the benchmark, every block length from 2 to 32 drew as
# the whole product did; length 1 did not.
_ROW_BLOCK = 8


@dataclass(frozen=True)
class Association:
    """Nearest reference point per individual.

    ``ref_index[i]`` is the lattice index of the reference point whose line
    through the origin is closest to individual i's normalized objective
    vector; ``distance[i]`` is that perpendicular distance. Exact distance
    ties are broken uniformly at random, with one draw per distinct
    normalized vector: individuals with identical vectors always land on
    the same reference point, which is what keeps the occupied-point count
    bounded by the number of distinct objective values.
    """

    ref_index: np.ndarray
    distance: np.ndarray


def associate(
    normalized: np.ndarray, refs: ReferencePointSet, rng: np.random.Generator
) -> Association:
    """Map each normalized objective vector to its nearest reference line.

    For v >= 0 the perpendicular distance satisfies
    d^2 = |v|^2 - (v . r_unit)^2, so the nearest line maximizes the
    projection v . r_unit.

    Each distinct vector is looked up by its bytes in ``refs``'s record of
    the last call; only the vectors not found there are multiplied, in row
    blocks (see ``_ROW_BLOCK``). A block of one row, as when a single vector
    is new, is padded to two copies of it, so the row gets the bits it would
    get in any other block. Each row's product is read only at the candidate
    box of ``ReferencePointSet.nearest`` (see ``refpoints._RADIUS``): no
    entry outside it can reach the best one's bits (the margin argument is
    next to the gather), so the box's best value, its first candidate in
    lattice order with that value and the candidates tying with it are the
    whole row's max, argmax and ties. The record is then replaced by this
    call's vectors, so it never holds more than one call's distinct rows.

    Tie rows then draw one tie each, uniformly, in ascending row order,
    whether their result was recorded or computed, so the draws are those
    of a whole-matrix scan.

    Two cases are decided as the whole product would decide them. A zero
    vector has no box; it projects to 0.0 on every line, so it ties on the
    whole lattice. The box is proven up to ``refpoints._MAX_NEAREST_DIM``
    objectives, and a lattice of more raises ``ValueError`` (the engine
    makes 2 or 3); so do negative or non-finite values.
    """
    normalized = np.atleast_2d(np.asarray(normalized, dtype=float))
    if normalized.shape[1] != refs.dim:
        raise ValueError(f"normalized values must be rows of {refs.dim} coordinates")
    if refs.dim > _MAX_NEAREST_DIM:
        raise ValueError(f"association supports up to {_MAX_NEAREST_DIM} objectives")
    if not np.all(np.isfinite(normalized)) or np.any(normalized < 0):
        raise ValueError("normalized objective values must be finite and non-negative")

    uniq, inverse = _distinct_rows(normalized)
    units = refs.unit_points  # (R, M)
    keys = [row.tobytes() for row in uniq]
    memo = refs._associations
    found = [memo.get(key) for key in keys]  # (pick, top, ties or None)
    missed = np.array([i for i, hit in enumerate(found) if hit is None], dtype=np.intp)
    if missed.size:
        fresh = uniq[missed]
        boxed = fresh.any(axis=1)  # a zero row projects to 0.0 on every line
        grid, on_simplex = refs._box(fresh[boxed])
        inside = np.zeros((missed.size, on_simplex.shape[1]), dtype=bool)
        inside[boxed] = on_simplex
        cells = np.zeros(inside.shape, dtype=np.intp)  # candidates' lattice indices
        cells[inside] = _lattice_index([part[on_simplex] for part in grid], refs.p)
        value = np.empty(inside.shape)
        for pos in np.array_split(np.arange(missed.size), max(1, missed.size // _ROW_BLOCK)):
            if pos.size == 1:
                pos = np.repeat(pos, 2)
            proj = uniq[missed[pos]] @ units.T  # (block, R)
            # Only the box's entries can hold a row's best value or tie it.
            # In the plane units of _RADIUS's proof, the best candidate's
            # line passes within c of q and every left-out point's at least
            # d from q, c^2 = a (M - a) / M and d^2 = 9 / (M - 1); a line
            # passing t from q makes the angle asin(t / |q|) with v, |q| <= p.
            # As v . u = |v| cos(angle) and cos x - cos y = (sin^2 y -
            # sin^2 x) / (cos x + cos y), a left-out entry lies at least
            # (d^2 - c^2) / (2 p^2) |v| below the best: 23 / (12 p^2) |v|
            # for M = 3 (4.2e-6 |v| at p = 672), 17 / (4 p^2) |v| for M = 2.
            # Rounding (of the unit points and of a dot product of M terms)
            # moves an entry by at most about 1e-15 |v|, so while p <= 1e7
            # (a margin of 1.9e-14 |v|) and |v| is a normal double, no
            # left-out entry reaches the best one's bits. Candidates come in
            # lattice order, so the first with those bits is the argmax.
            value[pos] = proj[np.arange(pos.size)[:, None], cells[pos]]
        value[~inside] = -np.inf
        top = value.max(axis=1)
        is_top = value == top[:, None]
        pick = cells[np.arange(missed.size), is_top.argmax(axis=1)]
        tied = is_top.sum(axis=1) > 1
        rows = zip(missed.tolist(), boxed.tolist(), pick.tolist(), top.tolist(), tied.tolist())
        for j, (i, has_box, first, peak, tie) in enumerate(rows):
            if not has_box:
                found[i] = (0, 0.0, np.arange(len(units)))
            else:
                found[i] = (first, peak, cells[j, is_top[j]] if tie else None)
    memo.clear()
    memo.update(zip(keys, found))

    chosen = np.array([hit[0] for hit in found], dtype=np.intp)
    best = np.array([hit[1] for hit in found])
    for i, (_, _, ties) in enumerate(found):
        if ties is not None:
            chosen[i] = ties[rng.integers(ties.size)]

    # a tied pick has the same projection as the argmax, so best is exact
    residual = uniq - best[:, None] * units[chosen]
    dist = np.linalg.norm(residual, axis=1)
    return Association(ref_index=chosen[inverse], distance=dist[inverse])


def niching_select(
    selected_refs: np.ndarray,
    cand_refs: np.ndarray,
    cand_dists: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick ``k`` critical-front members by reference-point niching.

    ``selected_refs`` holds the reference indices of the already-selected
    individuals (their niche counts seed rho); ``cand_refs`` /
    ``cand_dists`` describe the critical-front candidates. Repeatedly takes
    an active reference point of minimal niche count (ties uniform, in
    lattice order); if it still has unselected candidates one is taken (the
    distance-minimal one while the niche is empty, a uniform one afterwards)
    and its count incremented, else the point is retired. Reference points with no candidates at all
    are retired up front; this does not change the distribution of
    outcomes, only skips the no-op visits.

    Only the points with candidates are counted. They sit in one list per
    niche count, in lattice order; a pick moves its point up one list by
    insertion in order, so each pick draws among the same points, with the
    same ``rng.integers`` calls, as a scan of all active points. A pool is
    intact while its count is 0, so its distance-minimal positions are
    found once, up front.

    Returns the chosen candidate indices in selection order.
    """
    cand_refs = np.asarray(cand_refs)
    cand_dists = np.asarray(cand_dists, dtype=float)
    n_cand = cand_refs.shape[0]
    if not 0 < k <= n_cand:
        raise ValueError(f"need 0 < k <= {n_cand} candidates, got k={k}")

    # one pool per reference point with candidates, in lattice order, each
    # in population order
    order = np.argsort(cand_refs, kind="stable")
    grouped = cand_refs[order]
    starts = np.flatnonzero(np.r_[True, grouped[1:] != grouped[:-1]])
    sizes = np.diff(np.r_[starts, n_cand])
    points = grouped[starts]
    flat = order.tolist()
    pools = [flat[a : a + s] for a, s in zip(starts.tolist(), sizes.tolist())]

    # each pool's distance-minimal positions, as runs of one flat list
    dists = cand_dists[order]
    near = dists == np.repeat(np.minimum.reduceat(dists, starts), sizes)
    near_pos = (np.arange(n_cand) - np.repeat(starts, sizes))[near].tolist()
    near_count = np.add.reduceat(near, starts)
    near_start = (np.cumsum(near_count) - near_count).tolist()
    near_count = near_count.tolist()

    sel = np.sort(np.asarray(selected_refs))
    rho = np.searchsorted(sel, points, "right") - np.searchsorted(sel, points, "left")
    buckets: dict[int, list[int]] = {}
    for j, count in enumerate(rho.tolist()):
        buckets.setdefault(count, []).append(j)

    chosen: list[int] = []
    while len(chosen) < k:
        level = min(buckets)
        bucket = buckets[level]
        j = bucket.pop(int(rng.integers(len(bucket))) if len(bucket) > 1 else 0)
        if not bucket:
            del buckets[level]
        pool = pools[j]
        if not pool:
            continue
        if level == 0:
            c = near_count[j]
            pos = near_pos[near_start[j] + (int(rng.integers(c)) if c > 1 else 0)]
        else:
            pos = int(rng.integers(len(pool)))
        chosen.append(pool.pop(pos))
        insort(buckets.setdefault(level + 1, []), j)
    return np.array(chosen, dtype=np.int64)


def crowding_distance(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Crowding distances of one front (raw objective values).

    Boundary individuals per objective get infinite distance; interior ones
    accumulate the normalized gap between their sorted neighbors. The front
    is shuffled before each per-objective stable sort so duplicates do not
    inherit a stable-sort bias. An integer objective spanning less than
    2**15 is sorted on its offsets from its minimum as int16 (a radix sort);
    they order and tie as the float values do, so the order is the same.
    Gaps are taken in float.
    """
    values = np.atleast_2d(np.asarray(values))
    integer = values.dtype.kind in "biu"
    n = values.shape[0]
    dist = np.zeros(n)
    if n <= 2:
        dist[:] = np.inf
        return dist
    for column in np.array(values.T, dtype=float):
        perm = rng.permutation(n)
        key = column[perm]
        if integer and key.max() - key.min() < 2**15:
            # integer-valued floats less than 2**15 apart differ exactly
            key = (key - key.min()).astype(np.int16)
        order = perm[np.argsort(key, kind="stable")]
        lo = column[order[0]]
        hi = column[order[-1]]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if hi > lo:
            gaps = (column[order[2:]] - column[order[:-2]]) / (hi - lo)
            dist[order[1:-1]] += gaps
    return dist


def crowding_distance_select(
    values: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of the ``k`` largest-crowding-distance members (ties random)."""
    values = np.atleast_2d(np.asarray(values))
    n = values.shape[0]
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= {n} candidates, got k={k}")
    dist = crowding_distance(values, rng)
    perm = rng.permutation(n)
    ranked = perm[np.argsort(-dist[perm], kind="stable")]
    return ranked[:k]
