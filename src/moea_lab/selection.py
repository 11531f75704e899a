"""Survivor selection over all 2N parents and offspring, one front.

Two paths: reference-point association + niching (the NSGA-III route) and
crowding distance (the NSGA-II route). All random tie-breaks draw from the
run's generator in a fixed order (reference points in lattice order,
individuals in population order), so runs replay exactly.

Association scores each distinct normalized value only against the 36
(M = 3) lattice points of its candidate box from
``ReferencePointSet.nearest``, with one stacked BLAS product, so neither work
nor memory grows with the lattice and the engine never builds it. No entry
outside the box can reach the best one's bits. Each row is its own product,
so what it gets (its pick, its best projection and, for a tie row, its tie
set) depends only on its float64 bits and the lattice. The lattice keeps
those results for the distinct rows of association's last call, keyed by the
rows' bytes, and only rows it has not seen are scored: the population carries
over between generations, so most rows repeat. Keeping only the last call
bounds the record by one call's distinct rows; a longer history would find
few more repeats.

Ties are still read from the product's bits, so they can depend on the BLAS
build; ``ReferencePointSet.nearest`` has exact tie sets, but association on
it would draw a different stream, and that switch is still open.

Niching runs one niche count (level) at a time: a level's active points are
the points picked at the level before, in lattice order, so every pick draws
among the same points, with the same calls, as a scan of all active points
would. Its draws are replayed from one batch of 32-bit words
(``_replayed_draws``), word for word as numpy's bounded draw would take
them, and the generator ends in the state the scalar calls would leave.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .dominance import _distinct_rows
from .refpoints import _MAX_NEAREST_DIM, ReferencePointSet, _lattice_index, _units

__all__ = [
    "Association",
    "associate",
    "niching_select",
    "crowding_distance",
    "crowding_distance_select",
]


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
    the last call; only the vectors not found there are scored, each on its
    own candidate box from ``ReferencePointSet.nearest`` (see
    ``refpoints._RADIUS``), with unit vectors from ``refpoints._units``, so
    the work does not grow with the lattice. No entry outside the box can
    reach the best one's bits (the margin argument is next to the product),
    so the box's best value, its first candidate in lattice order with that
    value and the candidates tying with it are the whole lattice's max,
    argmax and ties. Lattice indices are computed only for those top
    entries. The record is then replaced by this call's vectors, so it
    never holds more than one call's distinct rows.

    Tie rows then draw one tie each, uniformly, in ascending row order,
    whether their result was recorded or computed, so the draws are those
    of a whole-matrix scan.

    A zero vector has no box; it projects to 0.0 on every line, so it ties
    on the whole lattice, at distance 0. The box is proven up to
    ``refpoints._MAX_NEAREST_DIM`` objectives, and a lattice of more raises
    ``ValueError`` (the engine makes 2 or 3); so do negative or non-finite
    values.
    """
    normalized = np.atleast_2d(np.asarray(normalized, dtype=float))
    if normalized.shape[1] != refs.dim:
        raise ValueError(f"normalized values must be rows of {refs.dim} coordinates")
    if refs.dim > _MAX_NEAREST_DIM:
        raise ValueError(f"association supports up to {_MAX_NEAREST_DIM} objectives")
    if not np.all(np.isfinite(normalized)) or np.any(normalized < 0):
        raise ValueError("normalized objective values must be finite and non-negative")

    uniq, inverse = _distinct_rows(normalized)
    # each row's bytes, as row.tobytes() gives them, from one void view
    keys = uniq.view(np.dtype((np.void, uniq.itemsize * refs.dim))).ravel().tolist()
    memo = refs._associations
    found = [memo.get(key) for key in keys]  # (top cells, their distances)
    missed = [i for i, hit in enumerate(found) if hit is None]
    if missed:
        fresh = uniq[missed]
        boxed = fresh.any(axis=1)  # a zero row has no box; it borrows all-ones'
        grid, on_simplex = refs._box(np.where(boxed[:, None], fresh, 1.0))
        units = _units(grid, refs.p)  # (rows, candidates, M)
        # Each row is doubled so that numpy makes a matrix-matrix call (a
        # one-row product is a matrix-vector call, whose last bits differ),
        # and the units go in transposed, the layout a whole-lattice product
        # gives BLAS.
        value = (np.repeat(fresh[:, None], 2, axis=1) @ units.transpose(0, 2, 1))[:, 0]
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
        value[~on_simplex] = -np.inf
        top = value.max(axis=1)
        row, col = np.nonzero(value == top[:, None])
        top_cells = _lattice_index([part[row, col] for part in grid], refs.p).tolist()
        residual = fresh[row] - top[row, None] * units[row, col]
        top_dist = np.linalg.norm(residual, axis=1).tolist()
        bounds = np.searchsorted(row, np.arange(1, len(missed))).tolist()
        spans = zip(missed, boxed.tolist(), [0] + bounds, bounds + [len(top_cells)])
        for i, has_box, a, b in spans:
            if has_box:
                found[i] = (top_cells[a:b], top_dist[a:b])
            else:  # every line, all at distance 0
                found[i] = (range(len(refs)), None)
    memo.clear()
    memo.update(zip(keys, found))

    chosen, dist = [], []
    for cells, dists in found:
        j = int(rng.integers(len(cells))) if len(cells) > 1 else 0
        chosen.append(cells[j])
        dist.append(0.0 if dists is None else dists[j])
    chosen = np.array(chosen, dtype=np.intp)
    return Association(ref_index=chosen[inverse], distance=np.array(dist)[inverse])


@contextmanager
def _replayed_draws(rng: np.random.Generator, size: int):
    """Yield ``below(b)``, which returns what ``int(rng.integers(b))`` would
    for 1 <= b < 2**32, drawing from one batch of ``size`` 32-bit words.

    numpy's bounded draw (Lemire 2019) is a fixed function of the
    generator's 32-bit words: word x gives (x * b) >> 32 unless its low 32
    bits, (x * b) % 2**32, fall below (2**32 - b) % b, in which case x is
    rejected and the next word is tried; b = 1 gives 0 and takes no word.
    A batch of ``rng.integers(0, 2**32, dtype=np.uint32)`` is that same word
    stream, so ``below`` replays the scalar calls from it, drawing another
    batch if it runs out. On exit the generator is reset to its state
    before the batch and advanced by exactly the words used, so it ends as
    the scalar calls would leave it.
    """
    state = rng.bit_generator.state
    words: list[int] = []
    used = 0

    def below(b: int) -> int:
        nonlocal used
        if b == 1:
            return 0
        while True:
            if used == len(words):
                words.extend(rng.integers(0, 2**32, size=max(size, 1), dtype=np.uint32).tolist())
            x = words[used] * b
            used += 1
            # x % 2**32 < b is the cheap test; the threshold is below b
            if (x & 0xFFFFFFFF) >= b or (x & 0xFFFFFFFF) >= (2**32 - b) % b:
                return x >> 32

    try:
        yield below
    finally:
        rng.bit_generator.state = state
        if used:
            rng.integers(0, 2**32, size=used, dtype=np.uint32)


def niching_select(
    cand_refs: np.ndarray,
    cand_dists: np.ndarray,
    k: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick ``k`` candidates by reference-point niching.

    ``cand_refs`` / ``cand_dists`` give each candidate's reference point and
    its distance to that point's line; in the engine the candidates are all
    2N parents and offspring, so every niche count starts at 0. Repeatedly
    takes an active reference point of minimal niche count (ties uniform, in
    lattice order); if it still has unselected candidates one is taken (the
    distance-minimal one while the niche is empty, a uniform one afterwards)
    and its count incremented, else the point is retired. Reference points
    with no candidates at all are retired up front; this does not change
    the distribution of outcomes, only skips the no-op visits.

    Only the points with candidates are counted, one niche count (level) at
    a time: every active point has the lowest count until the level ends,
    and the next level's points are those picked at this one, in lattice
    order, so each pick draws among the same points, with the same
    ``rng.integers`` calls, as a scan of all active points. A pool is
    intact while its count is 0, so its distance-minimal positions are
    found once, up front. The calls are replayed from one batch of words
    (``_replayed_draws``): the same values, and the same generator state
    after, as scalar ``rng.integers`` calls.

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
    flat = order.tolist()
    pools = [flat[a : a + s] for a, s in zip(starts.tolist(), sizes.tolist())]

    # each pool's distance-minimal positions, as runs of one flat list
    dists = cand_dists[order]
    near = dists == np.repeat(np.minimum.reduceat(dists, starts), sizes)
    near_pos = (np.arange(n_cand) - np.repeat(starts, sizes))[near].tolist()
    near_count = np.add.reduceat(near, starts)
    near_start = (np.cumsum(near_count) - near_count).tolist()
    near_count = near_count.tolist()

    level, active, picked = 0, list(range(len(pools))), []
    chosen: list[int] = []
    # at most one draw per retirement and two per pick, each one word
    # unless rejected
    with _replayed_draws(rng, 2 * k + len(pools)) as below:
        while len(chosen) < k:
            if not active:  # the level is done; the next holds its picks
                level, active, picked = level + 1, sorted(picked), []
            j = active.pop(below(len(active)))
            pool = pools[j]
            if not pool:
                continue
            if level == 0:
                pos = near_pos[near_start[j] + below(near_count[j])]
            else:
                pos = below(len(pool))
            chosen.append(pool.pop(pos))
            picked.append(j)
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
