"""Survivor selection on the critical front.

Two paths: reference-point association + niching (the NSGA-III route) and
crowding distance (the NSGA-II route). All random tie-breaks draw from the
run's generator in a fixed order (reference points in lattice order,
individuals in population order), so runs replay exactly.

Association scores every distinct normalized value against every reference
line with one BLAS matrix product, computed a few rows at a time
(``_ROW_BLOCK``), so memory is a block of rows times the lattice, not values
times the lattice. A block never has a single row: numpy computes a one-row
product as a matrix-vector call whose last bits can differ, and those bits
decide which lines tie. Ties are still read from the product's bits, so they
can depend on the BLAS build; ``ReferencePointSet.nearest`` has exact tie
sets, but association on it would draw a different stream, and that switch
is still open.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dominance import _distinct_rows
from .refpoints import ReferencePointSet

__all__ = [
    "Association",
    "associate",
    "niching_select",
    "crowding_distance",
    "crowding_distance_select",
]

# Rows of the (distinct values x reference points) product held at once.
# np.array_split into len // _ROW_BLOCK blocks gives blocks of 8 to 15 rows,
# and a single row only when there is one value (see the module docstring).
# On the 3-OMM fronts of the golden runs and the benchmark, every block
# length from 2 to 32 drew as the whole product did; length 1 did not.
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
    projection v . r_unit. The projections of the distinct vectors are
    computed in row blocks (see ``_ROW_BLOCK``). In each block one
    ``argmax`` gives every row's pick and best value; masking the picks and
    taking one more ``max`` finds the rows whose best value occurs twice,
    and only those rows list their ties and draw one uniformly. Rows are
    visited in ascending order, one draw per tie row, so the draws are
    those of a whole-matrix scan.
    """
    normalized = np.atleast_2d(np.asarray(normalized, dtype=float))
    if not np.all(np.isfinite(normalized)):
        raise ValueError("normalized objective values must be finite")
    if len(refs) == 0:
        raise ValueError("reference point set must be non-empty")

    uniq, inverse = _distinct_rows(normalized)
    units = refs.unit_points  # (R, M)
    chosen = np.empty(len(uniq), dtype=np.intp)
    best = np.empty(len(uniq))
    for rows in np.array_split(np.arange(len(uniq)), max(1, len(uniq) // _ROW_BLOCK)):
        proj = uniq[rows] @ units.T  # (block, R)
        local = np.arange(rows.size)
        pick = np.argmax(proj, axis=1)
        top = proj[local, pick]
        proj[local, pick] = -np.inf
        tied = np.flatnonzero(proj.max(axis=1) == top)
        proj[local, pick] = top
        for i in tied:
            ties = np.flatnonzero(proj[i] == top[i])
            pick[i] = ties[rng.integers(ties.size)]
        chosen[rows] = pick
        best[rows] = top

    # a tied pick has the same projection as the argmax, so best is exact
    residual = uniq - best[:, None] * units[chosen]
    dist = np.linalg.norm(residual, axis=1)
    return Association(ref_index=chosen[inverse], distance=dist[inverse])


def niching_select(
    selected_refs: np.ndarray,
    cand_refs: np.ndarray,
    cand_dists: np.ndarray,
    k: int,
    refs: ReferencePointSet,
    rng: np.random.Generator,
) -> np.ndarray:
    """Pick ``k`` critical-front members by reference-point niching.

    ``selected_refs`` holds the reference indices of the already-selected
    individuals (their niche counts seed rho); ``cand_refs`` /
    ``cand_dists`` describe the critical-front candidates. Repeatedly takes
    an active reference point of minimal niche count (ties uniform); if it
    still has unselected candidates one is taken (the distance-minimal one
    while the niche is empty, a uniform one afterwards) and its count
    incremented, else the point is retired. Reference points with no
    candidates at all are retired up front; this does not change the
    distribution of outcomes, only skips the no-op visits.

    Returns the chosen candidate indices in selection order.
    """
    cand_refs = np.asarray(cand_refs)
    cand_dists = np.asarray(cand_dists, dtype=float)
    n_cand = cand_refs.shape[0]
    if not 0 < k <= n_cand:
        raise ValueError(f"need 0 < k <= {n_cand} candidates, got k={k}")

    rho = np.zeros(len(refs), dtype=np.int64)
    sel = np.asarray(selected_refs)
    if sel.size:
        np.add.at(rho, sel, 1)

    # per-reference-point candidate pools, population order preserved
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


def crowding_distance(values: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Crowding distances of one front (raw objective values).

    Boundary individuals per objective get infinite distance; interior ones
    accumulate the normalized gap between their sorted neighbors. The front
    is shuffled before each per-objective stable sort so duplicates do not
    inherit a stable-sort bias.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n, m = values.shape
    dist = np.zeros(n)
    if n <= 2:
        dist[:] = np.inf
        return dist
    for j in range(m):
        perm = rng.permutation(n)
        order = perm[np.argsort(values[perm, j], kind="stable")]
        lo = values[order[0], j]
        hi = values[order[-1], j]
        dist[order[0]] = np.inf
        dist[order[-1]] = np.inf
        if hi > lo:
            gaps = (values[order[2:], j] - values[order[:-2], j]) / (hi - lo)
            dist[order[1:-1]] += gaps
    return dist


def crowding_distance_select(
    values: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """Indices of the ``k`` largest-crowding-distance members (ties random)."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    n = values.shape[0]
    if not 0 < k <= n:
        raise ValueError(f"need 0 < k <= {n} candidates, got k={k}")
    dist = crowding_distance(values, rng)
    perm = rng.permutation(n)
    ranked = perm[np.argsort(-dist[perm], kind="stable")]
    return ranked[:k]
