"""Survivor selection on the critical front.

Two paths: reference-point association + niching (the NSGA-III route) and
crowding distance (the NSGA-II route). All random tie-breaks draw from the
run's generator in a fixed order (reference points in lattice order,
individuals in population order), so runs replay exactly.
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
    """Map each normalized objective vector to its nearest reference line."""
    normalized = np.atleast_2d(np.asarray(normalized, dtype=float))
    if not np.all(np.isfinite(normalized)):
        raise ValueError("normalized objective values must be finite")
    if len(refs) == 0:
        raise ValueError("reference point set must be non-empty")

    uniq, inverse = _distinct_rows(normalized)

    units = refs.unit_points  # (R, M)
    # perpendicular distance^2 = |v|^2 - (v . r_unit)^2 with v >= 0, so the
    # nearest line maximizes the projection v . r_unit
    proj = uniq @ units.T  # (U, R)
    best = proj.max(axis=1)
    chosen = np.argmax(proj, axis=1)

    tie_rows = np.flatnonzero((proj == best[:, None]).sum(axis=1) > 1)
    for i in tie_rows:
        ties = np.flatnonzero(proj[i] == best[i])
        chosen[i] = ties[rng.integers(ties.size)]

    residual = uniq - proj[np.arange(len(chosen)), chosen, None] * units[chosen]
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
