"""Fast non-dominated sorting into ranks."""

from __future__ import annotations

import numpy as np

__all__ = ["fast_nondominated_sort"]


def fast_nondominated_sort(values, sense: str = "min") -> list[np.ndarray]:
    """Partition a population into dominance ranks F1, F2, ...

    ``values`` is an (N, M) array of objective vectors. Returns a list of
    index arrays: fronts[0] holds the indices of all non-strictly-dominated
    individuals, fronts[1] those only dominated by fronts[0], and so on.
    Indices within a front keep the input order. Duplicated objective
    vectors never dominate each other and land in the same front.

    Uses the classic O(M * U^2) domination-count scheme on the U distinct
    objective vectors; an individual's rank depends only on its objective
    value, so ranks are computed once per distinct value and broadcast to
    duplicates.
    """
    values = np.atleast_2d(np.asarray(values))
    if values.shape[0] == 0:
        raise ValueError("population must be non-empty")
    if sense == "max":
        work = -values
    elif sense == "min":
        work = values
    else:
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")

    uniq, inverse = np.unique(work, axis=0, return_inverse=True)
    inverse = inverse.ravel()
    u = uniq.shape[0]

    # strict[i, j]: distinct value i strictly dominates distinct value j
    le = np.all(uniq[:, None, :] <= uniq[None, :, :], axis=2)
    np.fill_diagonal(le, False)  # distinct rows: <= plus i != j implies strict
    strict = le

    remaining = strict.sum(axis=0).astype(np.int64)
    rank = np.full(u, -1, dtype=np.int64)
    unassigned = np.ones(u, dtype=bool)
    level = 0
    while unassigned.any():
        current = np.flatnonzero(unassigned & (remaining == 0))
        rank[current] = level
        unassigned[current] = False
        remaining -= strict[current].sum(axis=0)
        level += 1

    ind_rank = rank[inverse]
    return [np.flatnonzero(ind_rank == lvl) for lvl in range(level)]
