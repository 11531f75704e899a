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

    An individual's rank depends only on its objective value, so ranks are
    computed once per distinct value (``_distinct_rows``) and broadcast to
    duplicates. The U distinct values are peeled layer by layer with the
    classic O(M * U^2) domination-count scheme; the strict-domination matrix
    is built one objective at a time, so no (U, U, M) temporary exists. A
    Kung/Jensen sweep would take O(U log U) for M <= 3, but on OneMinMax and
    3-OMM every value is Pareto-optimal, so U is at most the front size
    (441 for 3-OMM at n = 40) and the peeling ends after one layer.
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

    uniq, inverse = _distinct_rows(work)
    u = uniq.shape[0]

    # strict[i, j]: distinct value i strictly dominates distinct value j
    strict = uniq[:, None, 0] <= uniq[None, :, 0]
    for j in range(1, uniq.shape[1]):
        strict &= uniq[:, None, j] <= uniq[None, :, j]
    np.fill_diagonal(strict, False)  # distinct rows: <= plus i != j implies strict

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


def _distinct_rows(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Distinct rows in lexicographic order, and each row's index among them.

    The same result as ``np.unique(values, axis=0, return_inverse=True)``
    with the inverse flattened, from one ``np.lexsort`` of the columns
    instead of a sort of the rows as a structured dtype.
    """
    values = np.asarray(values)
    order = np.lexsort(values.T[::-1])  # lexsort's last key is the primary one
    ordered = values[order]
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.any(ordered[1:] != ordered[:-1], axis=1, out=first[1:])
    inverse = np.empty(len(ordered), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse
