"""Fast non-dominated sorting into ranks."""

from __future__ import annotations

import functools
import math

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
    is built one objective at a time, compared in ``sense``'s direction (no
    negation, which would wrap unsigned values), so no (U, U, M) temporary
    exists.

    Integer or bool rows whose sums are all equal form one front, found
    without the matrix: a row that strictly dominates another has the
    strictly larger sum (``"max"``) or smaller sum (``"min"``). The sums are
    taken in int64 only when M * max|value| < 2**63, so they are exact;
    float sums can round equal for rows that dominate. OneMinMax and 3-OMM
    values always sum to n, so their populations never build the matrix,
    which leaves no reason for a Kung/Jensen sweep (O(U log U) for M <= 3).
    """
    values = np.atleast_2d(np.asarray(values))
    if values.shape[0] == 0:
        raise ValueError("population must be non-empty")
    if sense not in ("min", "max"):
        raise ValueError(f"sense must be 'min' or 'max', got {sense!r}")
    if values.dtype.kind in "biu" and values.size:
        bound = max(int(values.max()), -int(values.min()))
        if values.shape[1] * bound < 2**63:
            sums = functools.reduce(np.add, [c.astype(np.int64) for c in values.T])
            if np.all(sums == sums[0]):
                return [np.arange(values.shape[0])]
    at_least_as_good = np.less_equal if sense == "min" else np.greater_equal

    uniq, inverse = _distinct_rows(values)
    u = uniq.shape[0]

    # strict[i, j]: distinct value i strictly dominates distinct value j
    strict = at_least_as_good(uniq[:, None, 0], uniq[None, :, 0])
    for j in range(1, uniq.shape[1]):
        strict &= at_least_as_good(uniq[:, None, j], uniq[None, :, j])
    np.fill_diagonal(strict, False)  # distinct rows: as good everywhere and i != j implies strict

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
    with the inverse flattened. Integer and bool rows are sorted as one
    ``_box_codes`` code each over their own min..max box; float rows, and
    boxes too large for int64, by one ``np.lexsort`` of the columns.
    """
    values = np.asarray(values)
    columns = values.T
    codes = None
    if values.dtype.kind in "biu" and values.size:
        codes = _box_codes(columns, [c.min() for c in columns], [c.max() for c in columns])
    if codes is None:
        order = np.lexsort(columns[::-1])  # lexsort's last key is the primary one
        ordered = [column[order] for column in columns]
        changed = functools.reduce(np.logical_or, [c[1:] != c[:-1] for c in ordered])
    else:
        order = np.argsort(codes)  # equal codes are equal rows, so any sort will do
        ordered = codes[order]
        changed = ordered[1:] != ordered[:-1]
    first = np.empty(len(order), dtype=bool)
    first[:1] = True
    first[1:] = changed
    inverse = np.empty(len(order), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return values[order[first]], inverse


def _box_codes(columns, lo, hi) -> np.ndarray | None:
    """Mixed-radix int64 code of each row of integer or bool ``columns`` in
    the box lo..hi they lie in, first column most significant, so codes sort
    as the rows do; None if the box has more cells than int64 can count.
    Offsets from lo are taken in int64 with wrap-around: exact, as each fits."""
    spans = [int(b) - int(a) + 1 for a, b in zip(lo, hi)]
    if math.prod(spans) > np.iinfo(np.int64).max:
        return None
    codes = np.subtract(columns[0], lo[0], dtype=np.int64, casting="unsafe")
    for column, low, span in zip(columns[1:], lo[1:], spans[1:]):
        codes *= span
        codes += np.subtract(column, low, dtype=np.int64, casting="unsafe")
    return codes
