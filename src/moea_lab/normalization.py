"""Objective-space normalization with extreme points and nadir fallbacks.

Per selection step the procedure is: merge the running ideal/worst
estimates with the current values, pick one extreme point per objective by
an achievement scalarization function (ASF) over current values plus the
extremes kept from the previous iteration, try to estimate the nadir
point from the intercepts of the hyperplane through the extreme points,
and fall back to the current values' maxima where the intercepts are
unusable. The normalized objectives are (f_j - ideal_j) / (nadir_j -
ideal_j).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "DegeneratePopulationError",
    "NormalizationState",
    "update_ideal_and_worst",
    "extreme_point",
    "hyperplane_intercepts",
    "normalize",
]

EPSILON_NADIR = 1e-6
ASF_OFF_AXIS_WEIGHT = 1e-6
PIVOT_TOLERANCE = 1e-12


class DegeneratePopulationError(RuntimeError):
    """Raised when some objective has no spread even after all fallbacks."""


@dataclass(frozen=True)
class NormalizationState:
    """Running normalization bookkeeping owned by a single run.

    ``ideal`` / ``worst`` are the per-objective running min / max over all
    generations. ``extremes`` carries the extreme points chosen in the
    previous iteration (None before the first call). ``nadir`` is the
    estimate produced by the most recent call; with ``ideal`` it defines
    that call's map (f - ideal) / (nadir - ideal).
    """

    ideal: np.ndarray | None = None
    worst: np.ndarray | None = None
    extremes: np.ndarray | None = None  # (M, M) or None
    nadir: np.ndarray | None = None


def update_ideal_and_worst(
    state: NormalizationState, values: np.ndarray
) -> NormalizationState:
    """Merge per-objective running min/max with a batch of objective values."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 0:
        raise ValueError("objective value batch must be non-empty")
    lo = np.array([column.min() for column in values.T])
    hi = np.array([column.max() for column in values.T])
    if state.ideal is not None:
        lo = np.minimum(state.ideal, lo)
    if state.worst is not None:
        hi = np.maximum(state.worst, hi)
    return replace(state, ideal=lo, worst=hi)


def extreme_point(j: int, candidates: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """ASF-minimal candidate for objective axis ``j``.

    ASF(z) = max_k (z_k - ideal_k) / w_k with w_j = 1 and w_k =
    ``ASF_OFF_AXIS_WEIGHT`` elsewhere; ties go to the first candidate in
    input order. Each term is one column operation and a max is exact, so
    no pass runs over the short row axis.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    if candidates.shape[0] == 0:
        raise ValueError("extreme point needs at least one candidate")
    ideal = np.broadcast_to(np.asarray(ideal, dtype=float), candidates.shape[1:])
    terms = [
        (column - low) / (1.0 if k == j else ASF_OFF_AXIS_WEIGHT)
        for k, (column, low) in enumerate(zip(candidates.T, ideal))
    ]
    return candidates[int(np.argmin(functools.reduce(np.maximum, terms)))].copy()


def hyperplane_intercepts(
    extremes: np.ndarray, ideal: np.ndarray
) -> tuple[bool, np.ndarray]:
    """Axis intercepts of the hyperplane through the extreme points.

    The plane normal is found from the ideal-translated extremes (solving
    B y = 1 for B = extremes - ideal, Gaussian elimination with partial
    pivoting); the reported value is where that plane, through the
    original extreme points, crosses the jth objective axis:
    I_j = (1 + y . ideal) / y_j. Returns (False, zeros) when the
    translated extremes are linearly dependent or the solve is numerically
    singular (any pivot below 1e-12); invalidity is a flag, not an error.
    """
    extremes = np.atleast_2d(np.asarray(extremes, dtype=float))
    ideal = np.asarray(ideal, dtype=float)
    m = extremes.shape[1]
    if extremes.shape[0] != m:
        raise ValueError(f"expected {m} extreme points, got {extremes.shape[0]}")
    a = extremes - ideal
    rhs = np.ones(m)

    # partial-pivot Gaussian elimination; tiny pivot => dependent extremes
    a = a.copy()
    for col in range(m):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot_row, col]) < PIVOT_TOLERANCE:
            return False, np.zeros(m)
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            rhs[[col, pivot_row]] = rhs[[pivot_row, col]]
        factor = a[col + 1 :, col] / a[col, col]
        a[col + 1 :] -= factor[:, None] * a[col]
        rhs[col + 1 :] -= factor * rhs[col]
    x = np.zeros(m)
    for col in range(m - 1, -1, -1):
        x[col] = (rhs[col] - a[col, col + 1 :] @ x[col + 1 :]) / a[col, col]

    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        intercepts = (1.0 + float(x @ ideal)) / x
    return True, intercepts


def normalize(
    state: NormalizationState, values: np.ndarray
) -> tuple[np.ndarray, NormalizationState]:
    """Full normalization cascade for one selection step.

    ``values`` are the objective vectors the selection operates on, all 2N
    parents and offspring in the engine. Returns ``values`` normalized, as
    (values - ideal) / (nadir - ideal), and the updated state (new
    ideal/worst, extremes, nadir).

    Nadir cascade, in two steps: the hyperplane intercepts when the extreme
    points span a plane and every intercept I_j satisfies eps <= I_j <=
    worst_j, else the per-objective maximum of ``values``; then any
    objective still within eps of the ideal takes that maximum too. If that
    still leaves no spread, the population is degenerate and an error is
    raised.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    state = update_ideal_and_worst(state, values)  # refuses an empty batch
    ideal = state.ideal
    worst = state.worst
    eps = EPSILON_NADIR

    candidates = values if state.extremes is None else np.concatenate([values, state.extremes])
    m = values.shape[1]
    extremes = np.stack([extreme_point(j, candidates, ideal) for j in range(m)])

    nadir = np.array([column.max() for column in values.T])
    valid, intercepts = hyperplane_intercepts(extremes, ideal)
    if valid and np.all((intercepts >= eps) & (intercepts <= worst)):
        nadir = np.where(intercepts < ideal + eps, nadir, intercepts)

    still_flat = np.flatnonzero(nadir < ideal + eps)
    if still_flat.size:
        raise DegeneratePopulationError(
            "no spread in objective(s) "
            f"{still_flat.tolist()}: ideal={ideal.tolist()}, "
            f"nadir={nadir.tolist()} after all fallbacks"
        )

    state = replace(state, extremes=extremes, nadir=nadir)
    return (values - ideal) / (nadir - ideal), state
