"""Objective-space normalization with extreme points and nadir fallbacks.

Per selection step the procedure is: merge the running ideal/worst
estimates with the current values, pick one extreme point per objective by
an achievement scalarization function (ASF) over current values plus the
extremes carried from the previous iteration, try to estimate the nadir
point from the intercepts of the hyperplane through the extreme points,
and fall back to per-front maxima when the intercepts are unusable. The
normalized objectives are (f_j - ideal_j) / (nadir_j - ideal_j).
"""

from __future__ import annotations

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
    lo = values.min(axis=0)
    hi = values.max(axis=0)
    if state.ideal is not None:
        lo = np.minimum(state.ideal, lo)
    if state.worst is not None:
        hi = np.maximum(state.worst, hi)
    return replace(state, ideal=lo, worst=hi)


def extreme_point(j: int, candidates: np.ndarray, ideal: np.ndarray) -> np.ndarray:
    """ASF-minimal candidate for objective axis ``j``.

    ASF(z) = max_k (z_k - ideal_k) / w_k with w_j = 1 and w_k =
    ``ASF_OFF_AXIS_WEIGHT`` elsewhere; ties go to the first candidate in
    input order.
    """
    candidates = np.atleast_2d(np.asarray(candidates, dtype=float))
    if candidates.shape[0] == 0:
        raise ValueError("extreme point needs at least one candidate")
    weights = np.full(candidates.shape[1], ASF_OFF_AXIS_WEIGHT)
    weights[j] = 1.0
    asf = ((candidates - np.asarray(ideal, dtype=float)) / weights).max(axis=1)
    return candidates[int(np.argmin(asf))].copy()


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
    state: NormalizationState,
    values: np.ndarray,
    fronts: list[np.ndarray],
) -> tuple[np.ndarray, NormalizationState]:
    """Full normalization cascade for one selection step.

    ``values`` are the objective vectors the selection operates on (the
    already-selected individuals plus the critical front); ``fronts`` are
    the objective values of the ranked fronts of the whole combined
    population (fronts[0] first). Returns ``values`` normalized, as
    (values - ideal) / (nadir - ideal), and the updated state (new
    ideal/worst, carried extremes, nadir).

    Nadir cascade: hyperplane intercepts when the extreme points span a
    plane and every intercept I_j satisfies eps <= I_j <= worst_j; else the
    per-objective maximum over the first front; any objective still within
    eps of the ideal falls back to the maximum over all fronts; if that
    still leaves no spread, the population is degenerate and an error is
    raised.
    """
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if values.shape[0] == 0:
        raise ValueError("objective value batch must be non-empty")
    state = update_ideal_and_worst(state, values)
    ideal = state.ideal
    worst = state.worst
    eps = EPSILON_NADIR

    if state.extremes is not None:
        candidates = np.concatenate([values, state.extremes], axis=0)
    else:
        candidates = values
    m = values.shape[1]
    extremes = np.stack([extreme_point(j, candidates, ideal) for j in range(m)])

    valid, intercepts = hyperplane_intercepts(extremes, ideal)
    if valid and np.all((intercepts >= eps) & (intercepts <= worst)):
        nadir = intercepts.copy()
    else:
        nadir = np.asarray(fronts[0], dtype=float).max(axis=0)

    low = np.flatnonzero(nadir < ideal + eps)
    if low.size:
        all_values = np.concatenate([np.atleast_2d(f) for f in fronts], axis=0)
        nadir[low] = all_values[:, low].max(axis=0)

    still_flat = np.flatnonzero(nadir < ideal + eps)
    if still_flat.size:
        raise DegeneratePopulationError(
            "no spread in objective(s) "
            f"{still_flat.tolist()}: ideal={ideal.tolist()}, "
            f"nadir={nadir.tolist()} after all fallbacks"
        )

    state = replace(state, extremes=extremes, nadir=nadir)
    return (values - ideal) / (nadir - ideal), state
