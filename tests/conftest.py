import numpy as np
import pytest


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
        a, b = -a, -b
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


@pytest.fixture
def all_heads():
    return RiggedSource(0.0)


@pytest.fixture
def all_tails():
    return RiggedSource(0.99)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
