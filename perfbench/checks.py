"""Output checks for the benchmark, computed apart from the package.

Every expected quantity here is derived from the problem's definition
(3-OMM on n bits: values (n - a - b, a, b) with 0 <= a, b <= n/2), never
from moea_lab's own front enumeration or verifier. Each check returns a
list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import math

# float rounding in arccos of a cosine within one ulp of 1
ANGLE_SLACK = 1e-12


def front_size(n: int) -> int:
    return (n // 2 + 1) ** 2


def is_front_value(value, n: int) -> bool:
    """A 3-OMM front value: non-negative ints summing to n, last two <= n/2."""
    return (
        len(value) == 3
        and all(isinstance(v, int) and v >= 0 for v in value)
        and sum(value) == n
        and value[1] <= n // 2
        and value[2] <= n // 2
    )


class RecordChecker:
    """Checks one engine run's RunRecord stream, record by record.

    ``no_loss`` demands ``losses_cum == 0`` throughout (NSGA-III at
    N >= (n/2+1)^2). ``never_full`` demands that the front is never fully
    covered, and ``end_below`` bounds the coverage of the last record.
    """

    def __init__(self, n: int, no_loss: bool, never_full: bool = False,
                 end_below: int | None = None):
        self.n = n
        self.no_loss = no_loss
        self.never_full = never_full
        self.end_below = end_below
        self.seen: set[tuple[int, ...]] = set()
        self.reported = 0  # new values summed over records; a value found again counts again
        self.found_again = 0
        self.losses = 0

    def check(self, rec) -> list[str]:
        errors = []
        size = front_size(self.n)
        if rec.front_size != size:
            errors.append(f"front_size {rec.front_size} != {size}")
        if len(set(rec.new_values)) != len(rec.new_values):
            errors.append(f"iteration {rec.iteration}: duplicate new values")
        for value in rec.new_values:
            if not is_front_value(value, self.n):
                errors.append(f"iteration {rec.iteration}: invalid front value {value}")
            elif value in self.seen:
                self.found_again += 1
        self.seen.update(rec.new_values)
        self.reported += len(rec.new_values)
        if rec.losses_cum < self.losses:
            errors.append(f"iteration {rec.iteration}: losses_cum decreased")
        self.losses = rec.losses_cum
        # a value may be reported new again only after it was lost
        if self.found_again > rec.losses_cum:
            errors.append(
                f"iteration {rec.iteration}: a value reported new was already covered"
            )
        if rec.covered != self.reported - rec.losses_cum:
            errors.append(
                f"iteration {rec.iteration}: covered {rec.covered} != "
                f"{self.reported} reported - {rec.losses_cum} lost"
            )
        if self.no_loss and rec.losses_cum != 0:
            errors.append(f"iteration {rec.iteration}: losses_cum {rec.losses_cum} != 0")
        if self.never_full and rec.covered >= size:
            errors.append(f"iteration {rec.iteration}: full coverage reached")
        return errors

    def finish(self, last) -> list[str]:
        """End-of-run checks on the last record."""
        errors = []
        if self.end_below is not None and last.covered >= self.end_below:
            errors.append(f"ends at {last.covered} covered, expected < {self.end_below}")
        if self.never_full and last.losses_cum == 0:
            errors.append("no loss in the whole run")
        return errors


def check_angle_report(report, n: int, p: int) -> list[str]:
    """Sanity of any report; at p >= 21n, the paper's unique-association claim."""
    errors = []
    if (report.n, report.p) != (n, p):
        errors.append(f"report for {(report.n, report.p)}, asked {(n, p)}")
    if not 0 <= report.collisions < front_size(n):
        errors.append(f"collisions {report.collisions} out of range")
    if not 0.0 <= report.max_assoc_angle <= math.pi:
        errors.append(f"max_assoc_angle {report.max_assoc_angle} out of range")
    if report.separated and report.collisions:
        errors.append("separated but collisions > 0")
    if p >= 21 * n:
        bound = math.acos(1 - 18 / p**2) + ANGLE_SLACK
        if report.collisions != 0:
            errors.append(f"n={n} p={p}: {report.collisions} collisions")
        if not report.separated:
            errors.append(f"n={n} p={p}: not separated")
        if report.max_assoc_angle > bound:
            errors.append(
                f"n={n} p={p}: max_assoc_angle {report.max_assoc_angle} > {bound}"
            )
    return errors


def check_min_p(result, n: int, p_max: int) -> list[str]:
    """ceil(n/sqrt 2) <= p_min <= p_max, and the lattice has enough points."""
    lower = math.ceil(n / math.sqrt(2))
    if result.p_min is None:
        return [f"n={n}: no collision-free p up to {p_max}"]
    errors = []
    if not lower <= result.p_min <= p_max:
        errors.append(f"n={n}: p_min {result.p_min} outside [{lower}, {p_max}]")
    if math.comb(result.p_min + 2, 2) < front_size(n):
        errors.append(f"n={n}: p_min {result.p_min} has fewer points than front values")
    return errors
