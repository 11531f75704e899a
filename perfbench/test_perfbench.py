"""Tests of the benchmark itself: tracing leaves runs unchanged, self times
add up, and every output check catches a doctored output."""

import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from moea_lab import analysis, engine  # noqa: E402
from moea_lab.analysis import AngleReport, MinimalPResult, RunRecord  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "nsga3": workloads.EngineWorkload(
        dict(problem="3omm", n=8, pop_size=25, algorithm="nsga3", divisions=168),
        generations=6, no_loss=True),
    "nsga3-xover": workloads.EngineWorkload(
        dict(problem="3omm", n=10, pop_size=36, algorithm="nsga3", divisions=20,
             crossover_rate=0.9),
        generations=6, no_loss=True),
    "nsga2": workloads.EngineWorkload(
        dict(problem="3omm", n=8, pop_size=25, algorithm="nsga2"),
        generations=6, no_loss=False),
    "verify": workloads.VerifyGrid(verify_ns=(4, 8), search_ns=(4,)),
}


def _records(n=8, **kw):
    config = engine.RunConfig(problem="3omm", n=n, pop_size=(n // 2 + 1) ** 2,
                              algorithm="nsga3", divisions=21 * n, max_iterations=8,
                              seed=[3, 0], **kw)
    return list(engine.run(config))


@pytest.mark.parametrize("name", sorted(SMALL))
def test_traced_round_matches_untraced(name):
    plain = SMALL[name].run_round(seed=7, index=0)
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        traced = SMALL[name].run_round(seed=7, index=0, tracer=tracer)
    assert plain.failed == traced.failed == 0, plain.errors + traced.errors
    assert traced.digest == plain.digest
    assert tracer.spans
    assert engine.associate.__module__ == "moea_lab.selection"  # originals restored
    assert analysis.verify_unique_association.__name__ == "verify_unique_association"


@pytest.mark.parametrize("name", sorted(SMALL))
def test_self_times_sum_to_traced_total(name):
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        round_ = SMALL[name].run_round(seed=1, index=0, tracer=tracer)
    for operations_only in (False, True):
        times, _ = tracer.self_ns(operations_only)
        assert all(t >= 0 for t in times.values())
        assert sum(times.values()) == tracer.root_ns(operations_only)
    metrics = workloads.per_layer(tracer, [round_], getattr(SMALL[name], "generations", None))
    if name == "nsga2":
        assert metrics["selection.associate_ms"][0] == 0
        assert metrics["selection.niching_ms"][0] == 0
    if name.startswith("nsga"):
        assert metrics["problems.evaluate_calls"][0] == 2


def test_verify_calls_inside_a_search_count_as_the_search():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        with tracer.span("bench", operation=True):
            result = analysis.minimal_p_search(8, 168)
    _, calls = tracer.self_ns()
    scanned = result.p_min  # the scan starts at p = 1
    assert tracer.counts["analysis.min_p_scanned"] == scanned
    assert calls["analysis.min_p"] == scanned + 1
    assert calls["analysis.verify"] == 0


def test_clean_stream_passes():
    checker = checks.RecordChecker(8, no_loss=True)
    for rec in _records():
        assert checker.check(rec) == []


def _doctored(records, iteration, **changes):
    return [replace(r, **changes) if r.iteration == iteration else r for r in records]


@pytest.mark.parametrize(
    "changes",
    [
        dict(losses_cum=1),  # a loss in an NSGA-III run
        dict(new_values=((9, 0, 0),)),  # sum is not n
        dict(new_values=((0, 5, 3),)),  # second objective above n/2
        dict(new_values=((4.0, 2, 2),)),  # not an integer
        dict(front_size=24),
        dict(covered=0),
    ],
)
def test_doctored_record_fails(changes):
    records = _doctored(_records(), 3, **changes)
    checker = checks.RecordChecker(8, no_loss=True)
    assert any(checker.check(r) for r in records)


def test_value_reported_twice_without_loss_fails():
    records = _records()
    first = next(r for r in records if r.new_values)
    again = replace(records[-1], new_values=records[-1].new_values + first.new_values[:1],
                    covered=records[-1].covered + 1)
    checker = checks.RecordChecker(8, no_loss=False)
    assert any(checker.check(r) for r in records[:-1] + [again])


def test_nsga2_end_checks():
    last = RunRecord("r", 100, covered=300, front_size=441, losses_cum=0)
    checker = checks.RecordChecker(40, no_loss=False, never_full=True, end_below=300)
    assert len(checker.finish(last)) == 2
    assert checker.finish(replace(last, covered=299, losses_cum=5)) == []
    full = RunRecord("r", 0, covered=441, front_size=441,
                     new_values=tuple((40 - a - b, a, b) for a in range(21) for b in range(21)))
    assert any("full coverage" in e for e in checker.check(full))


def test_angle_report_checks():
    n, p = 8, 168
    good = analysis.verify_unique_association(n, p)
    assert checks.check_angle_report(good, n, p) == []
    too_wide = math.acos(1 - 18 / p**2) * 1.01
    for bad in (replace(good, collisions=1, separated=False), replace(good, separated=False),
                replace(good, max_assoc_angle=too_wide), replace(good, p=p + 1)):
        assert checks.check_angle_report(bad, n, p)
    loose = AngleReport(n, 38, 0.1, 0.2, separated=False, collisions=2)
    assert checks.check_angle_report(loose, n, 38) == []


def test_min_p_checks():
    n = 16
    good = analysis.minimal_p_search(n, 21 * n)
    assert checks.check_min_p(good, n, 21 * n) == []
    for p_min in (None, 11, 21 * n + 1):
        bad = MinimalPResult(n, p_min, lower_bound=12, p_searched_max=21 * n)
        assert checks.check_min_p(bad, n, 21 * n)


def test_nearest_rank_ignores_round_count():
    mix = [1.0, 2.0, 5.0, 9.0, 30.0, 70.0, 100.0, 400.0, 900.0, 1500.0]
    picks = {workloads.nearest_rank(mix * rounds, 0.9) for rounds in (1, 2, 3, 5)}
    assert picks == {900.0}
