"""The benchmark's workloads, run through moea_lab's public API.

One operation is one generation on the engine workloads (one ``next`` on
``engine.run``) and one report or one search on ``verify-grid``. A round
is a workload's fixed set of operations: a fresh engine run with a fixed
generation budget and ``stop="iters"``, or the whole verifier grid. Each
operation is timed from outside and its output checked by ``checks``.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np

from moea_lab import analysis, engine

import checks


@dataclass
class Round:
    op_s: list[float] = field(default_factory=list)
    failed: int = 0
    iters_to_cover: int | None = None
    errors: list[str] = field(default_factory=list)
    digest: str = ""


def _untraced(layer, operation=False):
    return nullcontext()


@dataclass(frozen=True)
class EngineWorkload:
    """NSGA-II or NSGA-III on 3-OMM with a fixed generation budget."""

    config: dict
    generations: int
    no_loss: bool
    never_full: bool = False
    end_below: int | None = None

    @property
    def ops_per_round(self) -> int:
        return self.generations

    def _config(self, seed: int, index: int) -> engine.RunConfig:
        return engine.RunConfig(
            **self.config,
            max_iterations=self.generations,
            stop="iters",
            seed=[seed, index],
            run_id=f"bench{index}",
        )

    def set_up(self, seed: int, index: int) -> float:
        """Seconds from ``engine.run`` to its initial record (lattice, front,
        initial population and its coverage)."""
        t0 = time.perf_counter()
        records = engine.run(self._config(seed, index))
        next(records)
        elapsed = time.perf_counter() - t0
        records.close()
        return elapsed

    def run_round(self, seed: int, index: int, tracer=None) -> Round:
        span = tracer.span if tracer is not None else _untraced
        checker = checks.RecordChecker(
            self.config["n"], self.no_loss, self.never_full, self.end_below
        )
        digest = hashlib.sha256()
        records = engine.run(self._config(seed, index))
        try:
            with span("engine"):
                rec = next(records)
        except Exception as exc:  # the whole round is lost
            return Round(failed=self.generations, errors=[f"set-up: {exc!r}"])
        result = Round()
        # errors in the initial record count against the first generation
        pending = checker.check(rec)
        digest.update(_record_key(rec))
        for g in range(1, self.generations + 1):
            t0 = time.perf_counter()
            try:
                with span("engine", operation=True):
                    rec = next(records)
            except Exception as exc:
                result.failed += self.generations - g + 1
                result.errors.append(f"generation {g}: {exc!r}")
                break
            result.op_s.append(time.perf_counter() - t0)
            errors = pending + checker.check(rec)
            pending = []
            if rec.iteration != g:
                errors.append(f"record {rec.iteration} where {g} was due")
            if rec.covered == rec.front_size and result.iters_to_cover is None:
                result.iters_to_cover = rec.iteration
            if g == self.generations:
                errors += checker.finish(rec)
                if next(records, None) is not None:
                    errors.append("records continue past the generation budget")
            digest.update(_record_key(rec))
            result.failed += bool(errors)
            result.errors += errors
        records.close()
        result.digest = digest.hexdigest()
        return result


def _record_key(rec) -> bytes:
    """Everything in a record except its wall time."""
    return repr(
        (rec.iteration, rec.covered, rec.front_size, rec.new_values, rec.losses_cum)
    ).encode()


@dataclass(frozen=True)
class VerifyGrid:
    """Reports over an (n, p) grid plus minimal-p searches, order shuffled by seed."""

    verify_ns: tuple = (8, 16, 24, 32, 40)
    search_ns: tuple = (16, 24, 32, 40)

    def operations(self) -> list[tuple[str, int, int]]:
        ops = [
            ("verify", n, p)
            for n in self.verify_ns
            for p in (math.ceil(4.65 * n), 21 * n)
        ]
        return ops + [("min_p", n, 21 * n) for n in self.search_ns]

    @property
    def ops_per_round(self) -> int:
        return len(self.operations())

    def set_up(self, seed: int, index: int) -> float:
        """Nothing to set up: every operation builds its own lattice."""
        return 0.0

    def run_round(self, seed: int, index: int, tracer=None) -> Round:
        span = tracer.span if tracer is not None else _untraced
        ops = self.operations()
        order = np.random.default_rng([seed, index]).permutation(len(ops))
        result = Round()
        outputs = {}
        for i in order:
            kind, n, p = ops[i]
            call = analysis.verify_unique_association if kind == "verify" \
                else analysis.minimal_p_search
            t0 = time.perf_counter()
            try:
                with span("bench", operation=True):
                    out = call(n, p)
            except Exception as exc:
                result.failed += 1
                result.errors.append(f"{kind}({n}, {p}): {exc!r}")
                continue
            result.op_s.append(time.perf_counter() - t0)
            errors = (
                checks.check_angle_report(out, n, p)
                if kind == "verify"
                else checks.check_min_p(out, n, p)
            )
            outputs[ops[i]] = out
            result.failed += bool(errors)
            result.errors += errors
        result.digest = hashlib.sha256(repr(sorted(outputs.items())).encode()).hexdigest()
        return result


WORKLOADS = {
    # the paper's regime: p = 21n, N = (n/2+1)^2, mutation only
    "nsga3-p21n": EngineWorkload(
        dict(problem="3omm", n=32, pop_size=289, algorithm="nsga3", divisions=672),
        generations=30,
        no_loss=True,
    ),
    # many distinct values, small lattice, crossover at 0.9
    "nsga3-xover": EngineWorkload(
        dict(problem="3omm", n=40, pop_size=441, algorithm="nsga3", divisions=186,
             crossover_rate=0.9),
        generations=100,
        no_loss=True,
    ),
    # no reference points: sorting, crowding and coverage bookkeeping
    "nsga2-8x": EngineWorkload(
        dict(problem="3omm", n=40, pop_size=3528, algorithm="nsga2"),
        generations=100,
        no_loss=False,
        never_full=True,
        end_below=300,
    ),
    "verify-grid": VerifyGrid(),
}


def run_rounds(workload, seed: int, seconds: float, tracer=None) -> list[Round]:
    """Whole rounds until the next one would end past ``seconds`` (at least one)."""
    rounds = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        rounds.append(workload.run_round(seed, len(rounds), tracer))
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds:
            return rounds


def nearest_rank(samples: list[float], q: float) -> float:
    """The q-quantile as a sample, not an interpolation.

    On a round that repeats a fixed mix of operations (verify-grid), it
    picks the same operation whatever the number of rounds.
    """
    ordered = sorted(samples)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def end_to_end(rounds: list[Round], setup_s: float, peak_rss_mb: float) -> dict:
    op_s = [t for r in rounds for t in r.op_s]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(sum(r.op_s) for r in rounds), "s"),
        "op_ms_p50": (statistics.median(op_s) * 1e3, "ms"),
        "op_ms_p90": (nearest_rank(op_s, 0.9) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


TIME_LAYERS = {
    "selection.associate_ms": "selection.associate",
    "refpoints.unit_points_ms": "refpoints.unit_points",
    "selection.niching_ms": "selection.niching",
    "dominance.sort_ms": "dominance.sort",
    "analysis.coverage_ms": "analysis.coverage",
    "analysis.detect_loss_ms": "analysis.detect_loss",
    "selection.crowding_ms": "selection.crowding",
    "problems.evaluate_ms": "problems.evaluate",
    "engine.make_offspring_ms": "engine.make_offspring",
    "genome.mutate_ms": "genome.mutate",
    "normalization.normalize_ms": "normalization.normalize",
    "engine.self_ms": "engine",
}


def per_layer(tracer, rounds: list[Round], generations: int | None) -> dict:
    """Self ms per operation for each layer, plus the layers' work counts.

    ``refpoints.generate_ms``, ``analysis.verify_ms`` and
    ``analysis.min_p_ms`` are per call; the counts are per operation
    (``*_calls``, ``niching_picks``), per call (``associate_cells``,
    ``distinct_values``) or per search (``min_p_scanned``). A layer the
    workload never calls reads 0.
    """
    ops = sum(len(r.op_s) for r in rounds)
    times, calls = tracer.self_ns(operations_only=True)
    all_times, all_calls = tracer.self_ns()

    def per(total, count):
        return total / count if count else 0.0

    metrics = {name: (per(times[layer], ops) / 1e6, "ms") for name, layer in TIME_LAYERS.items()}
    metrics["refpoints.generate_ms"] = (
        per(all_times["refpoints.generate"], all_calls["refpoints.generate"]) / 1e6, "ms")
    metrics["analysis.verify_ms"] = (
        per(times["analysis.verify"], calls["analysis.verify"]) / 1e6, "ms")
    searches = calls["analysis.min_p"] - tracer.counts["analysis.min_p_scanned"]
    metrics["analysis.min_p_ms"] = (per(times["analysis.min_p"], searches) / 1e6, "ms")
    metrics["analysis.min_p_scanned"] = (
        per(tracer.counts["analysis.min_p_scanned"], searches), "count")
    metrics["selection.associate_cells"] = (
        per(tracer.counts["selection.associate_cells"], calls["selection.associate"]), "count")
    metrics["dominance.distinct_values"] = (
        per(tracer.counts["dominance.distinct_values"], calls["dominance.sort"]), "count")
    metrics["selection.niching_picks"] = (
        per(tracer.counts["selection.niching_picks"], ops), "count")
    metrics["problems.evaluate_calls"] = (per(calls["problems.evaluate"], ops), "count")
    metrics["refpoints.unit_points_calls"] = (
        per(calls["refpoints.unit_points"], ops), "count")
    # a round that ends uncovered counts as its budget + 1
    cover = [
        r.iters_to_cover if r.iters_to_cover is not None else generations + 1
        for r in rounds
    ] if generations else [0]
    metrics["engine.iters_to_cover"] = (statistics.median(cover), "iter")
    return metrics
