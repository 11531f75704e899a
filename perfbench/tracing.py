"""Per-layer spans for a traced benchmark run, recorded from outside moea_lab.

``installed(tracer)`` replaces each traced function where its caller looks
it up (the engine's module globals, ``Problem.evaluate``, the
``ReferencePointSet.unit_points`` property, ``genome.mutate_population``
and the analysis entry points) with a wrapper that records a span, and
puts the originals back on exit. The wrappers only read their arguments
and results; they draw nothing from the run's generator. Spans stay in
memory and are summed when the run ends.

A span's layer is named after the module that does the work. Its self time
is its duration minus the part covered by its child spans, so the self
times of all layers sum to the duration of the root spans.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

from moea_lab import analysis, engine, genome, problems, refpoints

# bookkeeping done by the wrappers themselves, kept out of every other layer
TRACE_LAYER = "trace"

ENGINE_LAYERS = {
    "make_offspring": "engine.make_offspring",
    "fast_nondominated_sort": "dominance.sort",
    "normalize": "normalization.normalize",
    "update_ideal_and_worst": "normalization.normalize",
    "associate": "selection.associate",
    "niching_select": "selection.niching",
    "crowding_distance_select": "selection.crowding",
    "coverage": "analysis.coverage",
    "detect_loss": "analysis.detect_loss",
    "generate_reference_points": "refpoints.generate",
    "run_iteration": "engine",
}


def _distinct_rows(values) -> int:
    return np.unique(np.atleast_2d(values), axis=0).shape[0]


# counters taken from a traced call's arguments: name -> f(args, kwargs)
COUNTERS = {
    "selection.associate": (
        "selection.associate_cells",
        lambda args, kwargs: _distinct_rows(args[0]) * len(args[1]),
    ),
    "dominance.sort": (
        "dominance.distinct_values",
        lambda args, kwargs: _distinct_rows(args[0]),
    ),
    "selection.niching": ("selection.niching_picks", lambda args, kwargs: kwargs["k"]),
}


class Tracer:
    """Spans as ``[layer, start_ns, end_ns, parent, is_operation]`` rows."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str, operation: bool = False):
        parent = self._stack[-1] if self._stack else -1
        # a verify call made by a minimal-p search is part of the search
        if layer == "analysis.verify" and parent >= 0 \
                and self.spans[parent][0] == "analysis.min_p":
            layer = "analysis.min_p"
            self.counts["analysis.min_p_scanned"] += 1
        index = len(self.spans)
        self.spans.append([layer, time.perf_counter_ns(), 0, parent, operation])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter_ns()
            self._stack.pop()

    def self_ns(self, operations_only: bool = False) -> tuple[Counter, Counter]:
        """Self time and span count per layer.

        With ``operations_only`` only spans under an operation's root span
        are summed, which leaves out per-round set-up.
        """
        child = [0] * len(self.spans)
        in_op = [False] * len(self.spans)
        for i, (_, start, end, parent, operation) in enumerate(self.spans):
            if parent >= 0:
                child[parent] += end - start
                in_op[i] = in_op[parent]
            else:
                in_op[i] = operation
        times: Counter = Counter()
        calls: Counter = Counter()
        for i, (layer, start, end, _, _) in enumerate(self.spans):
            if operations_only and not in_op[i]:
                continue
            times[layer] += end - start - child[i]
            calls[layer] += 1
        return times, calls

    def root_ns(self, operations_only: bool = False) -> int:
        return sum(
            end - start
            for _, start, end, parent, operation in self.spans
            if parent < 0 and (operation or not operations_only)
        )


def _wrap(tracer: Tracer, fn, layer: str):
    counter = COUNTERS.get(layer)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(layer):
            result = fn(*args, **kwargs)
        if counter is not None:
            with tracer.span(TRACE_LAYER):
                tracer.counts[counter[0]] += counter[1](args, kwargs)
        return result

    return traced


@contextmanager
def installed(tracer: Tracer):
    """Route the traced functions through ``tracer`` for the block's duration."""
    targets = [(engine, name, layer) for name, layer in ENGINE_LAYERS.items()]
    targets += [
        (problems.Problem, "evaluate", "problems.evaluate"),
        (genome, "mutate_population", "genome.mutate"),
        (analysis, "verify_unique_association", "analysis.verify"),
        (analysis, "minimal_p_search", "analysis.min_p"),
        (analysis, "generate_reference_points", "refpoints.generate"),
    ]
    originals = [(owner, name, owner.__dict__[name]) for owner, name, _ in targets]
    unit_points = refpoints.ReferencePointSet.__dict__["unit_points"]
    try:
        for owner, name, layer in targets:
            setattr(owner, name, _wrap(tracer, getattr(owner, name), layer))
        refpoints.ReferencePointSet.unit_points = property(
            _wrap(tracer, unit_points.fget, "refpoints.unit_points")
        )
        yield tracer
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
        refpoints.ReferencePointSet.unit_points = unit_points
