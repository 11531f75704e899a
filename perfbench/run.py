"""Benchmark for moea-lab: four workloads, end-to-end and per-layer metrics.

Run every workload, each in its own process, and print a summary:

    python3 perfbench/run.py [--seed 1] [--seconds 25] [--trace 0|1]

Run one workload in this process; the last line of output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``:

    python3 perfbench/run.py --workload nsga3-p21n --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones (see
BENCHMARK.json); with ``--trace 1`` the functions of each module are
wrapped and the metrics are per-layer self times and work counts. BLAS is
pinned to one thread. Results go to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("nsga3-p21n", "nsga3-xover", "nsga2-8x", "verify-grid")
SETUP_REPEATS = 5
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import moea_lab"


def setup_seconds(workload, seed: int) -> float:
    """Median start-and-import time of a fresh interpreter, plus the median
    of the workload's own set-up, each taken SETUP_REPEATS times."""
    imports = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], check=True, timeout=120)
        imports.append(time.perf_counter() - t0)
    # indices past any round's, so set-up draws no round's seed
    own = [workload.set_up(seed, 10**6 + i) for i in range(SETUP_REPEATS)]
    return statistics.median(imports) + statistics.median(own)


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import moea_lab
    import workloads

    if Path(moea_lab.__file__).resolve().parent != SRC / "moea_lab":
        raise SystemExit(f"moea_lab imported from {moea_lab.__file__}, not {SRC}")
    workload = workloads.WORKLOADS[name]
    if trace:
        import tracing

        tracer = tracing.Tracer()
        with tracing.installed(tracer):
            rounds = workloads.run_rounds(workload, seed, seconds, tracer)
        metrics = workloads.per_layer(
            tracer, rounds, getattr(workload, "generations", None)
        )
        total = tracer.root_ns(operations_only=True)
        print(f"traced wall_s {statistics.median(sum(r.op_s) for r in rounds):.4f} "
              f"(trace bookkeeping {tracer.self_ns(True)[0][tracing.TRACE_LAYER] / total:.2%})")
    else:
        setup_s = setup_seconds(workload, seed)
        rounds = workloads.run_rounds(workload, seed, seconds)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = workloads.end_to_end(rounds, setup_s, peak)

    attempted = len(rounds) * workload.ops_per_round
    failed = sum(r.failed for r in rounds)
    errors = [e for r in rounds for e in r.errors]
    print(f"{name} seed={seed} trace={int(trace)} rounds={len(rounds)} "
          f"attempted={attempted} failed={failed}")
    print("records digest per round: " + " ".join(r.digest[:12] for r in rounds))
    print("operation seconds per round: " + " ".join(f"{sum(r.op_s):.3f}" for r in rounds))
    for e in errors[:20]:
        print(f"  check failed: {e}")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric:30s} {value:14.6f} {unit}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process; print every metric and the op counts."""
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        print(f"{name}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {result['correct']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:30s} {m['value']:14.6f} {m['unit']}")
        if result["failed"] or not result["correct"]:
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "moea_lab").is_dir():
        print(f"error: package source {SRC / 'moea_lab'} not found", file=sys.stderr)
        return 2
    # one BLAS thread: steadier timings, and a fixed summation order in
    # the association matrix product
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if args.workload is None:
        return run_all(args.seed, args.seconds, bool(args.trace))

    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
