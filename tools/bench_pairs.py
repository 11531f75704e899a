"""Run the benchmark on two commits in alternating pairs and write BENCH_<name>.json.

    python3 tools/bench_pairs.py --parent REV [--change HEAD] --name NAME \
        [--pairs 10] [--seed 111] [--claim WORKLOAD:METRIC] [--trace WORKLOAD] \
        [--tier1] [--what TEXT]

Both commits are cloned into a temporary directory. Pair i runs at seed
``--seed + i``, the parent first in even pairs and the change first in odd
ones; each side runs every workload of BENCHMARK.json, one after the
other, as ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` in its own clone, with T the benchmark's ``run_seconds``, and
keeps each workload's per-round record digests and its first five ``check
failed:`` lines (``check_failures``); a run that ends in error keeps its
exit code.

For every end-to-end metric of BENCHMARK.json the file records each
side's median and quartiles (linear interpolation), ``change_wins``, the
pairs where the change reads better, ties counting for neither, and
``over_bound``, whether the change's median is worse than the parent's by
more than the metric's ``bound``; the top-level ``over_bound`` lists every
such ``WORKLOAD:METRIC``, so a regression shows before the change is sent. With
``--claim`` it also records whether the claimed metric meets the gain rule:
the change wins at least nine tenths of the pairs, fails no more operations
than the parent, and the medians differ by more than the parent's
interquartile range. ``--trace`` adds one ``--trace 1`` run of
``TRACE_SECONDS`` per side at seed ``--seed + --pairs``, and ``--tier1``
the tier-1 test time of each side, run alone after the pairs:
``TIER1_RUNS`` runs per side, alternating, parent first, all at one fixed
hypothesis seed so that both sides draw the same examples, with each run's
time and each side's median.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "--hypothesis-seed=0"]
TIER1_RUNS = 3
DIGEST_LINE = "records digest per round:"
CHECK_LINE = "  check failed:"
CHECK_FAILURES_KEPT = 5
TRACE_SECONDS = 1.0


def clone(rev: str, into: Path) -> str:
    """Check ``rev`` out into a fresh clone of this repository; return its hash."""
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(into)], check=True)
    subprocess.run(["git", "-C", str(into), "checkout", "--quiet", "--detach", rev], check=True)
    out = subprocess.run(["git", "-C", str(into), "rev-parse", "--short", "HEAD"],
                         check=True, capture_output=True, text=True)
    return out.stdout.strip()


def child_env(src: Path | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if src is not None:
        env["PYTHONPATH"] = str(src)
    return env


def run_workload(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` call: its JSON result, traced wall time and
    record digests, or the error and exit code it ended with; either way its
    first ``CHECK_FAILURES_KEPT`` failed checks, if any."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=child_env(), capture_output=True, text=True,
                          timeout=max(900.0, 20 * seconds))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        run = {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}",
               "exit": proc.returncode}
    else:
        result = json.loads(lines[-1])
        run = {key: result[key] for key in ("attempted", "failed", "correct")}
        run.update({m: round(v["value"], 6) for m, v in result["metrics"].items()})
    for line in lines:
        if line.startswith(DIGEST_LINE):
            run["record_digests"] = line[len(DIGEST_LINE):].strip()
        elif line.startswith("traced wall_s"):
            run["traced_wall_s"] = float(line.split()[2])
    failures = [line.strip() for line in lines if line.startswith(CHECK_LINE)]
    if failures:
        run["check_failures"] = failures[:CHECK_FAILURES_KEPT]
    return run


def quartiles(data: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(data, n=4, method="inclusive") if len(data) > 1 \
        else (data[0],) * 3
    return {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}


def summarize(runs: dict, workloads: list[str], metrics: list[dict]) -> tuple[dict, dict]:
    """Per-workload medians, quartiles and wins, and per-seed digest agreement."""
    summary, digests = {}, {}
    pairs = list(runs.values())
    for w in workloads:
        ok = [p for p in pairs if all("error" not in p[s][w] for s in SIDES)]
        row = {}
        for metric in metrics if ok else []:
            name = metric["name"]
            values = {s: [p[s][w][name] for p in ok] for s in SIDES}
            sign = 1 if metric["better"] == "lower" else -1
            wins = sum(sign * (c - p) < 0 for p, c in zip(values["parent"], values["change"]))
            parent, change = quartiles(values["parent"]), quartiles(values["change"])
            worse = sign * (change["median"] - parent["median"])
            row[name] = {
                "parent": parent,
                "change": change,
                "change_over_parent_median": round(change["median"] / parent["median"], 4)
                if parent["median"] else None,
                "change_wins": f"{wins}/{len(ok)}",
                "over_bound": worse > metric["bound"] * abs(parent["median"]),
            }
        row["failed"] = {s: sum(p[s][w].get("failed", 0) for p in pairs) for s in SIDES}
        row["attempted"] = {s: sum(p[s][w].get("attempted", 0) for p in pairs) for s in SIDES}
        row["all_correct"] = all(p[s][w].get("correct", False) for p in pairs for s in SIDES)
        summary[w] = row
        digests[w] = {}
        for p in pairs:
            rounds = {s: p[s][w].get("record_digests", "").split() for s in SIDES}
            common = min(len(r) for r in rounds.values())
            digests[w][str(p["seed"])] = {
                "rounds_parent": len(rounds["parent"]),
                "rounds_change": len(rounds["change"]),
                "equal_over_common_rounds": common > 0
                and rounds["parent"][:common] == rounds["change"][:common],
            }
    return summary, digests


def over_bound(summary: dict, metrics: list[dict]) -> list[str]:
    """Every ``WORKLOAD:METRIC`` whose change median is worse than the
    parent's by more than the metric's bound."""
    return [f"{w}:{m['name']}" for w, row in summary.items() for m in metrics
            if row.get(m["name"], {}).get("over_bound")]


def claim(summary: dict, spec: str, pairs: int, metrics: list[dict]) -> dict:
    workload, name = spec.split(":")
    row = summary[workload][name]
    parent, change = row["parent"], row["change"]
    iqr = parent["q3"] - parent["q1"]
    wins = int(row["change_wins"].split("/")[0])
    lower = next(m for m in metrics if m["name"] == name)["better"] == "lower"
    gap = parent["median"] - change["median"] if lower else change["median"] - parent["median"]
    failed = summary[workload]["failed"]
    return {
        "workload": workload,
        "metric": name,
        "parent_median": parent["median"],
        "parent_iqr": round(iqr, 4),
        "change_median": change["median"],
        "change_over_parent_median": row["change_over_parent_median"],
        "change_wins": row["change_wins"],
        "meets_gain_rule": wins * 10 >= 9 * pairs and gap > iqr
        and failed["change"] <= failed["parent"],
    }


def tier1(checkouts: dict) -> dict:
    """Each side's tier-1 runs, alternating, and the median of their times."""
    runs = {s: [] for s in SIDES}
    for _ in range(TIER1_RUNS):
        for side, checkout in checkouts.items():
            t0 = time.perf_counter()
            proc = subprocess.run(TIER1, cwd=checkout, env=child_env(checkout / "src"),
                                  capture_output=True, text=True, timeout=3600)
            tail = proc.stdout.strip().splitlines()
            runs[side].append({"wall_s": round(time.perf_counter() - t0, 1),
                               "summary": tail[-1] if tail else "", "exit": proc.returncode})
    return {s: {"median_wall_s": statistics.median(r["wall_s"] for r in runs[s]),
                "runs": runs[s]} for s in SIDES}


def machine() -> str:
    mem = next((line.split()[1] for line in Path("/proc/meminfo").read_text().splitlines()
                if line.startswith("MemTotal:")), "?") if Path("/proc/meminfo").exists() else "?"
    numpy = subprocess.run([sys.executable, "-c", "import numpy; print(numpy.__version__)"],
                           capture_output=True, text=True).stdout.strip()
    return (f"{platform.machine()} {platform.system()}, {os.cpu_count()} CPUs, "
            f"MemTotal {mem} kB; Python {platform.python_version()}, numpy {numpy}; "
            "BLAS pinned to one thread by perfbench/run.py")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--name", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=111)
    parser.add_argument("--claim", help="WORKLOAD:METRIC")
    parser.add_argument("--trace", help="workload to trace once per side")
    parser.add_argument("--tier1", action="store_true")
    parser.add_argument("--what", default="")
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seed < 0:
        parser.error("--pairs must be >= 1 and --seed >= 0")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    if args.claim and (args.claim.count(":") != 1 or args.claim.split(":")[0] not in workloads
                       or args.claim.split(":")[1] not in [m["name"] for m in metrics]):
        parser.error(f"--claim {args.claim!r} names no benchmarked workload and metric")
    out = ROOT / f"BENCH_{args.name}.json"

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        checkouts = {s: Path(tmp) / s for s in SIDES}
        commits = {s: clone(rev, checkouts[s]) for s, rev in zip(SIDES, (args.parent, args.change))}
        runs = {}
        for i in range(args.pairs):
            seed = args.seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            runs[str(i)] = {"seed": seed, "first": order[0]}
            for side in order:
                runs[str(i)][side] = {w: run_workload(checkouts[side], w, seed, seconds, 0)
                                      for w in workloads}
            print(f"pair {i + 1}/{args.pairs} at seed {seed} done", file=sys.stderr)
        summary, digests = summarize(runs, workloads, metrics)
        report = {
            "what": args.what,
            "machine": machine(),
            "method": (
                f"{args.pairs} alternating pairs, seeds {args.seed}..{args.seed + args.pairs - 1}, "
                f"parent first in even pairs; parent {commits['parent']} and change "
                f"{commits['change']}, each in its own clone. Each side of a pair runs "
                f"`python3 perfbench/run.py --workload W --seed S --seconds {seconds:g} "
                f"--trace 0` for W in {', '.join(workloads)}, in that order. Medians and "
                "quartiles (linear interpolation) over each side's runs; change_wins counts "
                "the pairs where the change reads better. Written by tools/bench_pairs.py."
            ),
        }
        if args.claim:
            report["claimed"] = claim(summary, args.claim, args.pairs, metrics)
        report["over_bound"] = over_bound(summary, metrics)
        report["workloads"] = summary
        if args.trace:
            seed = args.seed + args.pairs
            report["per_layer"] = {
                "method": f"one `python3 perfbench/run.py --workload {args.trace} --seed {seed} "
                          f"--seconds {TRACE_SECONDS:g} --trace 1` per side; per-layer "
                          "self times in ms per generation or call, counts per call",
                **{s: run_workload(checkouts[s], args.trace, seed, TRACE_SECONDS, 1)
                   for s in SIDES},
            }
        if args.tier1:
            report["tier1"] = {"command": "PYTHONPATH=src " + " ".join(["python", *TIER1[1:]]),
                               **tier1(checkouts)}
        report["record_digests"] = digests
        report["runs"] = runs
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
