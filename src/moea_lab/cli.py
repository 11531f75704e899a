"""Command-line experiment harness.

Subcommands:

* ``run``          -- seed-sweep one configuration, emit per-iteration CSV.
* ``sweep``        -- expand a spec file into many configurations, run them
                      (optionally in parallel), emit per-run and summary CSVs.
* ``verify``       -- association-geometry reports over (n, p) grids.
* ``verify-min-p`` -- smallest collision-free division count for one n.

All randomness derives from a master seed (flag ``--seed``, else env var
``MOEA_LAB_SEED``, else 0) and the run index, so repeated invocations with
the same inputs produce byte-identical CSVs.

Exit codes: 0 success, 1 runtime/IO failure (a population with no spread
in some objective, an allocation the system refuses, or an output path
that cannot be written, which ``run`` and ``sweep`` refuse before any run),
2 usage/config error, a size numpy cannot index included; each failure
prints one ``error:`` line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import itertools
import math
import os
import statistics
import sys
from dataclasses import astuple, fields, replace
from multiprocessing import Pool

from .analysis import AngleReport, minimal_p_search, verify_unique_association
from .engine import STOP_POLICIES, RunConfig, run_collect
from .normalization import DegeneratePopulationError
from .problems import make_problem

RUN_COLUMNS = [
    "run_id",
    "algo",
    "n",
    "N",
    "p",
    "chi",
    "seed",
    "iteration",
    "covered",
    "front_size",
    "losses_cum",
    "new_covered",
]

SUMMARY_COLUMNS = [
    "config_id",
    "problem",
    "algo",
    "n",
    "N",
    "p",
    "chi",
    "runs",
    "reached",
    "mean_iters",
    "median_iters",
    "max_iters",
]

VERIFY_COLUMNS = [f.name for f in fields(AngleReport)]


class UsageError(Exception):
    """Bad flag combination or malformed spec; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    """Reports a parse error as a UsageError, so it prints as one line."""

    def error(self, message):
        raise UsageError(message)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _write_csv(path: str | None, columns: list[str], rows: list[list]) -> None:
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])
    if path is None:
        sys.stdout.write(text.getvalue())
    else:
        tmp = path + ".tmp"
        handle = open(tmp, "w", newline="")
        try:
            with handle:
                handle.write(text.getvalue())
            os.replace(tmp, path)
        except BaseException:
            # ours since open succeeded; the first error is the one to report
            with contextlib.suppress(OSError):
                os.remove(tmp)
            raise


def _check_writable(*paths: str | None) -> None:
    """Refuse, before any run, an output path ``_write_csv`` cannot write."""
    for path in paths:
        if path is None:
            continue
        directory = os.path.dirname(path) or os.curdir
        if not path or os.path.isdir(path) or not os.access(directory, os.W_OK):
            raise OSError(f"cannot write {path!r}: not a file in a writable directory")


def _usage_checked(func, *args, **kwargs):
    """Call ``func``; the ValueError it raises for bad arguments is a usage error."""
    try:
        return func(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _master_seed(args) -> int:
    seed = args.seed
    if seed is None:
        env = os.environ.get("MOEA_LAB_SEED", "0")
        try:
            seed = int(env)
        except ValueError as exc:
            raise UsageError(f"MOEA_LAB_SEED must be an integer, got {env!r}") from exc
    if seed < 0:
        raise UsageError(f"master seed must be >= 0, got {seed}")
    return seed


def _fan_out(
    base: RunConfig, master_seed: int, seeds: int, first: int = 0, prefix: str = ""
) -> list[tuple[RunConfig, int]]:
    """Validate ``base`` once and give it ``seeds`` runs, ``(config, seed
    index)``, seeded ``[master_seed, first + i]`` and named ``<prefix>s<i>``."""
    if seeds < 1:
        raise UsageError(f"number of runs must be >= 1, got {seeds}")
    _usage_checked(base.validate)
    return [
        (replace(base, seed=[master_seed, first + i], run_id=f"{prefix}s{i}"), i)
        for i in range(seeds)
    ]


def _run_rows(task) -> list[list]:
    cfg, seed_index = task
    head = [cfg.run_id, cfg.algorithm, cfg.n, cfg.pop_size, cfg.divisions or 0,
            cfg.crossover_rate, seed_index]
    return [
        head + [rec.iteration, rec.covered, rec.front_size, rec.losses_cum, len(rec.new_values)]
        for rec in run_collect(cfg)
    ]


def _execute_tasks(tasks, jobs: int) -> list[list[list]]:
    if jobs < 1:
        raise UsageError(f"--jobs must be >= 1, got {jobs}")
    jobs = min(jobs, len(tasks), os.cpu_count() or 1)
    if jobs > 1:
        with Pool(processes=jobs) as pool:
            return pool.map(_run_rows, tasks)
    return [_run_rows(task) for task in tasks]


def _cmd_run(args) -> int:
    base = RunConfig(
        problem=args.problem,
        n=args.n,
        pop_size=args.pop_size,
        algorithm=args.algo,
        divisions=args.divisions,
        crossover_rate=args.crossover_rate,
        mutation_prob=args.mutation_prob,
        max_iterations=args.iterations,
        stop=args.stop,
    )
    tasks = _fan_out(base, _master_seed(args), args.seeds)
    _check_writable(args.out)
    rows = [row for chunk in _execute_tasks(tasks, args.jobs) for row in chunk]
    _write_csv(args.out, RUN_COLUMNS, rows)
    return 0


def _cmd_verify(args) -> int:
    rows = [
        astuple(_usage_checked(verify_unique_association, n, p))
        for n in args.n
        for p in args.p
    ]
    _write_csv(args.out, VERIFY_COLUMNS, rows)
    return 0


def _cmd_verify_min_p(args) -> int:
    result = _usage_checked(minimal_p_search, args.n, p_max=args.p_max, p_min=args.p_min)
    p_min = "not-found" if result.p_min is None else result.p_min
    rows = [[result.n, p_min, result.lower_bound, result.p_searched_max]]
    _write_csv(args.out, ["n", "p_min", "lower_bound", "p_max_searched"], rows)
    return 0


# ---------------------------------------------------------------------------
# sweep specs


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


# key: (type of each value, default). A key with a tuple default is a sweep
# axis, and its repeats and comma lists extend it; the others take one value.
SPEC_KEYS = {
    "problem": (str, ("3omm",)),
    "n": (int, ()),
    "algo": (str, ("nsga3",)),
    "pop_size": (int, ()),
    "pop_mult": (_finite, ()),
    "divisions": (int, ()),
    "div_mult": (_finite, ()),
    "crossover_rate": (_finite, (0.0,)),
    "mutation_prob": (_finite, None),
    "iterations": (int, 1000),
    "stop": (str, "coverage"),
    "seeds": (int, 1),
}
SPEC_SCALAR_KEYS = {
    key for key, (_, default) in SPEC_KEYS.items() if not isinstance(default, tuple)
}


def parse_sweep_spec(lines) -> dict:
    """Line-oriented key=value spec, typed by ``SPEC_KEYS`` as each line is
    read; every key is set in the result, to its default if left out."""
    spec: dict = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"spec line {lineno}"
        if "=" not in line:
            raise UsageError(f"{where}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SPEC_KEYS:
            raise UsageError(f"{where}: unknown key {key!r}")
        if not value:
            raise UsageError(f"{where}: empty value for {key!r}")
        texts = [v.strip() for v in value.split(",")]
        if key in SPEC_SCALAR_KEYS and (key in spec or len(texts) > 1):
            raise UsageError(f"{where}: {key!r} takes a single value")
        try:
            values = tuple(SPEC_KEYS[key][0](text) for text in texts)
        except ValueError as exc:
            raise UsageError(f"{where}: {key!r}: {exc}") from exc
        spec[key] = values[0] if key in SPEC_SCALAR_KEYS else spec.get(key, ()) + values
    if "n" not in spec:
        raise UsageError("spec must set n")
    for size, mult in [("pop_size", "pop_mult"), ("divisions", "div_mult")]:
        if size in spec and mult in spec:
            raise UsageError(f"spec sets both {size} and {mult}")
    return {key: spec.get(key, default) for key, (_, default) in SPEC_KEYS.items()}


def _scaled(key: str, mult: float, base: int) -> int:
    try:  # an infinite product, or a base too large for a float
        return math.ceil(mult * base)
    except OverflowError as exc:
        raise UsageError(f"spec key {key!r}: {mult} x {base} is not a finite size") from exc


def _expand_sweep(spec: dict, master_seed: int):
    """Cartesian product of the spec's sweep axes; one list of seeded runs
    per configuration, each validated once. ``pop_mult`` scales the front
    size and ``div_mult`` scales n, both rounded up, and only the population
    is raised to at least 1."""
    axes = [spec[key] for key in ("problem", "n", "algo", "crossover_rate")]
    pops = spec["pop_size"] or spec["pop_mult"] or (None,)
    divs = spec["divisions"] or spec["div_mult"] or (None,)
    seeds = spec["seeds"]
    configs = []
    for problem, n, algo, chi, pop, div in itertools.product(*axes, pops, divs):
        front_size = _usage_checked(make_problem, problem, n).front_size
        if pop is None:
            pop = front_size
        elif spec["pop_mult"]:
            pop = max(1, _scaled("pop_mult", pop, front_size))
        if algo == "nsga2":
            div = None
        elif div is None:
            raise UsageError("nsga3 sweep needs divisions or div_mult")
        elif spec["div_mult"]:
            div = _scaled("div_mult", div, n)
        base = RunConfig(
            problem=problem,
            n=n,
            pop_size=pop,
            algorithm=algo,
            divisions=div,
            crossover_rate=chi,
            mutation_prob=spec["mutation_prob"],
            max_iterations=spec["iterations"],
            stop=spec["stop"],
        )
        k = len(configs)
        configs.append(_fan_out(base, master_seed, seeds, k * seeds, f"c{k}"))
    return configs


def _cmd_sweep(args) -> int:
    master = _master_seed(args)
    with open(args.spec) as handle:
        try:
            spec = parse_sweep_spec(handle)
        except UnicodeDecodeError as exc:
            raise UsageError(f"spec is not text: {exc}") from exc
    configs = _expand_sweep(spec, master)
    _check_writable(args.out, args.summary_out)

    chunks = _execute_tasks([task for runs in configs for task in runs], args.jobs)
    _write_csv(args.out, RUN_COLUMNS, [row for chunk in chunks for row in chunk])

    summary_rows = []
    in_order = iter(chunks)
    for k, runs in enumerate(configs):
        # each run's first iteration with covered == front_size, if any
        hits = [next((r[7] for r in next(in_order) if r[8] == r[9]), None) for _ in runs]
        iters = [hit for hit in hits if hit is not None]
        if iters:
            stats = [statistics.fmean(iters), statistics.median(iters), max(iters)]
        else:
            stats = [-1, -1, -1]
        cfg = runs[0][0]
        summary_rows.append(
            [
                f"c{k}",
                cfg.problem,
                cfg.algorithm,
                cfg.n,
                cfg.pop_size,
                cfg.divisions or 0,
                cfg.crossover_rate,
                len(runs),
                len(iters),
                *stats,
            ]
        )
    _write_csv(args.summary_out, SUMMARY_COLUMNS, summary_rows)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="moea-lab",
        description="NSGA-II / NSGA-III experiments on OneMinMax benchmarks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="seed-sweep one configuration")
    p_run.add_argument("--problem", choices=["omm", "3omm"], default="3omm")
    p_run.add_argument("--n", type=int, required=True)
    p_run.add_argument("--algo", choices=["nsga2", "nsga3"], required=True)
    p_run.add_argument("--pop-size", type=int, required=True)
    p_run.add_argument("--divisions", type=int, default=None)
    p_run.add_argument("--iterations", type=int, default=1000)
    p_run.add_argument("--seeds", type=int, default=1, help="number of runs")
    p_run.add_argument("--seed", type=int, default=None, help="master seed")
    p_run.add_argument("--crossover-rate", type=float, default=0.0)
    p_run.add_argument("--mutation-prob", type=float, default=None)
    p_run.add_argument("--stop", choices=STOP_POLICIES, default="iters")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--out", default=None, help="CSV path (default stdout)")
    p_run.set_defaults(func=_cmd_run)

    p_ver = sub.add_parser("verify", help="association geometry reports")
    p_ver.add_argument("--n", type=_int_list, required=True, help="comma list")
    p_ver.add_argument("--p", type=_int_list, required=True, help="comma list")
    p_ver.add_argument("--out", default=None)
    p_ver.set_defaults(func=_cmd_verify)

    p_min = sub.add_parser("verify-min-p", help="least collision-free divisions")
    p_min.add_argument("--n", type=int, required=True)
    p_min.add_argument("--p-max", type=int, required=True)
    p_min.add_argument("--p-min", type=int, default=1)
    p_min.add_argument("--out", default=None)
    p_min.set_defaults(func=_cmd_verify_min_p)

    p_sw = sub.add_parser("sweep", help="run a spec file of configurations")
    p_sw.add_argument("spec", help="line-oriented key=value spec file")
    p_sw.add_argument("--seed", type=int, default=None, help="master seed")
    p_sw.add_argument("--jobs", type=int, default=1)
    p_sw.add_argument("--out", default=None, help="per-iteration CSV path")
    p_sw.add_argument("--summary-out", default=None, help="summary CSV path")
    p_sw.set_defaults(func=_cmd_sweep)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, DegeneratePopulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
