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

Exit codes: 0 success, 1 runtime/IO failure, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import math
import os
import statistics
import sys
from multiprocessing import Pool

from .analysis import minimal_p_search, verify_unique_association
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

VERIFY_COLUMNS = [
    "n",
    "p",
    "min_pairwise_angle",
    "max_assoc_angle",
    "separated",
    "collisions",
]


class UsageError(Exception):
    """Bad flag combination or malformed spec; maps to exit code 2."""


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
        with open(tmp, "w", newline="") as handle:
            handle.write(text.getvalue())
        os.replace(tmp, path)


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


def _build_config(
    problem: str,
    n: int,
    algo: str,
    pop_size: int,
    divisions: int | None,
    chi: float,
    mutation_prob: float | None,
    iterations: int,
    stop: str,
    master_seed: int,
    run_index: int,
    run_id: str,
) -> RunConfig:
    cfg = RunConfig(
        problem=problem,
        n=n,
        pop_size=pop_size,
        algorithm=algo,
        divisions=divisions,
        crossover_rate=chi,
        mutation_prob=mutation_prob,
        max_iterations=iterations,
        seed=[master_seed, run_index],
        stop=stop,
        run_id=run_id,
    )
    _usage_checked(cfg.validate)
    return cfg


def _run_rows(task) -> list[list]:
    cfg, seed_index = task
    records = run_collect(cfg)
    p = cfg.divisions if cfg.divisions is not None else 0
    return [
        [
            cfg.run_id,
            cfg.algorithm,
            cfg.n,
            cfg.pop_size,
            p,
            cfg.crossover_rate,
            seed_index,
            rec.iteration,
            rec.covered,
            rec.front_size,
            rec.losses_cum,
            len(rec.new_values),
        ]
        for rec in records
    ]


def _execute_tasks(tasks, jobs: int) -> list[list[list]]:
    jobs = min(jobs, len(tasks), os.cpu_count() or 1)
    if jobs > 1:
        with Pool(processes=jobs) as pool:
            return pool.map(_run_rows, tasks)
    return [_run_rows(task) for task in tasks]


def _check_seeds(seeds: int) -> None:
    if seeds < 1:
        raise UsageError(f"number of runs must be >= 1, got {seeds}")


def _cmd_run(args) -> int:
    _check_seeds(args.seeds)
    master = _master_seed(args)
    tasks = []
    for idx in range(args.seeds):
        cfg = _build_config(
            problem=args.problem,
            n=args.n,
            algo=args.algo,
            pop_size=args.pop_size,
            divisions=args.divisions,
            chi=args.crossover_rate,
            mutation_prob=args.mutation_prob,
            iterations=args.iterations,
            stop=args.stop,
            master_seed=master,
            run_index=idx,
            run_id=f"s{idx}",
        )
        tasks.append((cfg, idx))
    rows = [row for chunk in _execute_tasks(tasks, args.jobs) for row in chunk]
    _write_csv(args.out, RUN_COLUMNS, rows)
    return 0


def _cmd_verify(args) -> int:
    rows = []
    for n in args.n:
        for p in args.p:
            report = _usage_checked(verify_unique_association, n, p)
            rows.append(
                [
                    report.n,
                    report.p,
                    report.min_pairwise_angle,
                    report.max_assoc_angle,
                    report.separated,
                    report.collisions,
                ]
            )
    _write_csv(args.out, VERIFY_COLUMNS, rows)
    return 0


def _cmd_verify_min_p(args) -> int:
    result = _usage_checked(minimal_p_search, args.n, p_max=args.p_max, p_min=args.p_min)
    rows = [
        [
            result.n,
            result.p_min if result.p_min is not None else "not-found",
            result.lower_bound,
            result.p_searched_max,
        ]
    ]
    _write_csv(args.out, ["n", "p_min", "lower_bound", "p_max_searched"], rows)
    return 0


# ---------------------------------------------------------------------------
# sweep specs

SPEC_LIST_KEYS = {
    "problem",
    "n",
    "algo",
    "pop_size",
    "pop_mult",
    "divisions",
    "div_mult",
    "crossover_rate",
}
SPEC_SCALAR_KEYS = {"mutation_prob", "iterations", "stop", "seeds"}
SPEC_KEYS = SPEC_LIST_KEYS | SPEC_SCALAR_KEYS

SPEC_DEFAULTS = {
    "problem": ["3omm"],
    "algo": ["nsga3"],
    "crossover_rate": [0.0],
    "mutation_prob": None,
    "iterations": 1000,
    "stop": "coverage",
    "seeds": 1,
}


def parse_sweep_spec(lines) -> dict:
    """Line-oriented key=value spec; repeated keys form sweep lists."""
    spec: dict[str, list[str]] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"spec line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in SPEC_KEYS:
            raise UsageError(f"spec line {lineno}: unknown key {key!r}")
        if not value:
            raise UsageError(f"spec line {lineno}: empty value for {key!r}")
        values = [v.strip() for v in value.split(",")]
        if key in SPEC_SCALAR_KEYS and (key in spec or len(values) > 1):
            raise UsageError(f"spec line {lineno}: {key!r} takes a single value")
        spec.setdefault(key, []).extend(values)
    if "n" not in spec:
        raise UsageError("spec must set n")
    if "pop_size" in spec and "pop_mult" in spec:
        raise UsageError("spec sets both pop_size and pop_mult")
    if "divisions" in spec and "div_mult" in spec:
        raise UsageError("spec sets both divisions and div_mult")
    return spec


def _expand_sweep(spec: dict, master_seed: int):
    """Cartesian product of the spec's sweep axes into validated configs."""

    def finite(text):
        value = float(text)
        if not math.isfinite(value):
            raise ValueError(f"expected a finite number, got {text!r}")
        return value

    def get_list(key, convert):
        if key not in spec:
            return SPEC_DEFAULTS.get(key)
        try:
            return [convert(v) for v in spec[key]]
        except ValueError as exc:
            raise UsageError(f"spec key {key!r}: {exc}") from exc

    def get_scalar(key, convert):
        return get_list(key, convert)[0] if key in spec else SPEC_DEFAULTS[key]

    problems = get_list("problem", str)
    ns = get_list("n", int)
    algos = get_list("algo", str)
    chis = get_list("crossover_rate", finite)
    pop_sizes = get_list("pop_size", int)
    pop_mults = get_list("pop_mult", finite)
    divisions = get_list("divisions", int)
    div_mults = get_list("div_mult", finite)
    mutation_prob = get_scalar("mutation_prob", finite)
    iterations = get_scalar("iterations", int)
    stop = get_scalar("stop", str)
    seeds = get_scalar("seeds", int)
    _check_seeds(seeds)

    pop_axis = pop_sizes or pop_mults or [None]
    div_axis = divisions if divisions is not None else (div_mults or [None])

    configs = []
    run_index = 0
    for problem, n, algo, chi, pop, div in itertools.product(
        problems, ns, algos, chis, pop_axis, div_axis
    ):
        front_size = _usage_checked(make_problem, problem, n).front().shape[0]
        if pop is None:
            pop_size = front_size
        elif pop_sizes:
            pop_size = int(pop)
        else:
            pop_size = max(1, math.ceil(pop * front_size))
        if algo == "nsga2":
            divs = None
        elif div is None:
            raise UsageError("nsga3 sweep needs divisions or div_mult")
        elif divisions is not None:
            divs = int(div)
        else:
            divs = math.ceil(div * n)

        config_id = f"c{len(configs)}"
        runs = []
        for seed_index in range(seeds):
            cfg = _build_config(
                problem=problem,
                n=n,
                algo=algo,
                pop_size=pop_size,
                divisions=divs,
                chi=chi,
                mutation_prob=mutation_prob,
                iterations=iterations,
                stop=stop,
                master_seed=master_seed,
                run_index=run_index,
                run_id=f"{config_id}s{seed_index}",
            )
            runs.append((cfg, seed_index))
            run_index += 1
        configs.append((config_id, runs))
    if not configs:
        raise UsageError("spec expands to no configurations")
    return configs


def _cmd_sweep(args) -> int:
    master = _master_seed(args)
    try:
        with open(args.spec) as handle:
            spec = parse_sweep_spec(handle)
    except OSError as exc:
        print(f"error: cannot read spec: {exc}", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        raise UsageError(f"spec is not text: {exc}") from exc
    configs = _expand_sweep(spec, master)

    all_tasks = [task for _, runs in configs for task in runs]
    chunks = _execute_tasks(all_tasks, args.jobs)
    by_run = dict(zip((cfg.run_id for cfg, _ in all_tasks), chunks))

    run_rows = [row for cfg, _ in all_tasks for row in by_run[cfg.run_id]]
    _write_csv(args.out, RUN_COLUMNS, run_rows)

    summary_rows = []
    for config_id, runs in configs:
        iters_to_cov = []
        reached = 0
        for cfg, _ in runs:
            rows = by_run[cfg.run_id]
            hit = next(
                (row[7] for row in rows if row[8] == row[9]), None
            )  # iteration where covered == front_size
            if hit is not None:
                reached += 1
                iters_to_cov.append(hit)
        first_cfg = runs[0][0]
        if iters_to_cov:
            mean = statistics.fmean(iters_to_cov)
            median = statistics.median(iters_to_cov)
            worst = max(iters_to_cov)
        else:
            mean = median = worst = -1
        summary_rows.append(
            [
                config_id,
                first_cfg.problem,
                first_cfg.algorithm,
                first_cfg.n,
                first_cfg.pop_size,
                first_cfg.divisions if first_cfg.divisions is not None else 0,
                first_cfg.crossover_rate,
                len(runs),
                reached,
                mean,
                median,
                worst,
            ]
        )
    _write_csv(args.summary_out, SUMMARY_COLUMNS, summary_rows)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",")]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, DegeneratePopulationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
