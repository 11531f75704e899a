"""End-to-end acceptance checks.

Each test covers one headline claim and prints a single PASS/FAIL line, so
``pytest -v -s tests/test_acceptance.py`` doubles as a verification report.
The full module takes on the order of tens of minutes on one core; the
heavy runs (criteria 3-6) dominate.
"""

import math

import numpy as np
import pytest
from scipy.stats import mannwhitneyu

from moea_lab.analysis import minimal_p_search, verify_unique_association
from moea_lab.cli import main as cli_main
from moea_lab.dominance import fast_nondominated_sort
from moea_lab.engine import RunConfig, run_collect
from moea_lab.genome import random_population
from moea_lab.normalization import NormalizationState, normalize
from moea_lab.problems import three_omm

from conftest import dominates


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" -- {detail}"
    print(line, flush=True)
    assert ok, line


def nsga3_config(**kw) -> RunConfig:
    base = dict(problem="3omm", algorithm="nsga3", stop="coverage", run_id="acc")
    base.update(kw)
    return RunConfig(**base)


def iters_to_coverage(records):
    """First iteration with full coverage, else None."""
    for rec in records:
        if rec.covered == rec.front_size:
            return rec.iteration
    return None


def test_criterion_1_unique_association():
    failures = []
    for n in (4, 8, 12):
        p = 21 * n
        rep = verify_unique_association(n, p)
        bound = math.acos(1 - 18 / p**2) + 1e-12
        if rep.collisions != 0 or not rep.separated or rep.max_assoc_angle > bound:
            failures.append((n, rep.collisions, rep.separated))
    report(
        1,
        "unique association at p=21n",
        not failures,
        f"failures={failures}" if failures else "0 collisions for n=4,8,12",
    )


def test_criterion_2_minimal_p_sanity():
    bad = []
    for n in (4, 8, 12, 16):
        res = minimal_p_search(n, p_max=21 * n)
        if res.p_min is None or not res.lower_bound <= res.p_min <= 21 * n:
            bad.append((n, res.p_min))
        loose = verify_unique_association(n, math.ceil(4.65 * n))
        if loose.collisions != 0:
            bad.append((n, "4.65n collisions", loose.collisions))
    report(2, "minimal-p bounds and 4.65n collision-free", not bad, f"bad={bad}")


def test_criterion_3_no_loss():
    loss_runs = []
    for seed in range(5):
        cfg = nsga3_config(
            n=16,
            pop_size=81,
            divisions=336,
            max_iterations=2000,
            seed=[101, seed],
            stop="iters",
        )
        recs = run_collect(cfg)
        covered = [r.covered for r in recs]
        if recs[-1].losses_cum != 0 or covered != sorted(covered):
            loss_runs.append((seed, recs[-1].losses_cum))
    report(
        3,
        "no value lost over 2000 iterations x 5 seeds",
        not loss_runs,
        f"loss_runs={loss_runs}" if loss_runs else "all runs monotone, 0 losses",
    )


def test_criterion_4_coverage_time():
    exceeded = 0
    means = {}
    for n in (8, 12, 16):
        bound = math.ceil(4 * math.e * n * math.log(n))
        pop = (n // 2 + 1) ** 2
        iters = []
        for seed in range(10):
            cfg = nsga3_config(
                n=n,
                pop_size=pop,
                divisions=21 * n,
                max_iterations=bound,
                seed=[202, seed],
            )
            hit = iters_to_coverage(run_collect(cfg))
            if hit is None:
                exceeded += 1
                hit = bound + 1
            iters.append(hit)
        means[n] = float(np.mean(iters))
    report(
        4,
        "coverage within 4*e*n*ln(n)",
        exceeded <= 1,
        f"exceeded={exceeded}/30, mean iterations by n: "
        + ", ".join(f"n={n}: {m:.1f}" for n, m in means.items()),
    )


def test_criterion_5_nsga2_contrast():
    problems = []
    for seed in range(3):
        cfg = nsga3_config(
            n=40, pop_size=441, divisions=186, max_iterations=1000, seed=[301, seed]
        )
        hit = iters_to_coverage(run_collect(cfg))
        if hit is None or hit >= 300:
            problems.append(("nsga3", seed, hit))

    for seed in range(3):
        cfg = RunConfig(
            problem="3omm",
            n=40,
            pop_size=441,
            algorithm="nsga2",
            max_iterations=1000,
            seed=[304, seed],
            stop="iters",
            run_id="acc",
        )
        recs = run_collect(cfg)
        if any(r.covered == r.front_size for r in recs):
            problems.append(("nsga2-reached-full", seed))
        if recs[-1].losses_cum < 1:
            problems.append(("nsga2-no-loss", seed))

    for seed in range(3):
        cfg = RunConfig(
            problem="3omm",
            n=40,
            pop_size=3528,
            algorithm="nsga2",
            max_iterations=1000,
            seed=[305, seed],
            stop="iters",
            run_id="acc",
        )
        recs = run_collect(cfg)
        if recs[-1].covered >= 300:
            problems.append(("nsga2-8x-coverage", seed, recs[-1].covered))
    report(
        5,
        "n=40: nsga3 covers in <300 iters, nsga2 stalls with losses",
        not problems,
        f"problems={problems}" if problems else "all 9 runs behaved as claimed",
    )


def test_criterion_6_crossover_slowdown():
    limit = 5000
    samples = {}
    for chi in (0.0, 0.5, 0.9):
        iters = []
        for seed in range(8):
            cfg = nsga3_config(
                n=20,
                pop_size=121,
                divisions=420,
                crossover_rate=chi,
                max_iterations=limit,
                seed=[405, seed],
            )
            hit = iters_to_coverage(run_collect(cfg))
            iters.append(limit if hit is None else hit)
        samples[chi] = iters
    means = {chi: float(np.mean(v)) for chi, v in samples.items()}
    stat = mannwhitneyu(samples[0.9], samples[0.0], alternative="greater")
    ok = stat.pvalue < 0.05
    report(
        6,
        "crossover slows coverage (0.9 vs 0, one-sided rank test)",
        ok,
        f"means chi=0: {means[0.0]:.1f}, chi=0.5: {means[0.5]:.1f}, "
        f"chi=0.9: {means[0.9]:.1f}; p-value={stat.pvalue:.2g}",
    )


def test_criterion_7_normalization_oracle():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(200):
        n = int(rng.choice([4, 8, 12, 16]))
        prob = three_omm(n)
        values = prob.evaluate(random_population(50, n, rng)).astype(float)
        values[0] = [n, 0, 0]
        values[1] = [0, n // 2, n // 2]
        nv, _ = normalize(NormalizationState(), values)
        lo, hi = values.min(axis=0), values.max(axis=0)
        expected = (values - lo) / (hi - lo)
        worst = max(worst, float(np.abs(nv - expected).max()))
    report(
        7,
        "full normalization equals min-max on 200 extreme-covering populations",
        worst <= 1e-12,
        f"max deviation {worst:.2e}",
    )


def brute_force_ranks(values, sense):
    values = np.asarray(values)
    ranks = np.zeros(len(values), dtype=int)
    remaining = list(range(len(values)))
    rank = 1
    while remaining:
        layer = [
            i
            for i in remaining
            if not any(
                dominates(values[j], values[i], sense) == "strict" for j in remaining
            )
        ]
        for i in layer:
            ranks[i] = rank
        remaining = [i for i in remaining if i not in layer]
        rank += 1
    return ranks


def test_criterion_8_sorting_oracle():
    rng = np.random.default_rng(606)
    mismatches = 0
    for _ in range(1000):
        size = int(rng.integers(1, 65))
        m = int(rng.integers(1, 4))
        sense = str(rng.choice(["min", "max"]))
        values = rng.integers(0, 8, (size, m))
        fronts = fast_nondominated_sort(values, sense)
        got = np.zeros(size, dtype=int)
        for rank, front in enumerate(fronts, start=1):
            got[front] = rank
        if not np.array_equal(got, brute_force_ranks(values, sense)):
            mismatches += 1
    report(
        8,
        "fast sort matches brute-force oracle on 1000 populations",
        mismatches == 0,
        f"mismatches={mismatches}",
    )


def test_criterion_9_determinism(tmp_path):
    spec = tmp_path / "sweep.spec"
    spec.write_text(
        "n = 8\n"
        "algo = nsga3\n"
        "divisions = 168\n"
        "pop_size = 25\n"
        "iterations = 300\n"
        "stop = coverage\n"
        "seeds = 3\n"
    )
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / f"runs_{tag}.csv"
        summary = tmp_path / f"summary_{tag}.csv"
        code = cli_main(
            ["sweep", str(spec), "--seed", "77", "--out", str(out),
             "--summary-out", str(summary)]
        )
        assert code == 0
        outs.append(out.read_bytes() + summary.read_bytes())
    report(
        9,
        "identical sweep invocations are byte-identical",
        outs[0] == outs[1],
        f"{len(outs[0])} bytes compared",
    )
