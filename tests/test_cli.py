import contextlib
import csv
import io
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moea_lab.cli import (
    RUN_COLUMNS,
    SPEC_SCALAR_KEYS,
    SUMMARY_COLUMNS,
    VERIFY_COLUMNS,
    UsageError,
    main,
    parse_sweep_spec,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def read_csv(text):
    return list(csv.reader(io.StringIO(text)))


class TestRun:
    def test_basic_run_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run", "--n", "4", "--algo", "nsga3", "--pop-size", "9",
            "--divisions", "20", "--iterations", "5", "--seed", "7",
        )
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == RUN_COLUMNS
        assert len(rows) == 1 + 6  # header + iterations 0..5
        assert rows[1][7] == "0"  # first record is iteration 0
        assert all(row[1] == "nsga3" and row[4] == "20" for row in rows[1:])

    def test_iterations_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run", "--n", "4", "--algo", "nsga2", "--pop-size", "5",
            "--iterations", "0",
        )
        assert code == 0
        rows = read_csv(out)
        assert len(rows) == 2

    def test_multiple_seeds(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run", "--n", "4", "--algo", "nsga2", "--pop-size", "5",
            "--iterations", "3", "--seeds", "2",
        )
        assert code == 0
        rows = read_csv(out)[1:]
        assert {row[6] for row in rows} == {"0", "1"}
        assert {row[0] for row in rows} == {"s0", "s1"}

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "runs.csv"
        code, out, _ = run_cli(
            capsys,
            "run", "--n", "4", "--algo", "nsga2", "--pop-size", "5",
            "--iterations", "2", "--out", str(out_path),
        )
        assert code == 0
        assert out == ""
        rows = read_csv(out_path.read_text())
        assert rows[0] == RUN_COLUMNS

    def test_divisions_with_nsga2_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "run", "--n", "4", "--algo", "nsga2", "--pop-size", "5",
            "--divisions", "8",
        )
        assert code == 2
        assert "divisions" in err

    def test_nsga3_without_divisions_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "run", "--n", "4", "--algo", "nsga3", "--pop-size", "5"
        )
        assert code == 2

    def test_bad_pop_size_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "run", "--n", "4", "--algo", "nsga2", "--pop-size", "0",
        )
        assert code == 2

    def test_stop_coverage(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "run", "--n", "4", "--algo", "nsga3", "--pop-size", "9",
            "--divisions", "84", "--iterations", "500", "--stop", "coverage",
        )
        assert code == 0
        last = read_csv(out)[-1]
        assert last[8] == last[9]  # covered == front_size
        assert int(last[7]) < 500


class TestSeeds:
    ARGS = (
        "run", "--n", "4", "--algo", "nsga2", "--pop-size", "5",
        "--iterations", "10",
    )

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MOEA_LAB_SEED", "1")
        _, from_flag, _ = run_cli(capsys, *self.ARGS, "--seed", "2")
        monkeypatch.setenv("MOEA_LAB_SEED", "2")
        _, from_env, _ = run_cli(capsys, *self.ARGS)
        assert from_flag == from_env

    def test_env_default_is_zero(self, capsys, monkeypatch):
        monkeypatch.delenv("MOEA_LAB_SEED", raising=False)
        _, unset, _ = run_cli(capsys, *self.ARGS)
        _, zero, _ = run_cli(capsys, *self.ARGS, "--seed", "0")
        assert unset == zero

    def test_bad_env_seed_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("MOEA_LAB_SEED", "not-a-number")
        code, _, _ = run_cli(capsys, *self.ARGS)
        assert code == 2

    def test_byte_identical_replay(self, capsys):
        _, a, _ = run_cli(capsys, *self.ARGS, "--seed", "99")
        _, b, _ = run_cli(capsys, *self.ARGS, "--seed", "99")
        assert a == b

    def test_different_seeds_differ(self, capsys):
        _, a, _ = run_cli(capsys, *self.ARGS, "--seed", "1")
        _, b, _ = run_cli(capsys, *self.ARGS, "--seed", "2")
        assert a != b


class TestVerify:
    def test_grid_csv(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4,8", "--p", "10,84")
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == VERIFY_COLUMNS
        assert [(r[0], r[1]) for r in rows[1:]] == [
            ("4", "10"), ("4", "84"), ("8", "10"), ("8", "84")
        ]
        # n=4, p=84 = 21n must be separated and collision-free
        assert rows[2][4] == "true"
        assert rows[2][5] == "0"

    def test_min_p_found(self, capsys):
        code, out, _ = run_cli(capsys, "verify-min-p", "--n", "4", "--p-max", "84")
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["n", "p_min", "lower_bound", "p_max_searched"]
        assert rows[1][0] == "4"
        assert 3 <= int(rows[1][1]) <= 84
        assert rows[1][2] == "3"  # ceil(4 / sqrt(2))

    def test_min_p_not_found(self, capsys):
        code, out, _ = run_cli(capsys, "verify-min-p", "--n", "8", "--p-max", "3")
        assert code == 0
        assert read_csv(out)[1][1] == "not-found"


class TestSweepSpecParsing:
    def test_lists_and_comments(self):
        spec = parse_sweep_spec(
            [
                "# grid\n",
                "n = 4, 8\n",
                "algo = nsga3\n",
                "div_mult = 21  # generous\n",
                "seeds = 3\n",
            ]
        )
        assert spec["n"] == (4, 8)
        assert spec["div_mult"] == (21.0,)
        assert spec["seeds"] == 3

    def test_repeated_key_extends(self):
        spec = parse_sweep_spec(["n=4\n", "n=8,12\n"])
        assert spec["n"] == (4, 8, 12)

    def test_defaults(self):
        assert parse_sweep_spec(["n = 4"]) == {
            "problem": ("3omm",),
            "n": (4,),
            "algo": ("nsga3",),
            "pop_size": (),
            "pop_mult": (),
            "divisions": (),
            "div_mult": (),
            "crossover_rate": (0.0,),
            "mutation_prob": None,
            "iterations": 1000,
            "stop": "coverage",
            "seeds": 1,
        }

    @pytest.mark.parametrize(
        "line", ["n = 4, x", "seeds = 1.5", "pop_mult = inf", "crossover_rate = half"]
    )
    def test_bad_value_names_its_line(self, line):
        with pytest.raises(UsageError, match="^spec line 3: "):
            parse_sweep_spec(["n = 4\n", "# comment\n", line + "\n"])

    def test_error_carries_line_number(self):
        with pytest.raises(UsageError, match="line 2"):
            parse_sweep_spec(["n=4\n", "whatever\n"])
        with pytest.raises(UsageError, match="line 1"):
            parse_sweep_spec(["bogus_key=3\n"])

    def test_scalar_key_rejects_lists(self):
        with pytest.raises(UsageError, match="single value"):
            parse_sweep_spec(["n=4\n", "seeds=1,2\n"])

    def test_missing_n_rejected(self):
        with pytest.raises(UsageError, match="must set n"):
            parse_sweep_spec(["algo=nsga3\n", "divisions=10\n"])

    def test_conflicting_axes_rejected(self):
        with pytest.raises(UsageError, match="both"):
            parse_sweep_spec(["n=4\n", "pop_size=9\n", "pop_mult=1.0\n"])


class TestSweep:
    def write_spec(self, tmp_path, text):
        path = tmp_path / "sweep.spec"
        path.write_text(text)
        return str(path)

    SPEC = (
        "n = 4\n"
        "algo = nsga3\n"
        "divisions = 84\n"
        "pop_size = 9\n"
        "iterations = 200\n"
        "stop = coverage\n"
        "seeds = 2\n"
    )

    def test_sweep_outputs(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, self.SPEC)
        out_path = tmp_path / "runs.csv"
        sum_path = tmp_path / "summary.csv"
        code = main(
            ["sweep", spec, "--seed", "5", "--out", str(out_path),
             "--summary-out", str(sum_path)]
        )
        assert code == 0
        run_rows = read_csv(out_path.read_text())
        assert run_rows[0] == RUN_COLUMNS
        assert {row[0] for row in run_rows[1:]} == {"c0s0", "c0s1"}
        sum_rows = read_csv(sum_path.read_text())
        assert sum_rows[0] == SUMMARY_COLUMNS
        assert len(sum_rows) == 2
        row = sum_rows[1]
        assert row[:2] == ["c0", "3omm"]
        assert row[7] == "2" and row[8] == "2"  # both runs reach coverage
        # max iterations-to-coverage matches the per-run rows
        hits = [int(r[7]) for r in run_rows[1:] if r[8] == r[9]]
        assert row[11] == str(max(hits))

    def test_sweep_expands_grid(self, capsys, tmp_path):
        spec = self.write_spec(
            tmp_path,
            "n = 4, 6\n"
            "algo = nsga2\n"
            "pop_mult = 1.0\n"
            "iterations = 1\n"
            "stop = iters\n",
        )
        out_path = tmp_path / "runs.csv"
        sum_path = tmp_path / "summary.csv"
        assert main(["sweep", spec, "--out", str(out_path), "--summary-out", str(sum_path)]) == 0
        sum_rows = read_csv(sum_path.read_text())[1:]
        assert [r[0] for r in sum_rows] == ["c0", "c1"]
        # pop_mult=1.0 gives N = front size = (n/2+1)^2
        assert [r[4] for r in sum_rows] == ["9", "16"]

    def test_sweep_byte_identical(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, self.SPEC)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        sa, sb = tmp_path / "sa.csv", tmp_path / "sb.csv"
        assert main(["sweep", spec, "--seed", "3", "--out", str(a), "--summary-out", str(sa)]) == 0
        assert main(["sweep", spec, "--seed", "3", "--out", str(b), "--summary-out", str(sb)]) == 0
        assert a.read_bytes() == b.read_bytes()
        assert sa.read_bytes() == sb.read_bytes()

    def test_jobs_matches_serial(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, self.SPEC)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["sweep", spec, "--seed", "4", "--out", str(a)]) == 0
        assert main(["sweep", spec, "--seed", "4", "--jobs", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_empty_spec_is_usage_error(self, capsys, tmp_path):
        spec = self.write_spec(tmp_path, "# nothing here\n")
        assert main(["sweep", spec]) == 2
        capsys.readouterr()

    def test_missing_spec_file_is_io_error(self, capsys, tmp_path):
        assert main(["sweep", str(tmp_path / "nope.spec")]) == 1
        capsys.readouterr()

    def test_unreached_coverage_sentinel(self, capsys, tmp_path):
        spec = self.write_spec(
            tmp_path,
            "n = 8\nalgo = nsga2\npop_size = 2\niterations = 1\nstop = iters\n",
        )
        sum_path = tmp_path / "summary.csv"
        assert main(["sweep", spec, "--summary-out", str(sum_path), "--out", str(tmp_path / "r.csv")]) == 0
        row = read_csv(sum_path.read_text())[1]
        assert row[8] == "0"
        assert row[9] == row[10] == row[11] == "-1"


BASE_SPEC = "n = 4\nalgo = nsga2\npop_size = 5\niterations = 1\nstop = iters\n"


class TestBadInput:
    """Bad input ends with a documented exit code and one stderr line."""

    @pytest.mark.parametrize(
        "argv,spec,code",
        [
            pytest.param(
                ["run", "--n", "4", "--algo", "nsga2", "--pop-size", "5", "--seed", "-1"],
                None, 2, id="run-negative-seed",
            ),
            pytest.param(
                ["run", "--n", "4", "--algo", "nsga2", "--pop-size", "5", "--seeds", "0"],
                None, 2, id="run-zero-seeds",
            ),
            pytest.param(["verify", "--n", "5", "--p", "10"], None, 2, id="verify-odd-n"),
            pytest.param(["verify", "--n", "4", "--p", "0"], None, 2, id="verify-zero-p"),
            pytest.param(
                ["verify-min-p", "--n", "5", "--p-max", "10"], None, 2, id="min-p-odd-n"
            ),
            pytest.param(
                ["verify-min-p", "--n", "4", "--p-max", "3", "--p-min", "5"],
                None, 2, id="min-p-empty-range",
            ),
            pytest.param(
                ["run", "--n", "2", "--algo", "nsga3", "--pop-size", "1", "--divisions", "1"],
                None, 1, id="run-degenerate-population",
            ),
            pytest.param(
                ["run", "--n", "4", "--algo", "nsga2", "--pop-size", "5", "--jobs", "-3"],
                None, 2, id="run-negative-jobs",
            ),
            pytest.param(["sweep", "--jobs", "0"], BASE_SPEC, 2, id="sweep-zero-jobs"),
            pytest.param(["sweep"], BASE_SPEC + "seeds = 0\n", 2, id="spec-zero-seeds"),
            pytest.param(["sweep"], BASE_SPEC + "seeds = -2\n", 2, id="spec-negative-seeds"),
            pytest.param(["sweep"], BASE_SPEC + "seeds = x\n", 2, id="spec-seeds-not-a-number"),
            pytest.param(
                ["sweep"], BASE_SPEC.replace("n = 4", "n = x"), 2, id="spec-n-not-a-number"
            ),
            pytest.param(
                ["sweep"], BASE_SPEC.replace("iterations = 1", "iterations = 1.5"), 2,
                id="spec-iterations-not-an-integer",
            ),
            pytest.param(
                ["sweep"], BASE_SPEC + "crossover_rate = half\n", 2,
                id="spec-crossover-not-a-number",
            ),
            pytest.param(
                ["sweep"], BASE_SPEC.replace("pop_size = 5", "pop_mult = inf"), 2,
                id="spec-infinite-pop-mult",
            ),
            pytest.param(
                ["sweep"], BASE_SPEC + "mutation_prob = nan\n", 2, id="spec-nan-mutation-prob"
            ),
            pytest.param(["sweep"], BASE_SPEC.encode() + b"\xff\n", 2, id="spec-not-text"),
            pytest.param(
                ["run", "--n", "x", "--algo", "nsga2", "--pop-size", "5"],
                None, 2, id="run-n-not-an-integer",
            ),
            pytest.param(["run", "--n", "4", "--algo", "nsga2"], None, 2, id="run-no-pop-size"),
            pytest.param(["verify", "--n", "4,x", "--p", "10"], None, 2, id="verify-n-not-a-list"),
            pytest.param(["bogus", "--n", "4"], None, 2, id="unknown-subcommand"),
            pytest.param([], None, 2, id="no-subcommand"),
            pytest.param(
                ["sweep"], BASE_SPEC.replace("pop_size = 5", "pop_mult = 1e308"), 2,
                id="spec-pop-mult-overflows",
            ),
            pytest.param(
                ["sweep"],
                BASE_SPEC.replace("algo = nsga2", "algo = nsga3") + "div_mult = 1e308\n", 2,
                id="spec-div-mult-overflows",
            ),
            # sizes no numpy array can index are refused before anything is built
            pytest.param(
                ["verify", "--n", "4", "--p", "99999999999999999999"],
                None, 2, id="verify-p-past-int64",
            ),
            pytest.param(
                ["verify-min-p", "--n", "4", "--p-min", "99999999999999999990",
                 "--p-max", "99999999999999999999"],
                None, 2, id="min-p-range-past-int64",
            ),
            pytest.param(
                ["run", "--n", "4", "--algo", "nsga3", "--pop-size", "9",
                 "--divisions", "99999999999999999999", "--iterations", "1"],
                None, 2, id="run-divisions-past-int64",
            ),
            pytest.param(
                ["run", "--n", "4", "--algo", "nsga3", "--pop-size", "9",
                 "--divisions", "4611686018427387904", "--iterations", "1"],
                None, 2, id="run-lattice-past-intp",
            ),
            pytest.param(
                ["run", "--n", "4", "--algo", "nsga2", "--pop-size", "4611686018427387904",
                 "--iterations", "1"],
                None, 2, id="run-population-past-intp",
            ),
            pytest.param(
                ["run", "--n", "4611686018427387904", "--algo", "nsga2", "--pop-size", "9",
                 "--iterations", "1"],
                None, 2, id="run-genome-past-intp",
            ),
            pytest.param(
                ["verify-min-p", "--n", "1" + "0" * 400, "--p-max", "5"],
                None, 2, id="min-p-n-past-float",
            ),
            pytest.param(
                ["sweep"],
                BASE_SPEC.replace("n = 4", "n = 1" + "0" * 400)
                .replace("algo = nsga2", "algo = nsga3") + "div_mult = 2\n",
                2, id="spec-n-past-float",
            ),
        ],
    )
    def test_exit_code_and_one_line(self, capsys, tmp_path, argv, spec, code):
        if spec is not None:
            path = tmp_path / "bad.spec"
            path.write_bytes(spec if isinstance(spec, bytes) else spec.encode())
            argv = argv + [str(path), "--out", str(tmp_path / "runs.csv")]
        got, out, err = run_cli(capsys, *argv)
        assert got == code
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("out", ["", "outdir"], ids=["empty-path", "directory"])
    def test_failed_write_leaves_no_temporary(self, capsys, monkeypatch, tmp_path, out):
        # past the up-front path check, so that the write itself fails
        monkeypatch.setattr("moea_lab.cli._check_writable", lambda *paths: None)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "outdir").mkdir()
        got, _, err = run_cli(capsys, "verify", "--n", "4", "--p", "10", "--out", out)
        assert got == 1
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir"]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--help"])
        assert exit_info.value.code == 0
        assert "--pop-size" in capsys.readouterr().out


class TestOutputPaths:
    """An output path that cannot be written is refused before any work,
    with exit 1 and one line."""

    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the output paths were checked")

        for name in ("run_collect", "verify_unique_association", "minimal_p_search"):
            monkeypatch.setattr(f"moea_lab.cli.{name}", refuse)

    @pytest.mark.parametrize(
        "out", ["missing/out.csv", "outdir", ""], ids=["missing-dir", "directory", "empty"]
    )
    @pytest.mark.parametrize(
        "flag",
        ["run --out", "sweep --out", "sweep --summary-out", "verify --out", "verify-min-p --out",
         "verify --out, odd n"],
    )
    def test_refused_before_any_run(self, capsys, monkeypatch, tmp_path, flag, out):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "outdir").mkdir()
        (tmp_path / "sweep.spec").write_text(BASE_SPEC)
        argv = {
            "run --out": ["run", "--n", "4", "--algo", "nsga2", "--pop-size", "5", "--out", out],
            "sweep --out": ["sweep", "sweep.spec", "--out", out],
            "sweep --summary-out": ["sweep", "sweep.spec", "--out", "runs.csv",
                                    "--summary-out", out],
            "verify --out": ["verify", "--n", "4", "--p", "10", "--out", out],
            "verify-min-p --out": ["verify-min-p", "--n", "128", "--p-min", "91",
                                   "--p-max", "2688", "--out", out],
            # the path is checked before the arguments, so this exits 1, not 2
            "verify --out, odd n": ["verify", "--n", "5", "--p", "10", "--out", out],
        }[flag]
        got, stdout, err = run_cli(capsys, *argv)
        assert (got, stdout) == (1, "")
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["outdir", "sweep.spec"]


def _cap_address_space():
    # 2 GiB of address space: a request for tens of GiB is refused up front,
    # so the children below never touch the memory they ask for
    limit = 2 * 1024**3
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _run_capped(argv) -> subprocess.CompletedProcess:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-m", "moea_lab.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_cap_address_space,
    )


class TestHugeAllocation:
    """An allocation the system refuses exits 1 with one line, like any
    runtime failure; neither the engine nor the verifier asks for the
    lattice."""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(
                ["run", "--n", "4", "--algo", "nsga2", "--pop-size", "10000000000"],
                id="run-population-298GiB",
            ),
        ],
    )
    def test_exit_one_and_one_line(self, argv):
        done = _run_capped(argv)
        assert done.returncode == 1
        assert done.stdout == ""
        assert done.stderr.count("\n") == 1 and done.stderr.startswith("error: ")
        assert "Traceback" not in done.stderr

    def test_run_builds_no_lattice(self):
        # the p = 100,000 lattice would take 37 GiB; association scores each
        # value on its own candidate box
        done = _run_capped(["run", "--n", "4", "--algo", "nsga3", "--pop-size", "9",
                            "--divisions", "100000", "--iterations", "3"])
        assert done.returncode == 0, done.stderr
        rows = read_csv(done.stdout)
        assert rows[0] == RUN_COLUMNS
        assert len(rows) == 1 + 4  # header + iterations 0..3
        assert all(row[4] == "100000" for row in rows[1:])

    def test_verify_builds_no_lattice(self):
        # the p = 100,000 lattice would take 37 GiB; the verifier reads only p
        done = _run_capped(["verify", "--n", "4", "--p", "100000"])
        assert done.returncode == 0, done.stderr
        header, *rows = done.stdout.splitlines()
        assert header.split(",") == VERIFY_COLUMNS
        assert len(rows) == 1 and rows[0].split(",")[-2:] == ["true", "0"]

    def test_empty_message_gets_a_text(self, capsys, monkeypatch):
        def refuse(n, p):
            raise MemoryError

        monkeypatch.setattr("moea_lab.cli.verify_unique_association", refuse)
        assert run_cli(capsys, "verify", "--n", "4", "--p", "10") == (
            1, "", "error: out of memory\n"
        )


class TestJobs:
    class FakePool:
        """Pool stand-in that records its size and maps in this process."""

        sizes = []

        def __init__(self, processes):
            self.sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, func, tasks):
            return [func(task) for task in tasks]

    @pytest.mark.parametrize(
        "jobs,cpus,seeds,size",
        [(64, 2, 3, 2), (3, 8, 3, 3), (8, 8, 2, 2), (4, 1, 3, None), (1, 8, 3, None)],
    )
    def test_jobs_capped(self, capsys, monkeypatch, tmp_path, jobs, cpus, seeds, size):
        monkeypatch.setattr("moea_lab.cli.Pool", self.FakePool)
        monkeypatch.setattr("moea_lab.cli.os.cpu_count", lambda: cpus)
        self.FakePool.sizes = []
        spec = tmp_path / "jobs.spec"
        spec.write_text(BASE_SPEC + f"seeds = {seeds}\n")
        out = tmp_path / "runs.csv"
        assert main(["sweep", str(spec), "--jobs", str(jobs), "--out", str(out)]) == 0
        assert self.FakePool.sizes == ([] if size is None else [size])
        assert {row[0] for row in read_csv(out.read_text())[1:]} == {
            f"c0s{i}" for i in range(seeds)
        }


# Every number is drawn from a small fixed set, so each drawn run stays tiny;
# huge --pop-size, --p or --p-max values would allocate gigabytes and are
# not fuzzed. --jobs never exceeds 1, so no worker process is started.
# JUNK holds values out of range for most flags and keys, or not numbers.
JUNK = ["-2", "-1", "0", "0.5", "1.5", "1e308", "nan", "inf", "-inf", "x", "", "4,x"]
N_VALUES = ["3", "4", "8"]
FLAGS = {  # command: {flag: (values, required)}
    "run": {
        "--problem": (["omm", "3omm"], False),
        "--n": (N_VALUES, True),
        "--algo": (["nsga2", "nsga3"], True),
        "--pop-size": (["1", "5", "9", "30"], True),
        "--divisions": (["1", "4", "40"], False),
        "--seeds": (["1", "2"], False),
        "--seed": (["0", "7"], False),
        "--crossover-rate": (["0", "0.9", "1"], False),
        "--mutation-prob": (["0", "0.25", "1"], False),
        "--stop": (["iters", "coverage"], False),
        "--jobs": (["1"], False),
    },
    "verify": {
        "--n": (N_VALUES + ["4,8"], True),
        "--p": (["1", "10", "40", "1,40"], True),
    },
    "verify-min-p": {
        "--n": (N_VALUES, True),
        "--p-max": (["3", "40"], True),
        "--p-min": (["1", "5"], False),
    },
    "sweep": {"--seed": (["0", "7"], False), "--jobs": (["1"], False)},
    "bogus": {"--n": (N_VALUES, False)},
}
SPEC_VALUES = {  # key: (values, required)
    "problem": (["omm", "3omm"], False),
    "n": (N_VALUES, True),
    "algo": (["nsga2", "nsga3"], False),
    "pop_size": (["1", "9", "30"], False),
    "pop_mult": (["0.5", "1", "2", "1e308"], False),
    "divisions": (["1", "40"], False),
    "div_mult": (["0.5", "1", "5", "1e308"], False),
    "crossover_rate": (["0", "0.9"], False),
    "mutation_prob": (["0", "0.25"], False),
    "stop": (["iters", "coverage"], False),
    "seeds": (["1", "2"], False),
    # always set by cli_inputs: a default of 1000 iterations would make a sweep slow
    "iterations": (["0", "1", "3"], True),
}


@st.composite
def cli_inputs(draw):
    """An argv (paths under the placeholder <tmp>) and the text of a spec.

    Mostly well-formed: a required flag or key (other than iterations) is
    left out, and a value is junk, one time in ten.
    """

    def rare():
        return draw(st.sampled_from([False] * 9 + [True]))

    def value(values):
        return draw(st.sampled_from(JUNK if rare() else values))

    def chosen(table):
        return [
            key
            for key, (_, required) in table.items()
            if (not rare() if required else draw(st.booleans()))
        ]

    command = draw(
        st.sampled_from(["run", "run", "verify", "verify-min-p", "sweep", "sweep", "bogus", None])
    )
    if command is None:
        return [], ""
    argv = [command]
    if command == "sweep":
        argv.append("<tmp>" if rare() else "<tmp>/sweep.spec")
    if command == "run":
        argv += ["--iterations", value(["0", "1", "3"])]
    for flag in chosen(FLAGS[command]):
        argv += [flag, value(FLAGS[command][flag][0])]
    for flag in ["--out"] + (["--summary-out"] if command == "sweep" else []):
        if draw(st.booleans()):
            argv += [flag, "<tmp>/missing/out.csv" if rare() else "<tmp>/out.csv"]
    if rare():
        argv.append(draw(st.sampled_from(["--bogus", "x"])))
    if command != "sweep":
        return argv, ""

    keys = chosen(SPEC_VALUES)
    if "iterations" not in keys:
        keys.append("iterations")
    for pair in (["pop_size", "pop_mult"], ["divisions", "div_mult"]):
        if set(pair) <= set(keys) and not rare():
            keys.remove(draw(st.sampled_from(pair)))
    lines = []
    for key in keys:
        count = 1 if key in SPEC_SCALAR_KEYS else draw(st.integers(1, 2))
        values = [value(SPEC_VALUES[key][0]) for _ in range(count)]
        lines.append(f"{key} = " + ", ".join(values))
    if rare():
        lines.append(draw(st.sampled_from(["whatever", "= 3", "bogus = 1", "seeds = 1"])))
    return argv, "\n".join(draw(st.permutations(lines))) + "\n"


class TestFuzz:
    @settings(max_examples=1000, deadline=None)
    @given(cli_inputs())
    def test_exit_code_and_one_line(self, case):
        argv, spec = case
        with tempfile.TemporaryDirectory() as tmp:
            (Path(tmp) / "sweep.spec").write_text(spec)
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([arg.replace("<tmp>", tmp) for arg in argv])
        err = err.getvalue()
        assert code in (0, 1, 2)
        if code == 0:
            assert err == ""
        else:
            assert err.count("\n") == 1 and err.startswith("error: "), err
        assert "Traceback" not in err
