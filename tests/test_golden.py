"""Golden CLI outputs: each command below must reproduce its stored CSVs
byte for byte.

The commands run in a fresh interpreter (``python -m moea_lab.cli``) with
``OPENBLAS_NUM_THREADS=1``: association ties depend on how BLAS blocks its
matrix product, so the thread count is pinned. To regenerate the fixtures
after a change that is meant to alter the random-draw stream, run each
command from ``tests/golden/`` with the same variable set; every command
writes its CSVs there under the names it lists.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"

# (id, argv after ``python -m moea_lab.cli``, CSVs the command writes)
CASES = [
    (
        "run-nsga3-mutation-odd-N",
        ["run", "--n", "12", "--algo", "nsga3", "--pop-size", "49",
         "--divisions", "252", "--iterations", "60", "--seed", "3",
         "--out", "run_nsga3.csv"],
        ["run_nsga3.csv"],
    ),
    (
        "run-nsga3-crossover-odd-N",
        ["run", "--n", "16", "--algo", "nsga3", "--pop-size", "81",
         "--divisions", "75", "--crossover-rate", "0.9", "--iterations", "150",
         "--seed", "5", "--out", "run_nsga3_xover.csv"],
        ["run_nsga3_xover.csv"],
    ),
    (
        "run-nsga2-crossover",
        ["run", "--n", "12", "--algo", "nsga2", "--pop-size", "50",
         "--crossover-rate", "0.5", "--iterations", "60", "--seeds", "2",
         "--seed", "7", "--out", "run_nsga2.csv"],
        ["run_nsga2.csv"],
    ),
    (
        "sweep",
        ["sweep", "sweep.spec", "--seed", "4", "--out", "sweep_runs.csv",
         "--summary-out", "sweep_summary.csv"],
        ["sweep_runs.csv", "sweep_summary.csv"],
    ),
    (
        "verify-grid",
        ["verify", "--n", "4,8,12,16", "--p", "1,5,10,37,75,252",
         "--out", "verify.csv"],
        ["verify.csv"],
    ),
    (
        "verify-min-p",
        ["verify-min-p", "--n", "12", "--p-max", "252", "--out", "verify_min_p.csv"],
        ["verify_min_p.csv"],
    ),
]


@pytest.mark.parametrize(
    "argv,outputs", [case[1:] for case in CASES], ids=[case[0] for case in CASES]
)
def test_cli_output_matches_golden(tmp_path, argv, outputs):
    shutil.copy(GOLDEN / "sweep.spec", tmp_path)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    env.pop("MOEA_LAB_SEED", None)
    result = subprocess.run(
        [sys.executable, "-m", "moea_lab.cli", *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    for name in outputs:
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
