import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def side(setup_s, wall_s, rate, digests="a b c"):
    return {"attempted": 10, "failed": 0, "correct": True, "setup_s": setup_s,
            "wall_s": wall_s, "rate": rate, "record_digests": digests}


def synthetic_runs():
    """Four pairs on two workloads. On "flip", setup_s lands on a higher
    level (+30%, bound 25%) and rate drops by 20% (bound 10%), while wall_s
    improves; on "flat", every metric moves less than its bound."""
    runs = {}
    for i in range(4):
        jitter = 0.001 * i
        runs[str(i)] = {
            "seed": 100 + i,
            "first": "parent" if i % 2 == 0 else "change",
            "parent": {"flip": side(0.165 + jitter, 0.28 + jitter, 50.0),
                       "flat": side(0.2 + jitter, 0.1, 10.0)},
            "change": {"flip": side(0.215 + jitter, 0.22 + jitter, 40.0),
                       "flat": side(0.22 + jitter, 0.1, 9.5, "a b x")},
        }
    return runs


class TestSummarize:
    def test_marks_metrics_worse_than_their_bound(self):
        summary, _ = bench_pairs.summarize(synthetic_runs(), ["flip", "flat"], METRICS)
        marked = {w: {m["name"]: summary[w][m["name"]]["over_bound"] for m in METRICS}
                  for w in summary}
        assert marked == {
            "flip": {"setup_s": True, "wall_s": False, "rate": True},
            "flat": {"setup_s": False, "wall_s": False, "rate": False},
        }
        assert bench_pairs.over_bound(summary, METRICS) == ["flip:setup_s", "flip:rate"]

    def test_medians_wins_and_digests(self):
        summary, digests = bench_pairs.summarize(synthetic_runs(), ["flip", "flat"], METRICS)
        wall = summary["flip"]["wall_s"]
        assert wall["parent"]["median"] == 0.2815
        assert wall["change"]["median"] == 0.2215
        assert wall["change_wins"] == "4/4"
        assert summary["flat"]["wall_s"]["change_wins"] == "0/4"  # ties count for neither
        assert summary["flip"]["failed"] == {"parent": 0, "change": 0}
        assert summary["flip"]["all_correct"]
        assert digests["flip"]["100"]["equal_over_common_rounds"]
        assert not digests["flat"]["100"]["equal_over_common_rounds"]

    def test_a_failed_run_leaves_its_pair_out(self):
        runs = synthetic_runs()
        runs["3"]["change"]["flip"] = {"error": "exit 1: boom", "exit": 1}
        summary, _ = bench_pairs.summarize(runs, ["flip", "flat"], METRICS)
        assert summary["flip"]["wall_s"]["change_wins"] == "3/3"
        assert summary["flat"]["wall_s"]["change_wins"] == "0/4"
        assert not summary["flip"]["all_correct"]
