import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moea_lab.dominance import _box_codes, _distinct_rows, fast_nondominated_sort
from moea_lab.problems import pareto_front_3omm

from conftest import PRINT_PEAK_KB, dominates

SRC = Path(__file__).resolve().parents[1] / "src"


def brute_force_ranks(values, sense):
    """Quadratic oracle: iterated removal of non-strictly-dominated layers."""
    remaining = list(range(len(values)))
    fronts = []
    while remaining:
        layer = [
            i
            for i in remaining
            if not any(
                dominates(values[j], values[i], sense) == "strict"
                for j in remaining
                if j != i
            )
        ]
        fronts.append(layer)
        remaining = [i for i in remaining if i not in layer]
    return fronts


# kind -> (dtype, levels): rows that share one sum, the case the sort ranks
# without its domination matrix; near 2**62 the int64 sums of M >= 2 columns
# can wrap, so the sort must refuse that shortcut
EQUAL_SUM_KINDS = {
    "int8": (np.int8, (-3, 6)),
    "uint8": (np.uint8, (0, 6)),
    "int64": (np.int64, (-3, 6)),
    "bool": (np.bool_, (0, 2)),
    "int64 near 2**62": (np.int64, (2**62, 2**62 + 6)),
}


def draw_values(rng, kind, size, m):
    """Objective rows from a few levels, so equal rows and ties are common.
    An ``EQUAL_SUM_KINDS`` kind permutes one row, so all rows share its sum;
    half the time one row is then redrawn, which may break the tie."""
    if kind == "int":
        return rng.integers(0, 6, size=(size, m))
    if kind == "float":
        return rng.choice([-1.5, 0.0, 0.25, 1.0, 1.0 + 2**-52, 3.5], size=(size, m))
    dtype, levels = EQUAL_SUM_KINDS[kind]
    values = rng.permuted(np.tile(rng.integers(*levels, size=m), (size, 1)), axis=1)
    if rng.random() < 0.5:
        values[rng.integers(size)] = rng.integers(*levels, size=m)
    return values.astype(dtype)


class TestDominates:
    def test_identical_is_weak_not_strict(self):
        assert dominates((1, 1), (1, 1), "min") == "weak"

    def test_strictly_better_in_one(self):
        assert dominates((1, 2), (2, 2), "min") == "strict"

    def test_incomparable(self):
        assert dominates((1, 2), (2, 1), "min") == "none"

    def test_sense_flips_direction(self):
        assert dominates((2, 2), (1, 2), "max") == "strict"
        assert dominates((2, 2), (1, 2), "min") == "none"

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1, 2), (1, 2, 3), "min")

    def test_3omm_values_are_incomparable(self):
        front = pareto_front_3omm(8)
        for a in front[:10]:
            for b in front[:10]:
                if not np.array_equal(a, b):
                    assert dominates(a, b, "max") == "none"


class TestFastNondominatedSort:
    def test_single_individual(self):
        fronts = fast_nondominated_sort(np.array([[3, 1]]), "min")
        assert [f.tolist() for f in fronts] == [[0]]

    def test_three_layer_example(self):
        values = np.array([[1, 2], [2, 1], [2, 2], [3, 3]])
        fronts = fast_nondominated_sort(values, "min")
        assert [f.tolist() for f in fronts] == [[0, 1], [2], [3]]

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            fast_nondominated_sort(np.empty((0, 2)), "min")

    def test_3omm_population_is_one_front(self, rng):
        from moea_lab.problems import three_omm
        from moea_lab.genome import random_population

        prob = three_omm(10)
        values = prob.evaluate(random_population(40, 10, rng))
        fronts = fast_nondominated_sort(values, "max")
        assert len(fronts) == 1
        assert len(fronts[0]) == 40

    def test_front_at_n256_given_twice_stays_small(self):
        # 33,282 rows, 16,641 distinct: a domination matrix over the distinct
        # values alone would take 277 MB, so equal sums must skip it
        code = (
            "import numpy as np\n"
            "from moea_lab.dominance import fast_nondominated_sort\n"
            "from moea_lab.problems import pareto_front_3omm\n"
            "front = pareto_front_3omm(256)\n"
            "fronts = fast_nondominated_sort(np.concatenate([front, front]), 'max')\n"
            "assert len(fronts) == 1 and len(fronts[0]) == 2 * len(front)\n"
            + PRINT_PEAK_KB
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < 100 * 1024  # kB

    def test_duplicates_share_a_front(self):
        values = np.array([[1, 1], [1, 1], [2, 2]])
        fronts = fast_nondominated_sort(values, "min")
        assert fronts[0].tolist() == [0, 1]
        assert fronts[1].tolist() == [2]

    def test_fronts_partition_input(self, rng):
        values = rng.integers(0, 5, size=(30, 3))
        fronts = fast_nondominated_sort(values, "min")
        combined = np.sort(np.concatenate(fronts))
        assert combined.tolist() == list(range(30))

    def test_stable_within_front(self, rng):
        values = rng.integers(0, 4, size=(25, 2))
        for front in fast_nondominated_sort(values, "max"):
            assert np.all(np.diff(front) > 0)

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 64),
        m=st.integers(1, 4),
        kind=st.sampled_from(["int", "float", *EQUAL_SUM_KINDS]),
        sense=st.sampled_from(["min", "max"]),
    )
    @settings(max_examples=240, deadline=None)
    def test_matches_brute_force_oracle(self, seed, size, m, kind, sense):
        rng = np.random.default_rng(seed)
        values = draw_values(rng, kind, size, m)
        fronts = fast_nondominated_sort(values, sense)
        oracle = brute_force_ranks(values, sense)
        assert [sorted(f.tolist()) for f in fronts] == [sorted(f) for f in oracle]

    @pytest.mark.parametrize("values,expected", [
        ([[0], [1]], [[1], [0]]),
        ([[0, 1], [1, 2]], [[1], [0]]),
    ])
    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.uint64])
    def test_unsigned_max_examples(self, values, expected, dtype):
        fronts = fast_nondominated_sort(np.array(values, dtype=dtype), "max")
        assert [f.tolist() for f in fronts] == expected

    def test_bool_max_example(self):
        fronts = fast_nondominated_sort(np.array([[False], [True]]), "max")
        assert [f.tolist() for f in fronts] == [[1], [0]]

    @pytest.mark.parametrize("values", [
        # both int64 sums wrap to -2**62; the overflow guard must see that
        np.array([[2**62] * 3, [2**62, -(2**63), 0]], dtype=np.int64),
        # 1e16 + 1 rounds to 1e16; float rows must not take the shortcut
        np.array([[1e16, 1.0], [1e16, 0.0]]),
    ], ids=["int64-wrapped", "float-rounded"])
    @pytest.mark.parametrize("sense,expected", [("max", [[0], [1]]), ("min", [[1], [0]])])
    def test_sums_that_compare_equal_are_two_fronts(self, values, sense, expected):
        # the first row strictly dominates the second under "max"
        sums = values.sum(axis=1)
        assert sums[0] == sums[1]
        fronts = fast_nondominated_sort(values, sense)
        assert [f.tolist() for f in fronts] == expected

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 64),
        m=st.integers(1, 4),
        dtype=st.sampled_from([np.uint8, np.uint64, np.bool_]),
        sense=st.sampled_from(["min", "max"]),
    )
    @settings(max_examples=120, deadline=None)
    def test_unsigned_and_bool_match_int64(self, seed, size, m, dtype, sense):
        high = 2 if dtype is np.bool_ else 6
        values = np.random.default_rng(seed).integers(0, high, size=(size, m))
        fronts = fast_nondominated_sort(values.astype(dtype), sense)
        expected = fast_nondominated_sort(values, sense)
        assert [f.tolist() for f in fronts] == [f.tolist() for f in expected]


class TestDistinctRows:
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 200),
        m=st.integers(1, 4),
        kind=st.sampled_from(["int", "float"]),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy_unique(self, seed, size, m, kind):
        values = draw_values(np.random.default_rng(seed), kind, size, m)
        uniq, inverse = _distinct_rows(values)
        expected, expected_inverse = np.unique(values, axis=0, return_inverse=True)
        assert uniq.dtype == expected.dtype
        assert np.array_equal(uniq, expected)
        assert np.array_equal(inverse, expected_inverse.ravel())

    @pytest.mark.parametrize("row", [[3], [2.5, -1.0], [0, 4, 1, 7]])
    def test_one_row(self, row):
        uniq, inverse = _distinct_rows(np.array([row]))
        assert uniq.tolist() == [row]
        assert inverse.tolist() == [0]

    # (dtype, offset, scale): each column is offset + scale * (ints 0..5)
    WIDE_ROWS = {
        "near +2**62": (np.int64, 2**62, 1),
        "near -2**62": (np.int64, -(2**62), 1),
        "span past int64": (np.int64, -(2**62), 2**61),
        "uint64 past int64 max": (np.uint64, 2**63 + 7, 1),
        "uint64 span past int64": (np.uint64, 0, 2**61),
        "span product past int64": (np.int64, -5, 2**22),
    }

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 120),
        m=st.integers(1, 4),
        case=st.sampled_from(sorted(WIDE_ROWS)),
    )
    @settings(max_examples=200, deadline=None)
    def test_wide_integers_match_numpy_unique(self, seed, size, m, case):
        # rows 0 and 1 are the box's corners, so whether the codes fit in
        # int64, and so which path runs, is known from the case
        dtype, offset, scale = self.WIDE_ROWS[case]
        small = np.random.default_rng(seed).integers(0, 6, size=(size, m))
        small[:2] = [[0] * m, [5] * m][:size]
        values = np.array([[offset + scale * int(v) for v in row] for row in small], dtype=dtype)
        columns = values.T
        fits = (5 * scale + 1 if size > 1 else 1) ** m <= np.iinfo(np.int64).max
        codes = _box_codes(columns, [c.min() for c in columns], [c.max() for c in columns])
        assert (codes is not None) == fits

        uniq, inverse = _distinct_rows(values)
        expected, expected_inverse = np.unique(values, axis=0, return_inverse=True)
        assert uniq.dtype == expected.dtype
        assert np.array_equal(uniq, expected)
        assert np.array_equal(inverse, expected_inverse.ravel())

    def test_far_apart_rows_allocate_nothing_of_the_gap(self):
        values = np.array([[0], [2**40], [0]])
        tracemalloc.start()
        try:
            uniq, inverse = _distinct_rows(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert uniq.tolist() == [[0], [2**40]]
        assert inverse.tolist() == [0, 1, 0]
        assert peak < 2**16
