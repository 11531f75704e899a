import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moea_lab import analysis
from moea_lab.analysis import (
    coverage,
    detect_loss,
    minimal_p_search,
    verify_unique_association,
)
from moea_lab.problems import make_problem, pareto_front_3omm, three_omm
from moea_lab.refpoints import generate_reference_points

from conftest import (
    PRINT_PEAK_KB,
    exhaustive_min_pairwise_angle,
    stacked_nearest,
    tuple_set_coverage,
)

# float rounding in arccos of a cosine within one ulp of 1
ANGLE_SLACK = 1e-12

SRC = Path(__file__).resolve().parents[1] / "src"

# AngleReport fields at n in {2, 4, 8, 12, 16, 40}, p in {1, 7, ceil(4.65 n),
# 21 n}, angles as float.hex; made by the verifier that took the pairwise
# minimum inside every report and scored candidates on (rows x candidates x
# 3) stacks
ANGLE_REPORTS = Path(__file__).parent / "golden" / "angle_reports.csv"

# p_min of minimal_p_search(n, 21 n) for even n, as the dense verifier found it
P_MIN = {
    2: 2, 4: 5, 6: 8, 8: 10, 10: 12, 12: 16, 14: 18, 16: 20, 18: 24, 20: 26,
    22: 28, 24: 32, 26: 34, 28: 38, 30: 40, 32: 42, 34: 46, 36: 48, 38: 52, 40: 54,
}


def dense_verify(n, p):
    """Oracle: the front x lattice cosine matrix, argmax per front value.

    Returns (collisions, separated, max_assoc_angle); ties fall to argmax.
    """
    nf = pareto_front_3omm(n) / np.array([n, n / 2, n / 2])
    units = generate_reference_points(3, p).unit_points
    norms = np.linalg.norm(nf, axis=1)
    cos_to_refs = np.clip((nf @ units.T) / norms[:, None], -1.0, 1.0)
    assoc = np.argmax(cos_to_refs, axis=1)
    max_assoc_angle = float(np.arccos(cos_to_refs[np.arange(len(nf)), assoc]).max())
    unit_front = nf / norms[:, None]
    cos_pairs = np.clip(unit_front @ unit_front.T, -1.0, 1.0)
    np.fill_diagonal(cos_pairs, -1.0)
    min_pairwise_angle = float(np.arccos(cos_pairs.max()))
    collisions = len(nf) - len(np.unique(assoc))
    return collisions, min_pairwise_angle > 2.0 * max_assoc_angle, max_assoc_angle


class TestCoverage:
    def test_full_coverage(self):
        front = pareto_front_3omm(4)
        assert coverage(front, front) == {tuple(v) for v in front}

    def test_direct_evaluation(self):
        prob = three_omm(4)
        pop = np.array([[0, 0, 0, 0], [1, 1, 1, 1]], dtype=np.uint8)
        covered = coverage(prob.evaluate(pop), prob.front())
        assert covered == {(4, 0, 0), (0, 2, 2)}

    def test_nonempty_population_always_covers_something(self, rng):
        # 3-OMM: every genome sits on the front
        prob = three_omm(8)
        pop = (rng.random((5, 8)) < 0.5).astype(np.uint8)
        assert len(coverage(prob.evaluate(pop), prob.front())) >= 1

    def test_box_past_int64_matches_tuple_set_oracle(self):
        # (2**40 + 1)**2 cells, more than int64 can count: codes in int64
        # would wrap and match the first row to (0, 0)
        front = np.array([[0, 0], [2**40, 2**40]])
        rows = np.array([[2**24 - 1, 2**40 - 2**24 + 1], [2**40, 2**40]])
        assert coverage(rows, front) == tuple_set_coverage(rows, front) == {(2**40, 2**40)}

    @given(
        problem=st.sampled_from(["omm", "3omm"]),
        n=st.sampled_from([2, 4, 6, 10, 16]),
        seed=st.integers(0, 2**32 - 1),
        on_front=st.integers(0, 40),
        elsewhere=st.integers(0, 40),
        repeats=st.integers(0, 40),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_tuple_set_oracle(self, problem, n, seed, on_front, elsewhere, repeats):
        # front rows, rows from a range wider than the front's bounding box
        # (off the front, and outside the box), then repeats of both
        front = make_problem(problem, n).front()
        rng = np.random.default_rng(seed)
        rows = np.concatenate([
            front[rng.integers(len(front), size=on_front)],
            rng.integers(-2, n + 3, size=(elsewhere, front.shape[1])),
        ])
        if len(rows):
            rows = np.concatenate([rows, rows[rng.integers(len(rows), size=repeats)]])
        rows = rows[rng.permutation(len(rows))]
        covered = coverage(rows, front)
        assert covered == tuple_set_coverage(rows, front)
        assert all(type(v) is int for value in covered for v in value)


class TestDetectLoss:
    def test_equal_sets(self):
        s = {(1, 1, 0), (2, 0, 0)}
        assert detect_loss(s, set(s)) == []

    def test_set_difference(self):
        assert detect_loss({(1,), (2,)}, {(2,), (3,)}) == [(1,)]


class TestVerifyUniqueAssociation:
    def test_n2_p42_proof_bound(self):
        # the worked bound: acos(1 - 1/24) > 2 acos(1 - 18/42^2)
        assert math.acos(1 - 1 / 24) > 2 * math.acos(1 - 18 / 42**2)
        report = verify_unique_association(2, 42)
        assert report.collisions == 0
        assert report.separated

    @pytest.mark.parametrize("n,p", [(2, 42), (4, 84), (8, 168), (6, 30), (8, 40)])
    def test_max_association_angle_bound(self, n, p):
        report = verify_unique_association(n, p)
        assert report.max_assoc_angle <= math.acos(1 - 18 / p**2) + ANGLE_SLACK

    @pytest.mark.parametrize("n,p", [(2, 42), (4, 84), (8, 168), (8, 40)])
    def test_min_pairwise_angle_bound(self, n, p):
        report = verify_unique_association(n, p)
        assert report.min_pairwise_angle >= math.acos(1 - 1 / (6 * n**2)) - ANGLE_SLACK

    def test_n8_at_21n_collision_free(self):
        report = verify_unique_association(8, 168)
        assert report.collisions == 0

    def test_separation_implies_zero_collisions(self):
        for n in (2, 4, 6, 8):
            for p in (3, 10, 25, 21 * n):
                report = verify_unique_association(n, p)
                if report.separated:
                    assert report.collisions == 0

    @pytest.mark.parametrize("n", [2, 4, 6, 8])
    def test_matches_dense_oracle(self, n):
        for p in range(1, 21 * n + 1):
            report = verify_unique_association(n, p)
            collisions, separated, max_assoc_angle = dense_verify(n, p)
            assert (report.collisions == 0) == (collisions == 0), p
            assert report.separated == separated, p
            assert report.max_assoc_angle == pytest.approx(max_assoc_angle, abs=1e-7), p

    def test_collisions_without_ties_count_shared_points(self):
        # no value has a tie: collisions is values minus occupied points
        n = 8
        dirs = pareto_front_3omm(n) * np.array([1, 2, 2])
        checked = 0
        for p in range(1, 21 * n + 1):
            _, index, tie = stacked_nearest(generate_reference_points(3, p), dirs)
            if np.all(tie.sum(axis=1) == 1):
                occupied = len(np.unique(index[tie]))
                assert verify_unique_association(n, p).collisions == len(dirs) - occupied
                checked += 1
        assert checked > 0

    def test_mirror_tie_is_not_a_collision(self):
        # (10, 3, 3) normalizes to (0.625, 0.375, 0.375), equidistant from
        # the mirror images (34, 20, 21)/75 and (34, 21, 20)/75
        n, p = 16, math.ceil(4.65 * 16)
        refs = generate_reference_points(3, p)
        _, index, tie = stacked_nearest(refs, [(0.625, 0.375, 0.375)])
        points = refs.points
        held = {tuple(np.round(points[i] * p).astype(int)) for i in index[tie]}
        assert held == {(34, 20, 21), (34, 21, 20)}
        assert verify_unique_association(n, p).collisions == 0

    def test_collision_free_at_scale(self):
        # 1,089 front values against 905,185 reference points
        n, p = 64, 21 * 64
        report = verify_unique_association(n, p)
        assert report.collisions == 0
        assert report.separated
        assert report.max_assoc_angle <= math.acos(1 - 18 / p**2)

    @pytest.mark.parametrize("n", [*range(2, 65, 2), 128])
    def test_min_pairwise_angle_matches_whole_matrix(self, n):
        # the one-step neighbour minimum is the minimum over all pairs, bit
        # for bit
        assert verify_unique_association(n, 5).min_pairwise_angle == (
            exhaustive_min_pairwise_angle(n)
        )

    def test_min_pairwise_angle_at_n1024(self):
        # 263,169 front values: 250 times the pairs of n = 256, where the
        # all-pairs scan already takes seconds
        n = 1024
        code = (
            "from moea_lab.analysis import _min_pairwise_angle\n"
            f"print(_min_pairwise_angle({n}).hex())\n" + PRINT_PEAK_KB
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        angle, peak_kb = result.stdout.split()
        assert float.fromhex(angle) >= math.acos(1 - 1 / (6 * n**2)) - ANGLE_SLACK
        assert int(peak_kb) < 250 * 1024

    def test_memory_bounded_at_n256(self):
        # 16,641 front values against 14,458,753 reference points: the
        # lattice alone would take 347 MB, a front x front angle matrix 2.2 GB
        code = (
            "from moea_lab.analysis import verify_unique_association\n"
            "assert verify_unique_association(256, 5376).collisions == 0\n"
            + PRINT_PEAK_KB
        )
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
        result = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert int(result.stdout) < 150 * 1024  # kB

    @pytest.mark.parametrize("p", [6, 42])
    def test_lattice_line_hits_are_exact(self, p):
        # every n = 2 front value lies on a lattice line
        assert verify_unique_association(2, p).max_assoc_angle <= 1e-15

    def test_too_few_points_collide(self):
        # p=2 gives 6 reference points for 9 front values
        report = verify_unique_association(4, 2)
        assert report.collisions > 0


class TestPairwiseMinimumCache:
    def test_search_takes_the_minimum_once(self):
        # the scan reaches p = 20: 20 reports, one minimum
        analysis._min_pairwise_angle.cache_clear()
        assert minimal_p_search(16, 336).p_min == 20
        assert analysis._min_pairwise_angle.cache_info().misses == 1

    def test_reports_from_the_cache_equal_cold_ones(self):
        analysis._min_pairwise_angle.cache_clear()
        cases = [(8, 40), (8, 168), (16, 40), (8, 40), (16, 75), (16, 7)]
        warm = [verify_unique_association(n, p) for n, p in cases]
        assert analysis._min_pairwise_angle.cache_info().hits == 2
        for (n, p), report in zip(cases, warm):
            analysis._min_pairwise_angle.cache_clear()
            assert verify_unique_association(n, p) == report

    def test_reports_match_table(self):
        lines = ANGLE_REPORTS.read_text().splitlines()
        assert lines[0] == "n,p,min_pairwise_angle,max_assoc_angle,separated,collisions"
        found = []
        for line in lines[1:]:
            n, p = map(int, line.split(",")[:2])
            r = verify_unique_association(n, p)
            found.append(
                f"{r.n},{r.p},{r.min_pairwise_angle.hex()},{r.max_assoc_angle.hex()},"
                f"{r.separated},{r.collisions}"
            )
        assert found == lines[1:]
        assert len(found) == 24


class TestMinimalPSearch:
    def test_lower_bound_respected(self):
        for n in (4, 8, 12):
            result = minimal_p_search(n, p_max=21 * n)
            assert result.p_min is not None
            assert result.p_min >= result.lower_bound == math.ceil(n / math.sqrt(2))

    def test_upper_bound_21n(self):
        for n in (4, 8, 12, 16, 20):
            result = minimal_p_search(n, p_max=21 * n)
            assert result.p_min is not None and result.p_min <= 21 * n

    def test_p_min_table(self):
        found = {n: minimal_p_search(n, p_max=21 * n).p_min for n in P_MIN}
        assert found == P_MIN

    def test_not_found_reported(self):
        result = minimal_p_search(12, p_max=3)
        assert result.p_min is None
        assert result.p_searched_max == 3

    def test_invalid_range(self):
        with pytest.raises(ValueError):
            minimal_p_search(8, p_max=2, p_min=5)
