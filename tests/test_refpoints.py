import dataclasses
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from moea_lab import analysis, refpoints
from moea_lab.engine import RunConfig, run_collect
from moea_lab.problems import pareto_front_3omm
from moea_lab.refpoints import (
    _TIE_RTOL,
    ReferencePointSet,
    _box_offsets,
    generate_reference_points,
)

from conftest import angle_between, perpendicular_distance, stacked_nearest


def composition_count(total, parts):
    """Independent enumeration of compositions (count only)."""
    return sum(
        1
        for combo in itertools.product(range(total + 1), repeat=parts - 1)
        if sum(combo) <= total
    )


def recursive_compositions(total, parts):
    """Oracle: the lattice built one first part at a time, by recursion."""
    if parts == 1:
        return np.array([[total]], dtype=np.int64)
    rows = []
    for first in range(total + 1):
        rest = recursive_compositions(total - first, parts - 1)
        block = np.empty((rest.shape[0], parts), dtype=np.int64)
        block[:, 0] = first
        block[:, 1:] = rest
        rows.append(block)
    return np.concatenate(rows, axis=0)


def assert_same_lattice(dim, p):
    expected = recursive_compositions(p, dim) / float(p)
    points = generate_reference_points(dim, p).points
    assert points.dtype == expected.dtype and points.shape == expected.shape
    assert points.tobytes() == expected.tobytes()


class TestGeneration:
    def test_simplex_corners(self):
        refs = generate_reference_points(3, 1)
        assert {tuple(p) for p in refs.points} == {
            (1.0, 0.0, 0.0),
            (0.0, 1.0, 0.0),
            (0.0, 0.0, 1.0),
        }

    def test_p4_count(self):
        assert len(generate_reference_points(3, 4)) == 15

    def test_p2_contains_midpoint(self):
        refs = generate_reference_points(3, 2)
        assert len(refs) == 6
        assert (0.5, 0.5, 0.0) in {tuple(p) for p in refs.points}

    def test_equal_sets_compare_and_hash_equal(self):
        refs = generate_reference_points(3, 4)
        assert refs == ReferencePointSet(p=4, dim=3)
        assert hash(refs) == hash(ReferencePointSet(p=4, dim=3))
        assert refs != generate_reference_points(3, 5)
        assert len({refs, ReferencePointSet(p=4, dim=3)}) == 1

    def test_zero_divisions_rejected(self):
        with pytest.raises(ValueError):
            generate_reference_points(3, 0)

    def test_invariants(self):
        refs = generate_reference_points(3, 12)
        sums = refs.points.sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-12)
        assert np.all(refs.points >= 0)
        scaled = np.round(refs.points * 12)
        assert np.allclose(refs.points * 12, scaled, atol=1e-9)
        assert len(np.unique(refs.points, axis=0)) == len(refs)

    def test_lexicographic_order(self):
        pts = generate_reference_points(3, 5).points
        as_tuples = [tuple(p) for p in pts]
        assert as_tuples == sorted(as_tuples)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_count_formula(self, dim):
        for p in range(1, 31):
            expected = math.comb(p + dim - 1, dim - 1)
            assert len(generate_reference_points(dim, p)) == expected
            if p <= 6 and dim <= 4:
                assert composition_count(p, dim) == expected

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    def test_matches_recursive_oracle(self, dim):
        for p in range(1, 13):
            assert_same_lattice(dim, p)

    @pytest.mark.parametrize("p", [186, 672])
    def test_matches_recursive_oracle_large(self, p):
        assert_same_lattice(3, p)

    @pytest.mark.parametrize("p", [1, 2, 5, 17, 50, 200])
    def test_adjacent_lattice_distance(self, p):
        # neighbors along one exchange move sit sqrt(2)/p apart
        points = generate_reference_points(3, p).points
        index = {tuple(np.round(r * p).astype(int)): i for i, r in enumerate(points)}
        side = math.sqrt(2) / p
        checked = 0
        for key in index:
            a, b, c = key
            if a > 0:
                neighbor = (a - 1, b + 1, c)
                d = np.linalg.norm(points[index[key]] - points[index[neighbor]])
                assert abs(d - side) < 1e-12
                checked += 1
        assert checked > 0


class TestUnitPoints:
    @pytest.mark.parametrize("dim,p", [(2, 7), (3, 12), (4, 5)])
    def test_cached_and_normalized(self, dim, p):
        refs = generate_reference_points(dim, p)
        units = refs.unit_points
        points = refs.points
        # bit for bit the whole-lattice normalization
        assert np.array_equal(units, points / np.linalg.norm(points, axis=1, keepdims=True))
        expected = np.array([row / np.linalg.norm(row) for row in points])
        np.testing.assert_allclose(units, expected, rtol=4 * np.finfo(float).eps, atol=0)

    @pytest.mark.parametrize("dim", range(2, refpoints._MAX_NEAREST_DIM + 1))
    def test_units_bit_equal_to_linalg_norm(self, dim):
        # random boxes' worth of points, then the whole lattice
        p = 997
        boxes = list(np.random.default_rng(dim).integers(0, p, size=(dim, 400, 36)) + 1)
        whole = list(refpoints._compositions(12, dim).T)
        for grid, q in [(boxes, p), (whole, 12)]:
            points = np.stack(grid, axis=-1) / float(q)
            want = points / np.linalg.norm(points, axis=-1, keepdims=True)
            assert refpoints._units(grid, q).tobytes() == want.tobytes()

    def test_verifier_builds_no_lattice(self, monkeypatch):
        config = RunConfig(problem="3omm", n=8, pop_size=25, algorithm="nsga3",
                           divisions=168, max_iterations=5, seed=[3, 0])

        def outputs():
            records = [dataclasses.replace(r, wall_time=0.0) for r in run_collect(config)]
            return (analysis.verify_unique_association(8, 40),
                    analysis.minimal_p_search(8, 20), records)

        expected = outputs()

        def refuse(total, parts):
            raise AssertionError("a lattice was built")

        monkeypatch.setattr(refpoints, "_compositions", refuse)
        assert outputs() == expected


class TestPerpendicularDistance:
    def test_point_on_own_line(self):
        assert perpendicular_distance((0.2, 0.3, 0.5), (0.2, 0.3, 0.5)) == 0.0

    def test_collinear_scaling(self):
        r = np.array([0.1, 0.4, 0.5])
        assert perpendicular_distance(2 * r, r) < 1e-15

    def test_orthogonal_axes(self):
        assert perpendicular_distance((1, 0, 0), (0, 1, 0)) == pytest.approx(1.0)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            perpendicular_distance((1, 0, 0), (0, 0, 0))


class TestAngleBetween:
    def test_same_vector(self):
        assert angle_between((1, 2, 3), (1, 2, 3)) == pytest.approx(0.0)

    def test_orthogonal(self):
        assert angle_between((1, 0, 0), (0, 1, 0)) == pytest.approx(math.pi / 2)

    def test_45_degrees(self):
        assert angle_between((1, 1, 0), (1, 0, 0)) == pytest.approx(math.pi / 4)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            angle_between((0, 0, 0), (1, 0, 0))

    def test_clamped_at_collinear(self):
        v = np.array([0.1, 0.2, 0.7])
        assert angle_between(v, 3.0 * v) == pytest.approx(0.0, abs=1e-7)


class TestNearestCriterionEquivalence:
    def test_angle_and_perpendicular_agree(self, rng):
        # nearest-by-angle equals nearest-by-perpendicular-distance for
        # non-negative vectors
        points = generate_reference_points(3, 7).points
        for _ in range(200):
            v = rng.random(3)
            if np.linalg.norm(v) < 1e-9:
                continue
            by_dist = min(points, key=lambda r: perpendicular_distance(v, r))
            by_angle = min(points, key=lambda r: angle_between(v, r))
            d_dist = perpendicular_distance(v, by_dist)
            d_angle = perpendicular_distance(v, by_angle)
            assert abs(d_dist - d_angle) < 1e-12


def brute_force_nearest(refs, v):
    """Oracle: perpendicular distances to every lattice line, and the
    indices within the tie tolerance of the smallest."""
    dists = np.array([perpendicular_distance(v, r) for r in refs.points])
    return dists.min(), set(np.flatnonzero(dists <= dists.min() * (1 + _TIE_RTOL)))


def sample_rows(rng, dim, count):
    """Random non-negative rows, a third with zeroed coordinates, and rows
    with two equal coordinates, whose mirror-image lattice points tie."""
    rows = rng.random((count, dim))
    zeroed = rng.random((count, dim)) < 0.3
    zeroed[np.arange(count) % 3 != 0] = False
    rows[zeroed] = 0.0
    rows[rows.sum(axis=1) == 0, 0] = 1.0
    mirrored = rng.random((count, dim))
    mirrored[:, 1] = mirrored[:, 0]
    return np.vstack([rows, mirrored, np.eye(dim), np.ones((1, dim))])


class TestNearest:
    @pytest.mark.parametrize("dim,p", [(2, 1), (2, 7), (2, 40), (3, 1), (3, 2), (3, 5), (3, 13), (3, 30)])
    def test_matches_brute_force(self, rng, dim, p):
        refs = generate_reference_points(dim, p)
        rows = sample_rows(rng, dim, 40)
        assert_same_nearest(refs, rows)
        angle, row, index = refs.nearest(rows)
        ties_seen = 0
        for i, (v, a) in enumerate(zip(rows, angle)):
            d_min, expected = brute_force_nearest(refs, v)
            assert set(index[row == i]) == expected
            assert a == pytest.approx(math.asin(min(d_min / np.linalg.norm(v), 1.0)), abs=1e-12)
            ties_seen += len(expected) > 1
        if dim == 3 and p > 1:  # mirrored rows tie
            assert ties_seen > 0

    def test_candidates_in_lattice_order(self, rng):
        refs = generate_reference_points(3, 20)
        rows = sample_rows(rng, 3, 50)
        _, row, index = refs.nearest(rows)
        assert np.all(np.diff(row) >= 0)
        assert np.all(np.diff(index)[np.diff(row) == 0] > 0)
        assert set(row.tolist()) == set(range(len(rows)))

    def test_lattice_hit_has_zero_angle(self):
        refs = generate_reference_points(3, 12)
        rows = refs.points * 12
        assert_same_nearest(refs, rows)
        angle, row, index = refs.nearest(rows)
        assert np.all(angle == 0.0)
        assert row.tolist() == index.tolist() == list(range(len(refs)))

    @pytest.mark.parametrize("row", [(0.2, -0.1, 0.9), (0.0, 0.0, 0.0), (np.nan, 0.1, 0.1)])
    def test_invalid_rows_rejected(self, row):
        refs = generate_reference_points(3, 4)
        with pytest.raises(ValueError):
            refs.nearest([(0.1, 0.2, 0.7), row])

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError):
            generate_reference_points(3, 4).nearest([(0.5, 0.5)])


def assert_same_nearest(refs, rows):
    angle, row, index = refs.nearest(rows)
    want_angle, want_index, want_tie = stacked_nearest(refs, rows)
    assert angle.dtype == want_angle.dtype and angle.tobytes() == want_angle.tobytes()
    assert np.array_equal(row, np.nonzero(want_tie)[0])
    assert index.dtype == want_index.dtype and np.array_equal(index, want_index[want_tie])


# a coordinate: zero, integer-valued, or any float up to 1e6
COORDINATES = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.integers(0, 1000).map(float),
    st.floats(0.0, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def nearest_cases(draw):
    dim = draw(st.integers(2, 6))
    p = draw(st.integers(1, 840))
    row = st.lists(COORDINATES, min_size=dim, max_size=dim).filter(lambda r: sum(r) > 0)
    return dim, p, draw(st.lists(row, min_size=1, max_size=12))


class TestPlaneWiseNearest:
    @given(nearest_cases())
    @example((3, 75, [[10.0, 6.0, 6.0], [0.625, 0.375, 0.375]]))  # n = 16 mirror tie
    @example((6, 840, [[0.0, 0.0, 0.0, 0.0, 0.0, 1.0], [1.0] * 6]))
    @example((2, 1, [[0.0, 3.0], [5e-324, 1.0]]))
    def test_matches_stacked_oracle(self, case):
        dim, p, rows = case
        assert_same_nearest(generate_reference_points(dim, p), np.array(rows))

    @pytest.mark.parametrize("n", range(2, 41, 2))
    def test_matches_stacked_oracle_on_fronts(self, n):
        dirs = (pareto_front_3omm(n) * np.array([1, 2, 2])).astype(float)
        for p in (1, math.ceil(4.65 * n), 21 * n):
            assert_same_nearest(generate_reference_points(3, p), dirs)

    def test_box_offsets_built_once_and_read_only(self):
        offsets = _box_offsets(4)
        assert _box_offsets(4) is offsets
        assert offsets.shape == (3, 6**3)
        with pytest.raises(ValueError):
            offsets[0, 0] = 0
