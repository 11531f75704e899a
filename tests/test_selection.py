import itertools
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from moea_lab.dominance import _distinct_rows
from moea_lab.problems import pareto_front_3omm
from moea_lab.refpoints import _MAX_NEAREST_DIM, generate_reference_points
from moea_lab.selection import (
    _replayed_draws,
    associate,
    crowding_distance,
    crowding_distance_select,
    niching_select,
)

from conftest import dense_associate, loop_niching_select, perpendicular_distance

# (n, p) of the golden NSGA-III runs and of both benchmark workloads
FRONT_CASES = [(12, 252), (16, 75), (32, 672), (40, 186)]


def minmax_front(n):
    front = pareto_front_3omm(n).astype(float)
    lo, hi = front.min(axis=0), front.max(axis=0)
    return (front - lo) / (hi - lo)


def assert_same_draws(normalized, refs, seed):
    """The box-wise association equals the dense oracle: same points,
    bit-equal distances, same generator state after. Returns that state."""
    rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    got = associate(normalized, refs, rng)
    want = dense_associate(normalized, refs, oracle_rng)
    assert np.array_equal(got.ref_index, want.ref_index)
    assert np.array_equal(got.distance, want.distance)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state
    return rng.bit_generator.state


def assert_warm_same_draws(first, second, p, seed):
    """A call on a lattice that has just associated ``first`` equals the
    dense oracle and a call on a fresh lattice, and leaves the lattice
    holding only ``second``'s distinct rows. Returns the state after."""
    refs = generate_reference_points(3, p)
    associate(first, refs, np.random.default_rng(seed + 1))
    state = assert_same_draws(second, refs, seed)
    assert state == assert_same_draws(second, generate_reference_points(3, p), seed)
    distinct = {row.tobytes() for row in _distinct_rows(np.asarray(second))[0]}
    assert set(refs._associations) == distinct
    return state


class TestAssociate:
    def test_lattice_point_maps_to_itself(self, rng):
        refs = generate_reference_points(3, 4)
        target = refs.points[7]
        assoc = associate(target[None, :], refs, rng)
        assert assoc.ref_index[0] == 7
        assert assoc.distance[0] == pytest.approx(0.0, abs=1e-15)

    def test_scaling_invariance(self, rng):
        refs = generate_reference_points(3, 4)
        target = 2.0 * refs.points[5]
        assoc = associate(target[None, :], refs, rng)
        assert assoc.ref_index[0] == 5
        assert assoc.distance[0] == pytest.approx(0.0, abs=1e-15)

    def test_matches_brute_force(self, rng):
        refs = generate_reference_points(3, 2)
        v = np.array([0.4, 0.4, 0.2])
        expected = min(
            range(len(refs)),
            key=lambda i: perpendicular_distance(v, refs.points[i]),
        )
        assoc = associate(v[None, :], refs, rng)
        assert assoc.ref_index[0] == expected

    def test_positive_scaling_keeps_association(self, rng):
        refs = generate_reference_points(3, 6)
        v = rng.random((20, 3)) + 0.05
        base = associate(v, refs, np.random.default_rng(0))
        scaled = associate(v * 7.3, refs, np.random.default_rng(0))
        assert np.array_equal(base.ref_index, scaled.ref_index)

    def test_non_finite_rejected(self, rng):
        refs = generate_reference_points(3, 2)
        with pytest.raises(ValueError):
            associate(np.array([[np.nan, 0.0, 0.0]]), refs, rng)

    def test_negative_rejected(self, rng):
        refs = generate_reference_points(3, 2)
        with pytest.raises(ValueError):
            associate(np.array([[0.5, -0.25, 0.0]]), refs, rng)

    def test_more_objectives_than_the_box_rejected(self, rng):
        refs = generate_reference_points(_MAX_NEAREST_DIM + 1, 2)
        with pytest.raises(ValueError):
            associate(np.full((1, refs.dim), 0.5), refs, rng)

    def test_identical_vectors_share_reference_point(self, rng):
        # exact ties are broken once per distinct vector, so duplicates
        # can never split across reference points
        refs = generate_reference_points(2, 2)
        v = np.tile([0.5, 0.5], (40, 1))  # equidistant rows stay together
        assoc = associate(v, refs, rng)
        assert len(set(assoc.ref_index.tolist())) == 1

    @pytest.mark.parametrize("n", [4, 8, 12])
    def test_unique_association_at_21n(self, n, rng):
        # distinct 3-OMM values get distinct reference points at p = 21n
        front = pareto_front_3omm(n).astype(float)
        normalized = front / np.array([n, n / 2, n / 2])
        refs = generate_reference_points(3, 21 * n)
        assoc = associate(normalized, refs, rng)
        assert len(np.unique(assoc.ref_index)) == len(front)


@st.composite
def association_inputs(draw):
    """(rows, refs, seed): M in {2, 3}, p from 1 to 700, and rows that are
    random (with zero coordinates), scaled lattice points, mirror-symmetric
    pairs and, sometimes, the zero row."""
    dim = draw(st.sampled_from([2, 3]))
    p = draw(st.integers(1, 700))
    coordinate = st.one_of(st.just(0.0), st.floats(0.0, 1e3, allow_subnormal=False))
    scale = st.floats(1e-3, 1e3)

    @st.composite
    def lattice_point(draw):
        parts = []
        for _ in range(dim - 1):
            parts.append(draw(st.integers(0, p - sum(parts))))
        return np.array(parts + [p - sum(parts)]) * (draw(scale) / p)

    @st.composite
    def mirror_pair(draw):
        # a row and its reverse; a row with two equal coordinates ([x, y, y],
        # [y, x, y] or [x, x]) projects alike onto mirror-image lattice
        # points, so it can tie
        x, y = draw(scale), draw(scale)
        row = np.array([x, y] if dim == 2 else [x, y, y])
        if draw(st.booleans()):
            row = np.array([x, x] if dim == 2 else [y, x, y])
        return [row, row[::-1]]

    random_row = st.lists(coordinate, min_size=dim, max_size=dim).map(np.array)
    singles = st.one_of(random_row, lattice_point()).map(lambda row: [row])
    groups = draw(st.lists(st.one_of(singles, mirror_pair()), min_size=1, max_size=8))
    rows = [row for group in groups for row in group]
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), np.zeros(dim))
    return np.array(rows, dtype=float), generate_reference_points(dim, p), draw(
        st.integers(0, 2**32 - 1))


class TestAssociateMatchesDense:
    @given(association_inputs())
    @settings(max_examples=150, deadline=None)
    def test_random_inputs(self, inputs):
        rows, refs, seed = inputs
        assert_same_draws(rows, refs, seed)
        # again on the same lattice, reordered, with its record of the call
        assert_same_draws(rows[::-1], refs, seed + 1)

    @pytest.mark.parametrize("dim,p", [(2, 1), (2, 7), (3, 1), (3, 40)])
    def test_zero_row_ties_on_every_point(self, dim, p):
        refs = generate_reference_points(dim, p)
        rows = np.zeros((3, dim))
        state = assert_same_draws(rows, refs, 9)
        # one draw among all the points
        rng = np.random.default_rng(9)
        rng.integers(len(refs))
        assert state == rng.bit_generator.state
        assert np.all(associate(rows, refs, np.random.default_rng(9)).distance == 0.0)

    @pytest.mark.parametrize("n,p", FRONT_CASES)
    def test_whole_front(self, n, p):
        state = assert_same_draws(minmax_front(n), generate_reference_points(3, p), 3)
        # mirror-symmetric values tie between two lines: some draw happened
        assert state != np.random.default_rng(3).bit_generator.state

    def test_many_distinct_rows(self):
        # 1,097 distinct rows of the n = 80 front: a single product of all
        # of them put one distance 1 ulp off the row-wise one
        front = pareto_front_3omm(80).astype(float)
        rows = front[np.random.default_rng(3).integers(len(front), size=1753)]
        lo, hi = rows.min(axis=0), rows.max(axis=0)
        normalized = (rows - lo) / (hi - lo)
        assert len(_distinct_rows(normalized)[0]) == 1097
        assert_same_draws(normalized, generate_reference_points(3, 20), 3)

    @pytest.mark.parametrize("k", range(1, 19))
    def test_every_block_remainder(self, k):
        # the front's last k rows, from a lone row to 18, each scored as its
        # own two-row block, against the dense oracle; from k = 5 on they
        # hold a mirror tie
        front = minmax_front(12)
        assert_same_draws(front[-k:], generate_reference_points(3, 252), k)

    def test_duplicates_and_population_order(self):
        front = minmax_front(16)
        rows = np.random.default_rng(0).integers(len(front), size=300)
        assert_same_draws(front[rows], generate_reference_points(3, 75), 0)

    @pytest.mark.parametrize("n,p", FRONT_CASES)
    def test_warm_same_rows(self, n, p):
        front = minmax_front(n)
        state = assert_warm_same_draws(front, front.copy(), p, 5)
        assert state != np.random.default_rng(5).bit_generator.state

    @pytest.mark.parametrize("n,p", FRONT_CASES)
    def test_warm_shuffled_rows(self, n, p):
        front = minmax_front(n)
        rows = np.random.default_rng(n).integers(len(front), size=2 * len(front))
        assert_warm_same_draws(front, front[rows], p, 6)

    @pytest.mark.parametrize("n,p", FRONT_CASES)
    def test_warm_old_and_new_rows(self, n, p):
        # the first call saw the front's first two thirds, the second sees
        # its last two thirds
        front = minmax_front(n)
        third = len(front) // 3
        assert_warm_same_draws(front[: 2 * third], front[third:], p, 7)

    @pytest.mark.parametrize("n,p", [(12, 252), (16, 75)])
    def test_warm_one_new_row(self, n, p):
        # each row in turn is the only one the first call did not see, so
        # it is multiplied in a block of its own
        front = minmax_front(n)
        for i in range(len(front)):
            assert_warm_same_draws(np.delete(front, i, axis=0), front, p, i)

    @pytest.mark.parametrize("n,p", FRONT_CASES)
    def test_warm_renormalized(self, n, p):
        # the same population against a nadir that moved: new bits in
        # every row with a positive coordinate
        front = pareto_front_3omm(n).astype(float)
        lo, hi = front.min(axis=0), front.max(axis=0)
        assert_warm_same_draws(minmax_front(n), (front - lo) / (hi + 1 - lo), p, 8)


class TestNichingSelect:
    def test_whole_front_when_k_equals_size(self, rng):
        cand_refs = np.array([0, 1, 2, 3])
        cand_dists = np.array([0.1, 0.2, 0.3, 0.4])
        sel = niching_select(cand_refs, cand_dists, 4, rng)
        assert sorted(sel.tolist()) == [0, 1, 2, 3]

    def test_hand_simulation_two_slots(self):
        # a, b on r1 (distances 0.1, 0.2), c on r2 (0.3); k=2 -> {a, c}
        cand_refs = np.array([1, 1, 2])
        cand_dists = np.array([0.1, 0.2, 0.3])
        for seed in range(50):
            rng = np.random.default_rng(seed)
            sel = niching_select(cand_refs, cand_dists, 2, rng)
            assert sorted(sel.tolist()) == [0, 2]

    def test_single_point_distance_then_random(self):
        # one reference point holds everything: first pick is the closest,
        # the remaining picks are uniform among the rest
        cand_refs = np.array([0, 0, 0, 0, 0])
        cand_dists = np.array([0.5, 0.1, 0.4, 0.3, 0.2])
        first = Counter()
        rest = Counter()
        for seed in range(600):
            rng = np.random.default_rng(seed)
            sel = niching_select(cand_refs, cand_dists, 3, rng)
            first[sel[0]] += 1
            rest.update(sel[1:].tolist())
        assert set(first) == {1}  # index of the 0.1 distance
        # remaining two drawn from the other four candidates
        assert set(rest) <= {0, 2, 3, 4}
        counts = np.array([rest[i] for i in (0, 2, 3, 4)])
        assert counts.min() > 0.5 * counts.max()  # roughly uniform

    def test_k_too_large_rejected(self, rng):
        with pytest.raises(ValueError):
            niching_select(np.array([0]), np.array([0.1]), 2, rng)

    def test_exactly_k_without_exceeding_multiplicity(self, rng):
        cand_refs = rng.integers(0, 10, 30)
        cand_dists = rng.random(30)
        sel = niching_select(cand_refs, cand_dists, 12, rng)
        assert len(sel) == 12
        assert len(set(sel.tolist())) == 12

    def test_every_occupied_point_keeps_a_survivor(self, rng):
        # when k is at least the number of occupied reference points, each
        # keeps at least one associated individual
        for trial in range(30):
            cand_refs = rng.integers(0, 10, 20)
            occupied = set(cand_refs.tolist())
            k = int(rng.integers(len(occupied), 21))
            sel = niching_select(cand_refs, rng.random(20), k, rng)
            assert {int(cand_refs[i]) for i in sel} == occupied


LATTICES = {p: generate_reference_points(3, p) for p in range(1, 7)}


def assert_same_picks(cand_refs, cand_dists, k, refs, seed):
    """Level-wise niching equals the loop oracle: same picks in the same
    order, same generator state after."""
    rng = np.random.default_rng(seed)
    oracle_rng = np.random.default_rng(seed)
    args = (np.asarray(cand_refs), np.asarray(cand_dists, dtype=float), k)
    got = niching_select(*args, rng)
    want = loop_niching_select([], *args, refs, oracle_rng)
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == oracle_rng.bit_generator.state


@st.composite
def niching_inputs(draw):
    refs = LATTICES[draw(st.integers(1, 6))]
    spots = st.integers(0, len(refs) - 1)
    points = draw(st.lists(spots, min_size=1, max_size=8, unique=True))
    n_cand = draw(st.integers(1, 30))
    cand_refs = draw(st.lists(st.sampled_from(points), min_size=n_cand, max_size=n_cand))
    # few distinct distances, so distance ties draw
    cand_dists = draw(st.lists(
        st.sampled_from([0.0, 0.125, 0.25, 0.5]), min_size=n_cand, max_size=n_cand
    ))
    k = draw(st.integers(1, n_cand))
    return cand_refs, cand_dists, k, refs, draw(st.integers(0, 2**32 - 1))


class TestNichingMatchesLoop:
    @given(niching_inputs())
    @settings(max_examples=300, deadline=None)
    def test_random_inputs(self, inputs):
        assert_same_picks(*inputs)

    # (cand_refs, k): k equal to the number of occupied points, so the run
    # ends as level 0 ends; k one past it, so level 1 makes one pick; and
    # single-candidate pools (points 0, 2 and 5), which level 1 retires
    @pytest.mark.parametrize("cand_refs, k", [
        ([3, 1, 3, 4, 1, 1, 4, 3], 3),
        ([3, 1, 3, 4, 1, 1, 4, 3], 4),
        ([0, 2, 5], 3),
        ([0, 1, 2, 1, 5, 1, 3, 3], 5),
        ([0, 1, 2, 1, 5, 1, 3, 3], 7),
        ([0, 1, 2, 1, 5, 1, 3, 3], 8),
    ])
    def test_level_edges(self, cand_refs, k):
        dists = [0.25, 0.0, 0.25, 0.5, 0.0, 0.125, 0.5, 0.25][: len(cand_refs)]
        for seed in range(40):
            assert_same_picks(cand_refs, dists, k, LATTICES[2], seed)

    def test_front_at_16_75(self):
        # the min-max normalized 3-OMM front, drawn with repeats so that
        # pools hold copies at equal distances
        front = minmax_front(16)
        refs = generate_reference_points(3, 75)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            values = front[rng.integers(len(front), size=2 * len(front))]
            assoc = associate(values, refs, rng)
            for k in (1, len(values) // 2, len(values)):
                assert_same_picks(assoc.ref_index, assoc.distance, k, refs, seed)

    def test_front_at_40_186(self):
        # nsga3-xover's scale: the n = 40 front drawn with repeats to
        # 2N = 882 rows, N = 441 picks
        front = minmax_front(40)
        refs = generate_reference_points(3, 186)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            values = front[rng.integers(len(front), size=882)]
            assoc = associate(values, refs, rng)
            assert_same_picks(assoc.ref_index, assoc.distance, 441, refs, seed)


# bounds of every size, many just above 2**31, where about half of all
# words are rejected
DRAW_BOUNDS = st.one_of(
    st.integers(1, 2**32 - 1),
    st.integers(2**31 + 1, 2**31 + 2**16),
    st.integers(1, 64),
)


class TestReplayedDraws:
    @given(
        bounds=st.lists(DRAW_BOUNDS, min_size=1, max_size=60),
        batch=st.integers(1, 60),
        warm=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_scalar_draws(self, bounds, batch, warm, seed):
        rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        if warm:
            # a scalar draw takes one 32-bit half of a 64-bit output and
            # keeps the other for the next word; b = 2 rejects no word
            rng.integers(2)
            oracle_rng.integers(2)
            assert rng.bit_generator.state["has_uint32"] == 1
        with _replayed_draws(rng, batch) as below:
            got = [below(b) for b in bounds]
        want = [int(oracle_rng.integers(b)) for b in bounds]
        assert got == want
        assert rng.bit_generator.state == oracle_rng.bit_generator.state

    def test_no_draw_leaves_the_state(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with _replayed_draws(rng, 10) as below:
            assert [below(1) for _ in range(5)] == [0] * 5
        assert rng.bit_generator.state == state

    def test_state_restored_on_error(self):
        rng = np.random.default_rng(4)
        oracle_rng = np.random.default_rng(4)
        with pytest.raises(RuntimeError):
            with _replayed_draws(rng, 100) as below:
                below(7)
                raise RuntimeError
        oracle_rng.integers(7)
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


class TestCrowdingDistance:
    def test_whole_front_when_k_equals_size(self, rng):
        values = np.array([[1, 3], [2, 2], [3, 1]])
        sel = crowding_distance_select(values, 3, rng)
        assert sorted(sel.tolist()) == [0, 1, 2]

    def test_boundaries_selected_first(self):
        values = np.array([[1, 3], [2, 2], [3, 1]])
        for seed in range(30):
            rng = np.random.default_rng(seed)
            sel = crowding_distance_select(values, 2, rng)
            assert sorted(sel.tolist()) == [0, 2]

    def test_boundary_distances_infinite(self, rng):
        values = np.array([[1.0, 5.0], [2.0, 4.0], [3.0, 3.0], [4.0, 2.0], [5.0, 1.0]])
        dist = crowding_distance(values, rng)
        assert np.isinf(dist[0]) and np.isinf(dist[4])
        assert np.all(np.isfinite(dist[1:4]))
        assert dist[1] == pytest.approx(1.0)  # (3-1)/4 + (4-2)/4

    def test_k_too_large_rejected(self, rng):
        with pytest.raises(ValueError):
            crowding_distance_select(np.array([[1, 2]]), 2, rng)

    def test_uniform_selection_over_identical_values(self):
        # fully duplicated objective values: every k-subset equally likely
        values = np.tile([2.0, 2.0], (6, 1))
        counts = Counter()
        trials = 6000
        for seed in range(trials):
            rng = np.random.default_rng(seed)
            sel = crowding_distance_select(values, 3, rng)
            counts.update(sel.tolist())
        expected = trials * 3 / 6
        for i in range(6):
            assert abs(counts[i] - expected) < 5 * np.sqrt(trials * 0.5 * 0.5)

    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(1, 80),
        m=st.integers(1, 3),
        wide=st.integers(0, 2),
        offset=st.sampled_from([0, -7, 2**62]),
        dtype=st.sampled_from([np.int64, np.uint64, np.uint8, np.bool_]),
    )
    @settings(max_examples=200, deadline=None)
    def test_integer_keys_draw_as_float_keys(self, seed, size, m, wide, offset, dtype):
        # column ``wide`` spans at least 2**15 where it exists (float keys);
        # the others span at most 5 (int16 keys). Near 2**62 distinct
        # integers round to one float, and must tie as the floats do.
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 6, size=(size, m))
        if wide < m and size > 1:
            values[:2, wide] = [0, 2**15]
        if dtype is np.bool_:
            values = values % 2
        elif dtype is np.uint8:
            values = values % 256
        elif offset >= 0 or dtype is np.int64:
            values = values + offset
        values = values.astype(dtype)
        for k in {1, (size + 1) // 2, size}:
            ints, floats = np.random.default_rng(seed), np.random.default_rng(seed)
            picked = crowding_distance_select(values, k, ints)
            expected = crowding_distance_select(values.astype(np.float64), k, floats)
            assert np.array_equal(picked, expected)
            assert ints.bit_generator.state == floats.bit_generator.state
