"""Tests for the Trajectory primitive, Grid, Douglas-Peucker and preprocessing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.trajectory import (
    Grid,
    Trajectory,
    as_points,
    as_points_batch,
    douglas_peucker,
    douglas_peucker_mask,
    filter_trajectories,
    pad_point_arrays,
    point_segment_distance,
    resample_to_length,
)
from repro.trajectory.trajectory import Ragged, pack_trajectories

RNG = np.random.default_rng(3)

finite_points = arrays(
    np.float64, st.tuples(st.integers(2, 40), st.just(2)),
    elements=st.floats(-1e4, 1e4, allow_nan=False),
)


def random_walk(n=30, step=10.0, seed=0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal((n, 2)) * step, axis=0)


def first_error(batch):
    """What the per-item ``as_points`` loop says about ``batch``: the text
    of the error of the first offending item, or None."""
    for item in batch:
        try:
            as_points(item)
        except ValueError as error:
            return str(error)
    return None


def bad_batches(max_len=16, good=None):
    """``{name: batch}`` of batches ``as_points`` refuses somewhere: every
    way one item can be wrong, beyond the length a model reads, in the
    middle of a long clean chunk, and two kinds wrong at once (the first
    one's text is the one raised). The API tests reuse it."""
    if good is None:
        good = [random_walk(12, seed=seed) + 2000.0 for seed in range(6)]
    late_nan = random_walk(max_len + 6, seed=90) + 2000.0
    late_nan[max_len + 3, 1] = np.nan
    late_inf = random_walk(max_len + 6, seed=91) + 2000.0
    late_inf[-1, 0] = -np.inf
    three_wide = np.zeros((5, 3))
    flat = np.arange(6.0)
    empty = np.empty((0, 2))
    many = [good[i % len(good)] + i for i in range(300)]
    return {
        "nan beyond max_len": good[:3] + [late_nan] + good[3:],
        "inf beyond max_len": [late_inf] + good,
        "shape (N, 3)": good[:2] + [three_wide],
        "1-D": good[:1] + [flat] + good[1:],
        "empty trajectory": good + [empty],
        "ragged lists": good[:2] + [[[0.0, 1.0], [2.0]]],
        "one bad among 300": many[:150] + [late_nan] + many[150:],
        "shape before nan": [three_wide, late_nan] + good,
        "nan before shape": good[:1] + [late_nan, empty, three_wide],
    }


class TestAsPointsBatch:
    def test_clean_batch_is_the_loop(self):
        walks = [random_walk(n, seed=n) for n in (1, 2, 17, 40)]
        batch = walks + [Trajectory(walks[2]), walks[1].tolist(),
                         walks[3].astype(np.float32)]
        got = as_points_batch(batch)
        expected = [as_points(item) for item in batch]
        assert len(got) == len(expected)
        for ours, theirs in zip(got, expected):
            assert ours.dtype == np.float64
            assert ours.tobytes() == theirs.tobytes()
        # float64 arrays and Trajectory points pass through uncopied
        assert all(ours is item for ours, item in zip(got, walks))
        assert got[4] is batch[4].points
        assert list(as_points_batch([])) == []

    @pytest.mark.parametrize("name", sorted(bad_batches()))
    def test_raises_what_as_points_raises_first(self, name):
        batch = bad_batches()[name]
        expected = first_error(batch)
        assert expected is not None
        with pytest.raises(ValueError) as raised:
            as_points_batch(batch)
        assert str(raised.value) == expected

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kinds=st.lists(st.sampled_from(["ok", "ok", "ok", "nan", "inf",
                                        "wide", "flat", "empty"]),
                       min_size=1, max_size=12),
        seed=st.integers(0, 2**16),
    )
    def test_generated_batches_match_the_loop(self, kinds, seed):
        rng = np.random.default_rng(seed)
        batch = []
        for kind in kinds:
            item = rng.standard_normal((int(rng.integers(1, 9)), 2))
            if kind in ("nan", "inf"):
                item[rng.integers(len(item)), rng.integers(2)] = (
                    np.nan if kind == "nan" else np.inf)
            elif kind == "wide":
                item = rng.standard_normal((3, 3))
            elif kind == "flat":
                item = rng.standard_normal(4)
            elif kind == "empty":
                item = np.empty((0, 2))
            batch.append(item)
        expected = first_error(batch)
        if expected is None:
            assert all(a is b for a, b in zip(as_points_batch(batch), batch))
        else:
            with pytest.raises(ValueError) as raised:
                as_points_batch(batch)
            assert str(raised.value) == expected

    def test_one_finiteness_reduction_per_clean_batch(self, monkeypatch):
        """The point of the batch form, counted rather than timed."""
        calls = []
        isfinite = np.isfinite
        monkeypatch.setattr(
            np, "isfinite",
            lambda *args, **kwargs: calls.append(1) or isfinite(*args, **kwargs))
        batch = [random_walk(20, seed=seed) for seed in range(300)]
        as_points_batch(batch)
        assert len(calls) == 1
        del calls[:]
        for item in batch:
            as_points(item)
        assert len(calls) == 300


def packed(batch):
    """``batch`` as one packed block: one base, offsets, no items."""
    lengths = [len(item) for item in batch]
    offsets = np.concatenate(([0], np.cumsum(lengths))).astype(">u8")
    return Ragged([(np.concatenate(batch), offsets)])


class TestPackedBlocks:
    """A :class:`Ragged` of packed blocks is checked in one pass over its
    base, refused exactly as its list form is, and packs as its list form."""

    def test_a_clean_block_comes_back_as_itself(self, monkeypatch):
        block = packed([random_walk(n, seed=n) for n in range(1, 300)])
        calls = []
        isfinite = np.isfinite
        monkeypatch.setattr(
            np, "isfinite",
            lambda *args, **kwargs: calls.append(1) or isfinite(*args, **kwargs))
        assert as_points_batch(block) is block
        assert len(calls) == 1

    @pytest.mark.parametrize("name", ["nan beyond max_len",
                                      "inf beyond max_len",
                                      "empty trajectory",
                                      "one bad among 300"])
    def test_a_bad_block_raises_what_its_list_form_raises(self, name):
        batch = bad_batches()[name]
        with pytest.raises(ValueError) as raised:
            as_points_batch(packed(batch))
        assert str(raised.value) == first_error(batch)

    def test_a_float32_block_is_converted_like_its_list_form(self):
        batch = [random_walk(n, seed=n).astype(np.float32) for n in (3, 5)]
        got = as_points_batch(packed(batch))
        assert [item.tobytes() for item in got] == [
            as_points(item).tobytes() for item in batch]

    def test_packing_a_store_of_blocks_is_packing_its_list_form(self):
        walks = [random_walk(n, seed=n) for n in (1, 4, 9, 2)]
        store = Ragged([packed(walks[:2]), walks[2:3], packed(walks[3:])])
        assert len(store) == 4 and store[-2] is walks[2]
        assert [item.tobytes() for item in store] == [
            item.tobytes() for item in walks]
        for key, value in pack_trajectories(store).items():
            assert value.tobytes() == pack_trajectories(walks)[key].tobytes()


class TestTrajectory:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(np.zeros((3, 3)))
        with pytest.raises(ValueError):
            Trajectory(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            Trajectory(np.array([[np.nan, 0.0]]))

    def test_immutability(self):
        traj = Trajectory(random_walk())
        with pytest.raises(Exception):
            traj.points[0, 0] = 99.0
        with pytest.raises(AttributeError):
            traj.points = np.zeros((2, 2))

    def test_length_of_straight_line(self):
        traj = Trajectory([[0, 0], [3, 4], [6, 8]])
        assert traj.length() == pytest.approx(10.0)

    def test_single_point_length_zero(self):
        assert Trajectory([[1, 2]]).length() == 0.0

    def test_bbox(self):
        traj = Trajectory([[0, 5], [-2, 1], [4, 3]])
        assert traj.bbox() == (-2, 1, 4, 5)

    def test_slicing_returns_trajectory(self):
        traj = Trajectory(random_walk(10))
        assert isinstance(traj[2:6], Trajectory)
        assert len(traj[2:6]) == 4
        np.testing.assert_allclose(traj[3], traj.points[3])

    def test_equality_and_hash(self):
        a = Trajectory([[0, 0], [1, 1]])
        b = Trajectory([[0, 0], [1, 1]])
        c = Trajectory([[0, 0], [2, 2]])
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_reversed(self):
        traj = Trajectory(random_walk(5))
        np.testing.assert_allclose(traj.reversed().points, traj.points[::-1])

    def test_turning_radians_straight_line(self):
        traj = Trajectory([[0, 0], [1, 0], [2, 0], [3, 0]])
        np.testing.assert_allclose(traj.turning_radians(), np.pi * np.ones(4))

    def test_turning_radians_right_angle(self):
        traj = Trajectory([[0, 0], [1, 0], [1, 1]])
        assert traj.turning_radians()[1] == pytest.approx(np.pi / 2)

    def test_as_points_passthrough_and_coercion(self):
        raw = random_walk(4)
        traj = Trajectory(raw)
        assert as_points(traj) is traj.points
        np.testing.assert_allclose(as_points(raw.tolist()), raw)

    @settings(max_examples=30, deadline=None)
    @given(finite_points)
    def test_property_length_at_least_endpoint_distance(self, pts):
        traj = Trajectory(pts)
        direct = float(np.linalg.norm(pts[-1] - pts[0]))
        assert traj.length() >= direct - 1e-6

    @settings(max_examples=30, deadline=None)
    @given(finite_points)
    def test_property_reverse_preserves_length(self, pts):
        traj = Trajectory(pts)
        assert traj.length() == pytest.approx(traj.reversed().length(), rel=1e-9, abs=1e-9)


class TestGrid:
    def make(self):
        return Grid(0, 0, 1000, 500, cell_size=100)

    def test_dimensions(self):
        grid = self.make()
        assert grid.n_cols == 10
        assert grid.n_rows == 5
        assert grid.n_cells == 50

    def test_cell_of_known_points(self):
        grid = self.make()
        ids = grid.cell_of(np.array([[50.0, 50.0], [950.0, 450.0]]))
        assert ids[0] == 0
        assert ids[1] == 49

    def test_points_outside_are_clamped(self):
        grid = self.make()
        ids = grid.cell_of(np.array([[-100.0, -100.0], [2000.0, 2000.0]]))
        assert ids[0] == 0
        assert ids[1] == grid.n_cells - 1

    def test_cell_center_roundtrip(self):
        grid = self.make()
        centers = grid.cell_center(np.arange(grid.n_cells))
        ids = grid.cell_of(centers)
        np.testing.assert_array_equal(ids, np.arange(grid.n_cells))

    def test_neighbors_interior_corner_edge(self):
        grid = self.make()
        interior = grid.cell_of(np.array([[550.0, 250.0]]))[0]
        assert len(grid.neighbors(int(interior))) == 8
        assert len(grid.neighbors(0)) == 3  # corner
        assert len(grid.neighbors(5)) == 5  # bottom edge

    def test_neighbors_are_symmetric(self):
        grid = self.make()
        for cell in [0, 7, 23, 49]:
            for other in grid.neighbors(cell):
                assert cell in grid.neighbors(other)

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            Grid(0, 0, 10, 10, cell_size=0)
        with pytest.raises(ValueError):
            Grid(10, 0, 0, 10, cell_size=1)

    def test_covering(self):
        trajs = [random_walk(20, seed=s) for s in range(3)]
        grid = Grid.covering(trajs, cell_size=50)
        for traj in trajs:
            ids = grid.cell_of(traj)
            assert (ids >= 0).all() and (ids < grid.n_cells).all()

    def test_covering_empty_raises(self):
        with pytest.raises(ValueError):
            Grid.covering([], cell_size=50)

    def test_bad_cell_ids_raise(self):
        grid = self.make()
        with pytest.raises(IndexError):
            grid.cell_center(np.array([grid.n_cells]))


class TestDouglasPeucker:
    def test_collinear_collapses_to_endpoints(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
        simplified = douglas_peucker(pts, epsilon=0.1)
        np.testing.assert_allclose(simplified, [[0, 0], [3, 0]])

    def test_keeps_significant_corner(self):
        pts = np.array([[0.0, 0.0], [5.0, 5.0], [10.0, 0.0]])
        simplified = douglas_peucker(pts, epsilon=1.0)
        assert len(simplified) == 3

    def test_epsilon_zero_keeps_non_collinear_points(self):
        pts = random_walk(20, seed=1)
        simplified = douglas_peucker(pts, epsilon=0.0)
        assert len(simplified) == len(pts)

    def test_huge_epsilon_keeps_only_endpoints(self):
        pts = random_walk(50, seed=2)
        simplified = douglas_peucker(pts, epsilon=1e9)
        assert len(simplified) == 2
        np.testing.assert_allclose(simplified[0], pts[0])
        np.testing.assert_allclose(simplified[-1], pts[-1])

    def test_mask_endpoints_always_kept(self):
        pts = random_walk(30, seed=3)
        mask = douglas_peucker_mask(pts, epsilon=5.0)
        assert mask[0] and mask[-1]

    def test_negative_epsilon_rejected(self):
        with pytest.raises(ValueError):
            douglas_peucker(random_walk(5), epsilon=-1.0)

    def test_two_points_untouched(self):
        pts = np.array([[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_allclose(douglas_peucker(pts, 10.0), pts)

    def test_long_trajectory_no_recursion_error(self):
        # zig-zag of 20k points: recursive implementations blow the stack
        n = 20000
        pts = np.stack([np.arange(n, dtype=float),
                        np.tile([0.0, 100.0], n // 2)], axis=1)
        simplified = douglas_peucker(pts, epsilon=1.0)
        assert len(simplified) == n

    @settings(max_examples=25, deadline=None)
    @given(finite_points, st.floats(0, 1e3, allow_nan=False))
    def test_property_simplification_is_subsequence(self, pts, eps):
        mask = douglas_peucker_mask(pts, eps)
        simplified = pts[mask]
        assert len(simplified) >= 2 or len(pts) < 2
        # kept points appear in original order
        rows = {tuple(p) for p in simplified.tolist()}
        assert rows <= {tuple(p) for p in pts.tolist()}

    @settings(max_examples=25, deadline=None)
    @given(finite_points)
    def test_property_monotone_in_epsilon(self, pts):
        small = douglas_peucker_mask(pts, 1.0).sum()
        large = douglas_peucker_mask(pts, 100.0).sum()
        assert large <= small


class TestPointSegmentDistance:
    def test_perpendicular_distance(self):
        d = point_segment_distance(np.array([[0.0, 1.0]]),
                                   np.array([-1.0, 0.0]), np.array([1.0, 0.0]))
        assert d[0] == pytest.approx(1.0)

    def test_beyond_endpoint_uses_point_distance(self):
        d = point_segment_distance(np.array([[3.0, 0.0]]),
                                   np.array([0.0, 0.0]), np.array([1.0, 0.0]))
        assert d[0] == pytest.approx(2.0)

    def test_degenerate_segment(self):
        d = point_segment_distance(np.array([[3.0, 4.0]]),
                                   np.array([0.0, 0.0]), np.array([0.0, 0.0]))
        assert d[0] == pytest.approx(5.0)


class TestPreprocess:
    def test_filters_by_point_count(self):
        trajs = [random_walk(5), random_walk(50), random_walk(300)]
        kept = filter_trajectories(trajs, min_points=20, max_points=200)
        assert len(kept) == 1
        assert len(kept[0]) == 50

    def test_filters_by_bbox(self):
        inside = np.array([[1.0, 1.0]] * 25)
        outside = inside + 100.0
        kept = filter_trajectories([inside, outside], min_points=1, max_points=100,
                                   bbox=(0, 0, 10, 10))
        assert len(kept) == 1

    def test_drops_invalid_records(self):
        bad = np.array([[np.nan, 0.0]] * 30)
        kept = filter_trajectories([bad, random_walk(30)], min_points=20)
        assert len(kept) == 1

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            filter_trajectories([], min_points=10, max_points=5)

    def test_pad_point_arrays(self):
        batch, lengths = pad_point_arrays([random_walk(3), random_walk(5)])
        assert batch.shape == (2, 5, 2)
        np.testing.assert_array_equal(lengths, [3, 5])
        np.testing.assert_allclose(batch[0, 3:], 0.0)

    def test_pad_truncates_to_max_len(self):
        batch, lengths = pad_point_arrays([random_walk(10)], max_len=4)
        assert batch.shape == (1, 4, 2)
        assert lengths[0] == 4

    def test_pad_empty_raises(self):
        with pytest.raises(ValueError):
            pad_point_arrays([])

    def test_resample_preserves_endpoints(self):
        pts = random_walk(10, seed=4)
        resampled = resample_to_length(pts, 25)
        assert resampled.shape == (25, 2)
        np.testing.assert_allclose(resampled[0], pts[0])
        np.testing.assert_allclose(resampled[-1], pts[-1])

    def test_resample_straight_line_uniform(self):
        pts = np.array([[0.0, 0.0], [10.0, 0.0]])
        resampled = resample_to_length(pts, 5)
        np.testing.assert_allclose(resampled[:, 0], [0, 2.5, 5, 7.5, 10])
