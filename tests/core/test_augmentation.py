"""Tests for the four TrajCL augmentation methods (paper §IV-A)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core import TrajCLConfig
from repro.core.augmentation import (
    available_augmentations,
    get_augmentation,
    make_view,
    point_mask,
    point_shift,
    raw,
    simplify,
    truncate,
)

RNG_SEED = 5

trajectory_arrays = arrays(
    np.float64, st.tuples(st.integers(10, 60), st.just(2)),
    elements=st.floats(-1e4, 1e4, allow_nan=False),
)


def walk(n=30, seed=0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal((n, 2)) * 40, axis=0)


class TestPointShift:
    def test_shape_preserved(self):
        t = walk()
        out = point_shift(t, np.random.default_rng(RNG_SEED))
        assert out.shape == t.shape

    def test_offsets_bounded_by_radius(self):
        t = walk()
        radius = 50.0
        out = point_shift(t, np.random.default_rng(RNG_SEED), radius=radius)
        offsets = np.abs(out - t)
        assert (offsets <= radius + 1e-9).all()

    def test_zero_radius_is_identity(self):
        t = walk()
        out = point_shift(t, np.random.default_rng(RNG_SEED), radius=0.0)
        np.testing.assert_allclose(out, t)

    def test_does_not_mutate_input(self):
        t = walk()
        original = t.copy()
        point_shift(t, np.random.default_rng(RNG_SEED))
        np.testing.assert_array_equal(t, original)

    def test_negative_radius_rejected(self):
        with pytest.raises(ValueError):
            point_shift(walk(), np.random.default_rng(0), radius=-1.0)

    def test_offsets_are_gaussian_like(self):
        """Most mass should be well inside the bound (σ=0.5 of the unit)."""
        t = np.zeros((5000, 2))
        out = point_shift(t, np.random.default_rng(RNG_SEED), radius=100.0, sigma=0.5)
        fraction_small = float((np.abs(out) < 50.0).mean())
        assert fraction_small > 0.6


class TestPointMask:
    def test_keeps_expected_count(self):
        t = walk(30)
        out = point_mask(t, np.random.default_rng(RNG_SEED), ratio=0.3)
        assert len(out) == int(np.floor(0.7 * 30))

    def test_kept_points_are_ordered_subset(self):
        t = walk(30)
        out = point_mask(t, np.random.default_rng(RNG_SEED), ratio=0.5)
        rows = {tuple(p) for p in out.tolist()}
        assert rows <= {tuple(p) for p in t.tolist()}
        # order preserved: each consecutive pair appears in order in t
        index_of = {tuple(p): i for i, p in enumerate(t.tolist())}
        indices = [index_of[tuple(p)] for p in out.tolist()]
        assert indices == sorted(indices)

    def test_min_keep_floor(self):
        t = walk(5)
        out = point_mask(t, np.random.default_rng(RNG_SEED), ratio=0.9)
        assert len(out) >= 2

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            point_mask(walk(), np.random.default_rng(0), ratio=1.0)


class TestTruncate:
    def test_keeps_contiguous_span(self):
        t = walk(30)
        out = truncate(t, np.random.default_rng(RNG_SEED), keep=0.7)
        assert len(out) == int(np.floor(0.7 * 30))
        # contiguity: out must appear as a slice of t
        for start in range(len(t) - len(out) + 1):
            if np.allclose(t[start:start + len(out)], out):
                break
        else:
            pytest.fail("truncated view is not a contiguous slice")

    def test_invalid_keep(self):
        with pytest.raises(ValueError):
            truncate(walk(), np.random.default_rng(0), keep=1.0)
        with pytest.raises(ValueError):
            truncate(walk(), np.random.default_rng(0), keep=0.0)

    def test_short_input_returned_whole(self):
        t = walk(3)
        out = truncate(t, np.random.default_rng(RNG_SEED), keep=0.9)
        assert len(out) >= 2


class TestSimplify:
    def test_removes_collinear_points(self):
        line = np.stack([np.arange(20, dtype=float) * 10, np.zeros(20)], axis=1)
        out = simplify(line, epsilon=1.0)
        assert len(out) == 2

    def test_endpoints_kept(self):
        t = walk(25)
        out = simplify(t, epsilon=30.0)
        np.testing.assert_allclose(out[0], t[0])
        np.testing.assert_allclose(out[-1], t[-1])

    def test_returns_at_least_two_points(self):
        t = walk(20)
        out = simplify(t, epsilon=1e12)
        assert len(out) >= 2

    def test_degenerate_input_returned_whole(self):
        single = np.array([[3.0, 4.0]])
        out = simplify(single, epsilon=100.0)
        np.testing.assert_array_equal(out, single)
        assert out is not single


class TestRegistryAndMakeView:
    def test_available(self):
        assert set(available_augmentations()) == {
            "raw", "shift", "mask", "truncate", "simplify"
        }

    def test_get_augmentation(self):
        assert get_augmentation("mask") is point_mask
        with pytest.raises(KeyError):
            get_augmentation("bogus")

    def test_raw_returns_copy(self):
        t = walk()
        out = raw(t)
        np.testing.assert_array_equal(out, t)
        assert out is not t

    @pytest.mark.parametrize("name", ["raw", "shift", "mask", "truncate", "simplify"])
    def test_make_view_all_methods(self, name):
        t = walk(30)
        out = make_view(t, name, np.random.default_rng(RNG_SEED))
        assert out.ndim == 2 and out.shape[1] == 2
        assert len(out) >= 2

    def test_make_view_uses_config(self):
        config = TrajCLConfig(mask_ratio=0.5)
        t = walk(30)
        out = make_view(t, "mask", np.random.default_rng(RNG_SEED), config)
        assert len(out) == 15

    @pytest.mark.parametrize("name, function, keywords, config", [
        ("shift", point_shift, {"radius": 7.0, "sigma": 0.2},
         TrajCLConfig(shift_radius=7.0, shift_sigma=0.2)),
        ("truncate", truncate, {"keep": 0.4}, TrajCLConfig(truncate_keep=0.4)),
        ("simplify", simplify, {"epsilon": 5.0},
         TrajCLConfig(simplify_epsilon=5.0)),
    ])
    def test_make_view_passes_each_config_field(self, name, function,
                                                keywords, config):
        """A view is the augmentation called with the config's fields
        (values off the defaults, so a dropped keyword shows)."""
        t = walk(30)
        expected = function(t, np.random.default_rng(RNG_SEED), **keywords)
        assert not np.array_equal(
            expected, make_view(t, name, np.random.default_rng(RNG_SEED)))
        np.testing.assert_array_equal(
            make_view(t, name, np.random.default_rng(RNG_SEED), config),
            expected)

    def test_make_view_unknown(self):
        with pytest.raises(KeyError):
            make_view(walk(), "bogus", np.random.default_rng(0))

    @settings(max_examples=20, deadline=None)
    @given(trajectory_arrays, st.sampled_from(["shift", "mask", "truncate", "simplify"]))
    def test_property_views_stay_valid(self, t, name):
        out = make_view(t, name, np.random.default_rng(RNG_SEED))
        assert np.isfinite(out).all()
        assert 2 <= len(out) <= len(t)

    def test_determinism_given_seed(self):
        t = walk(30)
        a = make_view(t, "mask", np.random.default_rng(7))
        b = make_view(t, "mask", np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)
