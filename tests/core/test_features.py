"""Tests for pointwise feature enrichment (paper §IV-B)."""

import numpy as np
import pytest

from repro.core import FeatureEnrichment, sinusoidal_position_encoding, spatial_features
from repro.trajectory import Grid


def make_grid():
    return Grid(0, 0, 1000, 1000, cell_size=100)


def walk(n=20, seed=0, scale=40.0, offset=500.0):
    rng = np.random.default_rng(seed)
    return np.clip(
        np.cumsum(rng.standard_normal((n, 2)) * scale, axis=0) + offset, 1, 999
    )


class TestPositionEncoding:
    def test_shape_and_range(self):
        table = sinusoidal_position_encoding(50, 16)
        assert table.shape == (50, 16)
        assert (np.abs(table) <= 1.0 + 1e-12).all()

    def test_eq9_values(self):
        """Spot-check Eq. 9: even j -> sin(i/10000^{j/d}), odd -> cos(.../{(j-1)/d})."""
        d = 8
        table = sinusoidal_position_encoding(10, d)
        i, j = 3, 4
        assert table[i, j] == pytest.approx(np.sin(i / 10000 ** (j / d)))
        i, j = 5, 3
        assert table[i, j] == pytest.approx(np.cos(i / 10000 ** ((j - 1) / d)))

    def test_first_row_alternates_zero_one(self):
        table = sinusoidal_position_encoding(4, 6)
        np.testing.assert_allclose(table[0, 0::2], 0.0)
        np.testing.assert_allclose(table[0, 1::2], 1.0)

    def test_distinct_positions(self):
        table = sinusoidal_position_encoding(100, 16)
        assert len(np.unique(table.round(9), axis=0)) == 100


class TestSpatialFeatures:
    def test_shape(self):
        grid = make_grid()
        feats = spatial_features(walk(15), grid)
        assert feats.shape == (15, 4)

    def test_coordinates_normalized(self):
        grid = make_grid()
        feats = spatial_features(walk(25, seed=1), grid)
        assert (feats[:, 0] >= 0).all() and (feats[:, 0] <= 1).all()
        assert (feats[:, 1] >= 0).all() and (feats[:, 1] <= 1).all()

    def test_straight_line_radian_is_one(self):
        """Interior angles of a straight line are π -> normalized to 1."""
        grid = make_grid()
        line = np.stack([np.linspace(100, 900, 10), np.full(10, 500.0)], axis=1)
        feats = spatial_features(line, grid)
        np.testing.assert_allclose(feats[:, 2], 1.0)

    def test_right_angle_half(self):
        grid = make_grid()
        corner = np.array([[100.0, 100.0], [200.0, 100.0], [200.0, 200.0]])
        feats = spatial_features(corner, grid)
        assert feats[1, 2] == pytest.approx(0.5)

    def test_segment_length_feature(self):
        grid = make_grid()  # cell 100
        pts = np.array([[0.0, 0.0], [100.0, 0.0], [300.0, 0.0]])
        feats = spatial_features(pts, grid)
        assert feats[0, 3] == pytest.approx(1.0)    # first: only next segment
        assert feats[1, 3] == pytest.approx(1.5)    # mean(100, 200)/100
        assert feats[2, 3] == pytest.approx(2.0)    # last: only prev segment

    def test_single_point(self):
        grid = make_grid()
        feats = spatial_features(np.array([[500.0, 500.0]]), grid)
        assert feats.shape == (1, 4)
        assert feats[0, 2] == pytest.approx(1.0)
        assert feats[0, 3] == pytest.approx(0.0)


class TestFeatureEnrichment:
    def make_enrichment(self, max_len=32, dim=8):
        grid = make_grid()
        rng = np.random.default_rng(0)
        table = rng.standard_normal((grid.n_cells, dim))
        return FeatureEnrichment(grid, table, max_len=max_len), table, grid

    def test_encode_one_shapes(self):
        enrichment, _, _ = self.make_enrichment()
        t_mat, s_mat = enrichment.encode_one(walk(20))
        assert t_mat.shape == (20, 8)
        assert s_mat.shape == (20, 4)

    def test_structural_uses_cell_embedding_plus_pe(self):
        enrichment, table, grid = self.make_enrichment()
        pts = walk(5, seed=3)
        t_mat, _ = enrichment.encode_one(pts)
        cells = grid.cell_of(pts)
        pe = sinusoidal_position_encoding(enrichment.max_len, 8)
        np.testing.assert_allclose(t_mat, table[cells] + pe[:5])

    def test_truncation_to_max_len(self):
        enrichment, _, _ = self.make_enrichment(max_len=10)
        t_mat, s_mat = enrichment.encode_one(walk(50))
        assert len(t_mat) == 10 and len(s_mat) == 10

    def test_encode_batch_padding(self):
        enrichment, _, _ = self.make_enrichment(max_len=16)
        batch = [walk(5, seed=1), walk(12, seed=2)]
        structural, spatial, mask, lengths = enrichment.encode_batch(batch)
        assert structural.shape == (2, 16, 8)
        assert spatial.shape == (2, 16, 4)
        np.testing.assert_array_equal(lengths, [5, 12])
        assert mask[0, 5:].all() and not mask[0, :5].any()
        np.testing.assert_allclose(structural[0, 5:], 0.0)
        np.testing.assert_allclose(spatial[1, 12:], 0.0)

    def test_empty_batch_raises(self):
        enrichment, _, _ = self.make_enrichment()
        with pytest.raises(ValueError):
            enrichment.encode_batch([])

    def test_vectorized_batch_matches_encode_one(self):
        """The batched featurization (one pass over the concatenated
        points) must reproduce the per-trajectory reference exactly."""
        enrichment, _, _ = self.make_enrichment(max_len=16)
        batch = [walk(5, seed=1), walk(12, seed=2),
                 np.array([[500.0, 500.0]]),            # single point
                 np.array([[100.0, 100.0], [180.0, 240.0]]),  # two points
                 walk(30, seed=3)]                      # truncated to 16
        structural, spatial, mask, lengths = enrichment.encode_batch(batch)
        for i, trajectory in enumerate(batch):
            t_mat, s_mat = enrichment.encode_one(trajectory)
            n = len(t_mat)
            assert lengths[i] == n
            np.testing.assert_array_equal(structural[i, :n], t_mat)
            np.testing.assert_array_equal(spatial[i, :n], s_mat)
            # padded slots are +0.0, bit for bit (not the -0.0 a multiply
            # by a validity mask would leave)
            assert not structural[i, n:].tobytes().strip(b"\0")
            assert not spatial[i, n:].tobytes().strip(b"\0")
            assert not mask[i, :n].any() and mask[i, n:].all()

    @pytest.mark.parametrize("lengths", [
        [1], [2], [1, 1], [2, 2], [2, 1, 2], [1, 7, 2, 1],
        [3, 1, 1, 5, 2], [16, 2, 1, 9, 1]])
    def test_flat_spatial_features_are_the_per_trajectory_bits(self,
                                                               lengths):
        """Shifted slices over the packed points, each trajectory's ends
        overwritten: the bits of ``spatial_features``, one trajectory at
        a time, for ragged, 1-point and 2-point runs at either end."""
        enrichment, _, grid = self.make_enrichment()
        batch = [walk(n, seed=i) for i, n in enumerate(lengths)]
        offsets = np.concatenate(([0], np.cumsum(lengths)))
        flat = enrichment._flat_spatial_features(
            np.concatenate(batch), offsets, np.diff(offsets))
        expected = np.concatenate([spatial_features(t, grid) for t in batch])
        assert flat.tobytes() == expected.tobytes()

    def test_pad_len_narrows_batch(self):
        enrichment, _, _ = self.make_enrichment(max_len=16)
        batch = [walk(5, seed=1), walk(8, seed=2)]
        structural, spatial, mask, lengths = enrichment.encode_batch(
            batch, pad_len=8
        )
        assert structural.shape == (2, 8, 8)
        assert spatial.shape == (2, 8, 4)
        assert mask.shape == (2, 8)
        # Valid positions identical to the max_len padding.
        full_t, full_s, _, _ = enrichment.encode_batch(batch)
        np.testing.assert_array_equal(structural, full_t[:, :8])
        np.testing.assert_array_equal(spatial, full_s[:, :8])

    def test_pad_len_validation(self):
        enrichment, _, _ = self.make_enrichment(max_len=16)
        batch = [walk(10, seed=1)]
        with pytest.raises(ValueError):
            enrichment.encode_batch(batch, pad_len=9)   # shorter than data
        with pytest.raises(ValueError):
            enrichment.encode_batch(batch, pad_len=17)  # beyond the PE table

    def test_batch_rejects_malformed_trajectories(self):
        enrichment, _, _ = self.make_enrichment()
        with pytest.raises(ValueError):
            enrichment.encode_batch([np.zeros((4, 3))])
        with pytest.raises(ValueError):
            enrichment.encode_batch([np.empty((0, 2))])
        with pytest.raises(ValueError):
            enrichment.encode_batch([np.array([[np.inf, 1.0], [0.0, 0.0]])])

    def test_rejects_non_finite_beyond_max_len(self):
        """Validation must match as_points: a NaN after the truncation
        point still rejects the trajectory (fast/reference parity)."""
        enrichment, _, _ = self.make_enrichment(max_len=4)
        bad = np.zeros((6, 2)) + 500.0
        bad[5] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            enrichment.encode_batch([bad])

    def test_wrong_cell_table_shape(self):
        grid = make_grid()
        with pytest.raises(ValueError):
            FeatureEnrichment(grid, np.zeros((3, 8)))

    def test_max_len_validation(self):
        grid = make_grid()
        with pytest.raises(ValueError):
            FeatureEnrichment(grid, np.zeros((grid.n_cells, 8)), max_len=1)

    def test_astype_builds_batches_in_that_dtype(self):
        """The inference engine's cast-once copy: float32 tables, float32
        padded batches — the float64 batch rounded, nothing else."""
        enrichment, _, grid = self.make_enrichment()
        assert enrichment.astype(np.float64) is enrichment
        compact = enrichment.astype(np.float32)
        assert compact.grid is grid and compact.max_len == enrichment.max_len
        assert compact.cell_embeddings.dtype == np.float32
        batch = [walk(5, seed=1), walk(30, seed=2)]
        t64, s64, mask64, lengths64 = enrichment.encode_batch(batch)
        t32, s32, mask32, lengths32 = compact.encode_batch(batch)
        assert t64.dtype == s64.dtype == np.float64
        assert t32.dtype == s32.dtype == np.float32
        np.testing.assert_array_equal(mask32, mask64)
        np.testing.assert_array_equal(lengths32, lengths64)
        np.testing.assert_allclose(t32, t64, rtol=0, atol=1e-6)
        np.testing.assert_allclose(s32, s64, rtol=0, atol=1e-6)
