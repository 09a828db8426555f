"""Tests for the TrajCL MoCo model, the negative queue, and the trainer."""

import numpy as np
import pytest

from repro.core import NegativeQueue, TrajCL, TrajCLConfig, TrajCLTrainer
from repro.core.model import FeatureEnrichment
from repro.index import distance

from .conftest import make_trajectories


class TestNegativeQueue:
    def test_starts_empty(self):
        queue = NegativeQueue(8, 4)
        assert len(queue) == 0
        assert queue.negatives() is None

    def test_push_and_normalization(self):
        queue = NegativeQueue(8, 4)
        queue.push(np.array([[3.0, 0.0, 0.0, 0.0]]))
        negatives = queue.negatives()
        assert negatives.shape == (1, 4)
        np.testing.assert_allclose(np.linalg.norm(negatives[0]), 1.0)

    def test_fifo_overwrite(self):
        queue = NegativeQueue(3, 2)
        for value in range(5):
            queue.push(np.array([[float(value + 1), 0.0]]))
        negatives = queue.negatives()
        assert len(queue) == 3
        # all normalized to the same unit vector, but the buffer holds the
        # 3 most recent entries (positions rotate)
        assert negatives.shape == (3, 2)

    def test_zero_capacity_noop(self):
        queue = NegativeQueue(0, 4)
        queue.push(np.ones((2, 4)))
        assert queue.negatives() is None

    def test_shape_validation(self):
        queue = NegativeQueue(4, 4)
        with pytest.raises(ValueError):
            queue.push(np.ones((2, 3)))
        with pytest.raises(ValueError):
            NegativeQueue(-1, 4)

    @pytest.mark.parametrize("capacity", [1, 3, 7, 16])
    def test_vectorized_push_matches_per_row_reference(self, capacity):
        """The wrap-around slice assignment is bit-identical to pushing one
        row at a time (pointer, size and buffer contents)."""

        def reference_push(queue, vectors):
            vectors = np.asarray(vectors, dtype=np.float64)
            norms = np.linalg.norm(vectors, axis=1, keepdims=True)
            vectors = vectors / np.maximum(norms, 1e-8)
            for row in vectors:
                queue._buffer[queue._pointer] = row
                queue._pointer = (queue._pointer + 1) % queue.capacity
                queue._size = min(queue._size + 1, queue.capacity)

        rng = np.random.default_rng(0)
        fast = NegativeQueue(capacity, 4)
        slow = NegativeQueue(capacity, 4)
        for _ in range(40):
            batch = rng.standard_normal(
                (int(rng.integers(1, 2 * capacity + 3)), 4)
            )
            fast.push(batch)
            reference_push(slow, batch)
            assert fast._pointer == slow._pointer
            assert len(fast) == len(slow)
            np.testing.assert_allclose(fast._buffer, slow._buffer)


class TestTrajCLModel:
    def test_dim_mismatch_raises(self, small_setup):
        config, features, _ = small_setup
        bad_config = config.with_overrides(structural_dim=32)
        with pytest.raises(ValueError):
            TrajCL(features, bad_config)

    def test_momentum_branch_initialized_identically(self, small_model):
        online = small_model.encoder.state_dict()
        momentum = small_model.momentum_encoder.state_dict()
        for key in online:
            np.testing.assert_allclose(online[key], momentum[key])

    def test_momentum_params_excluded_from_training(self, small_model):
        trainable_ids = {id(p) for p in small_model.trainable_parameters()}
        for param in small_model.momentum_encoder.parameters():
            assert id(param) not in trainable_ids
            assert not param.requires_grad

    def test_momentum_update_moves_toward_online(self, small_model, small_setup):
        _, _, trajectories = small_setup
        # Perturb online branch, then EMA: momentum must move slightly.
        for param in small_model.encoder.parameters():
            param.data += 1.0
        before = {k: v.copy() for k, v in small_model.momentum_encoder.state_dict().items()}
        small_model.momentum_update()
        after = small_model.momentum_encoder.state_dict()
        m = small_model.config.momentum
        online = small_model.encoder.state_dict()
        for key in before:
            expected = m * before[key] + (1 - m) * online[key]
            np.testing.assert_allclose(after[key], expected, atol=1e-12)

    def test_contrastive_loss_scalar_and_queue_growth(self, small_model, small_setup):
        _, _, trajectories = small_setup
        batch = trajectories[:6]
        loss = small_model.contrastive_loss(batch, batch)
        assert loss.size == 1
        assert np.isfinite(loss.item())
        assert len(small_model.queue) == 6

    def test_contrastive_loss_no_queue_update_option(self, small_model, small_setup):
        _, _, trajectories = small_setup
        small_model.contrastive_loss(trajectories[:4], trajectories[:4],
                                     update_queue=False)
        assert len(small_model.queue) == 0

    def test_encode_shape_and_determinism(self, small_model, small_setup):
        _, _, trajectories = small_setup
        emb_a = small_model.encode(trajectories[:5])
        emb_b = small_model.encode(trajectories[:5])
        assert emb_a.shape == (5, small_model.encoder.output_dim)
        np.testing.assert_allclose(emb_a, emb_b)  # eval mode: no dropout noise

    def test_encode_batched_equals_single(self, small_model, small_setup):
        _, _, trajectories = small_setup
        full = small_model.encode(trajectories[:7], batch_size=3,
                                  dtype="float64")
        single = small_model.encode(trajectories[:7], batch_size=100,
                                    dtype="float64")
        np.testing.assert_allclose(full, single, atol=1e-10)

    def test_distance_matrix_properties(self, small_model, small_setup):
        _, _, trajectories = small_setup
        matrix = small_model.distance_matrix(trajectories[:3], trajectories[:5])
        assert matrix.shape == (3, 5)
        assert (matrix >= 0).all()
        # self-distance 0 on the diagonal when query == database entry: to
        # float32 round-off as served (a batch of 3 and a batch of 5 run
        # different BLAS tiles), to 1e-9 when float64 is asked for
        assert matrix.dtype == np.float32
        np.testing.assert_allclose(np.diag(matrix[:, :3]), 0.0,
                                   atol=1e-5 * matrix.max())
        exact = distance.pairwise(
            small_model.encode(trajectories[:3], dtype="float64"),
            small_model.encode(trajectories[:5], dtype="float64"))
        np.testing.assert_allclose(np.diag(exact[:, :3]), 0.0, atol=1e-9)

    def test_encoder_variants_construct(self, small_setup):
        config, features, _ = small_setup
        for variant in ["dual", "msm", "concat"]:
            model = TrajCL(features, config, encoder_variant=variant,
                           rng=np.random.default_rng(3))
            emb = model.encode(make_trajectories(3, seed=9))
            assert emb.shape[0] == 3


class TestTrainer:
    def test_loss_improves_once_queue_is_full(self, small_setup):
        """Raw InfoNCE rises while the queue fills (more negatives = higher
        loss floor); once full, continued training must reduce it."""
        config, features, trajectories = small_setup
        config = config.with_overrides(max_epochs=6, queue_size=32, batch_size=8)
        model = TrajCL(features, config, rng=np.random.default_rng(4))
        trainer = TrajCLTrainer(model, rng=np.random.default_rng(5))
        history = trainer.fit(trajectories)
        assert history.epochs_run >= 4
        assert all(np.isfinite(history.losses))
        # Queue (32) fills during epoch 2 (32 samples/epoch); compare after.
        assert min(history.losses[2:]) <= history.losses[1] + 0.25

    def test_history_records_times(self, small_setup):
        config, features, trajectories = small_setup
        model = TrajCL(features, config.with_overrides(max_epochs=1),
                       rng=np.random.default_rng(6))
        history = TrajCLTrainer(model).fit(trajectories[:8])
        assert len(history.epoch_seconds) == 1
        assert history.epoch_seconds[0] > 0
        assert history.total_seconds == pytest.approx(sum(history.epoch_seconds))

    def test_callback_invoked_per_epoch(self, small_setup):
        config, features, trajectories = small_setup
        model = TrajCL(features, config.with_overrides(max_epochs=2),
                       rng=np.random.default_rng(7))
        calls = []
        TrajCLTrainer(model).fit(
            trajectories[:8], callback=lambda e, loss: calls.append((e, loss))
        )
        assert [c[0] for c in calls] == [0, 1]

    def test_empty_training_set_raises(self, small_setup):
        config, features, _ = small_setup
        model = TrajCL(features, config, rng=np.random.default_rng(8))
        with pytest.raises(ValueError):
            TrajCLTrainer(model).fit([])

    def test_early_stopping(self, small_setup):
        config, features, trajectories = small_setup
        config = config.with_overrides(max_epochs=30, early_stop_patience=1,
                                       learning_rate=1e-12)
        model = TrajCL(features, config, rng=np.random.default_rng(9))
        history = TrajCLTrainer(model).fit(trajectories[:8])
        # lr=0 -> no improvement -> patience triggers quickly
        assert history.stopped_early
        assert history.epochs_run <= 5

    def test_make_views_uses_configured_augmentations(self, small_setup):
        config, features, trajectories = small_setup
        config = config.with_overrides(augmentations=("mask", "mask"),
                                       mask_ratio=0.5)
        model = TrajCL(features, config, rng=np.random.default_rng(10))
        trainer = TrajCLTrainer(model, rng=np.random.default_rng(11))
        view_a, view_b = trainer.make_views(trajectories[0])
        n = len(trajectories[0])
        assert len(view_a) == n // 2
        assert len(view_b) == n // 2

    def test_similar_trajectories_embed_closer_after_training(self, small_setup):
        """The headline property: views of the same trajectory end up closer
        than unrelated trajectories in embedding space."""
        config, features, trajectories = small_setup
        config = config.with_overrides(max_epochs=10, queue_size=64, batch_size=8)
        model = TrajCL(features, config, rng=np.random.default_rng(12))
        trainer = TrajCLTrainer(model, rng=np.random.default_rng(13))
        trainer.fit(trajectories)

        rng = np.random.default_rng(14)
        from repro.core.augmentation import point_mask

        anchors = trajectories[:10]
        views = [point_mask(t, rng, ratio=0.3) for t in anchors]
        emb_anchor = model.encode(anchors)
        emb_view = model.encode(views)
        distances = np.abs(emb_anchor[:, None] - emb_view[None, :]).sum(axis=2)
        positive = float(np.diag(distances).mean())
        negative = float(distances[~np.eye(10, dtype=bool)].mean())
        assert positive < negative, (
            f"positive distance {positive:.3f} not below negatives {negative:.3f}"
        )
        top1 = float((distances.argmin(axis=1) == np.arange(10)).mean())
        assert top1 >= 0.5, f"view retrieval top-1 only {top1:.2f}"
