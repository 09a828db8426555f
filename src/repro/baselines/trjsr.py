"""TrjSR baseline (Cao et al., IJCNN 2021) — CNN over trajectory rasters.

TrjSR converts trajectories into images and learns embeddings by *single-
image super-resolution*: a convolutional generator upsamples a low-
resolution trajectory raster toward the high-resolution raster of the same
trajectory; intermediate CNN features (globally pooled) are the trajectory
embedding. Spatial patterns are captured by convolution — the paper notes
this stacks many conv layers and is the slowest learned baseline (Tables
VII/VIII), a property the architecture class preserves here.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from .. import nn
from ..core.learned import LearnedSimilarityMeasure
from ..trajectory.trajectory import TrajectoryLike, as_points


def rasterize(
    points: np.ndarray,
    resolution: int,
    bbox: Tuple[float, float, float, float],
) -> np.ndarray:
    """Accumulate trajectory points into a ``(resolution, resolution)`` image.

    Pixel intensity counts visits (log-scaled), an approximation of TrjSR's
    grey-scale point-density rendering.
    """
    min_x, min_y, max_x, max_y = bbox
    span_x = max(max_x - min_x, 1e-9)
    span_y = max(max_y - min_y, 1e-9)
    cols = np.clip(((points[:, 0] - min_x) / span_x * resolution).astype(int),
                   0, resolution - 1)
    rows = np.clip(((points[:, 1] - min_y) / span_y * resolution).astype(int),
                   0, resolution - 1)
    image = np.zeros((resolution, resolution))
    np.add.at(image, (rows, cols), 1.0)
    return np.log1p(image)


class TrjSR(LearnedSimilarityMeasure):
    """Super-resolution CNN embedding model."""

    name = "trjsr"

    def __init__(
        self,
        bbox: Tuple[float, float, float, float],
        low_res: int = 16,
        high_res: int = 32,
        channels: int = 8,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if high_res % low_res:
            raise ValueError("high_res must be a multiple of low_res")
        rng = rng if rng is not None else np.random.default_rng()
        self.bbox = bbox
        self.low_res = low_res
        self.high_res = high_res
        self.upscale = high_res // low_res
        self.output_dim = channels * 2

        # Encoder: two conv blocks to the bottleneck (embedding features).
        self.conv1 = nn.Conv2d(1, channels, kernel_size=3, padding=1, rng=rng)
        self.conv2 = nn.Conv2d(channels, channels * 2, kernel_size=3, padding=1, rng=rng)
        # Generator head: reconstruct the high-res raster from the bottleneck.
        self.conv3 = nn.Conv2d(channels * 2, channels, kernel_size=3, padding=1, rng=rng)
        self.conv_out = nn.Conv2d(channels, self.upscale * self.upscale,
                                  kernel_size=3, padding=1, rng=rng)
        self.pool = nn.AdaptiveAvgPool2d()

    # ------------------------------------------------------------------
    # Forward pieces
    # ------------------------------------------------------------------
    def _bottleneck(self, images: nn.Tensor) -> nn.Tensor:
        x = self.conv1(images).relu()
        return self.conv2(x).relu()

    def _pixel_shuffle(self, x: nn.Tensor) -> nn.Tensor:
        """(B, r², H, W) -> (B, 1, rH, rW) sub-pixel rearrangement."""
        batch, _, height, width = x.shape
        r = self.upscale
        x = x.reshape(batch, r, r, height, width)
        x = x.transpose(0, 3, 1, 4, 2)            # (B, H, r, W, r)
        return x.reshape(batch, 1, height * r, width * r)

    def _reconstruct(self, images: nn.Tensor) -> nn.Tensor:
        features = self._bottleneck(images)
        x = self.conv3(features).relu()
        return self._pixel_shuffle(self.conv_out(x))

    def _raster_batch(self, trajectories: Sequence[TrajectoryLike],
                      resolution: int) -> np.ndarray:
        images = np.stack([
            rasterize(as_points(t), resolution, self.bbox) for t in trajectories
        ])
        return images[:, None, :, :]  # channel axis

    def embed_batch(self, trajectories: Sequence[TrajectoryLike]) -> nn.Tensor:
        images = nn.Tensor(self._raster_batch(trajectories, self.low_res))
        return self.pool(self._bottleneck(images))

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(
        self,
        trajectories: Sequence[TrajectoryLike],
        epochs: int = 3,
        batch_size: int = 16,
        lr: float = 1e-3,
        rng: Optional[np.random.Generator] = None,
    ) -> List[float]:
        """Super-resolution MSE training; returns per-epoch mean losses."""
        if not trajectories:
            raise ValueError("no training trajectories")
        rng = rng if rng is not None else np.random.default_rng(0)
        optimizer = nn.Adam(self.parameters(), lr=lr)

        def batch_loss(index: np.ndarray) -> nn.Tensor:
            batch = [trajectories[i] for i in index]
            low = nn.Tensor(self._raster_batch(batch, self.low_res))
            high = self._raster_batch(batch, self.high_res)
            diff = self._reconstruct(low) - nn.Tensor(high)
            return (diff * diff).mean()

        return [nn.train_epoch(optimizer, len(trajectories), batch_size, rng,
                               batch_loss)
                for _epoch in range(epochs)]
