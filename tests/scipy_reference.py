"""scipy's order-1, edge-clamped affine transform and its edge-clamped
Gaussian blur, one channel at a time: the oracles whose bytes
``augment2d._apply_warp`` and ``augment2d._blur`` reproduce."""

from __future__ import annotations

import numpy as np
from scipy import ndimage


def scipy_warp(channels: np.ndarray, forward: np.ndarray) -> np.ndarray:
    inverse = np.linalg.inv(forward)
    out = np.empty(channels.shape, dtype=np.float32)
    for c, channel in enumerate(channels):
        out[c] = ndimage.affine_transform(
            channel,
            matrix=inverse[:2, :2],
            offset=inverse[:2, 2],
            order=1,
            mode="nearest",
            output=np.float32,
        )
    return out


def scipy_blur(channels: np.ndarray, sigma: float) -> np.ndarray:
    out = np.empty(channels.shape, dtype=np.float32)
    for c, channel in enumerate(channels):
        ndimage.gaussian_filter(channel, sigma, output=out[c], mode="nearest")
    return out
