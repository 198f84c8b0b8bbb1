"""scipy's order-1, edge-clamped affine transform, one channel at a time:
the oracle whose bytes ``augment2d._apply_warp`` reproduces."""

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
