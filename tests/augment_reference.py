"""The whole-stack augment, warp and feature extraction, frozen as they were
before ``augment2d`` and ``classhead`` stopped making whole-stack temporaries:
the oracle whose bytes those modules keep.

Each transform works on a whole (4, W, H) array: the warp gathers from a
float64 copy of the stack, noise is one (4, W, H) draw added out of place,
the floor clamp makes a new array, and features widen the whole stack.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy import ndimage

from mipclass.augment2d import (
    _BLUR_MIN_SIGMA,
    _SEED_FIELD,
    WARP_BLOCK_ROWS,
    _axis_taps,
    _fill_values,
    _stream,
    _warp_matrix,
)
from mipclass.classhead import feature_dim
from mipclass.mipbuild import MipStack, check_fields


def reference_warp(channels: np.ndarray, forward: np.ndarray) -> np.ndarray:
    inverse = np.linalg.inv(forward)
    n_ch, w, h = channels.shape
    terms = [
        (inverse[k, 2] + np.arange(w) * inverse[k, 0], np.arange(h) * inverse[k, 1])
        for k in (0, 1)
    ]
    for across, down in terms:
        if not np.isfinite([across.min() + down.min(), across.max() + down.max()]).all():
            raise ValueError(f"warp {forward.tolist()} gives non-finite source coordinates")
    src = channels.reshape(n_ch, w * h).astype(np.float64)
    out = np.empty(channels.shape, dtype=np.float32)
    acc = np.empty((n_ch, min(WARP_BLOCK_ROWS, w) * h))
    tap = np.empty_like(acc)
    (across_x, down_x), (across_y, down_y) = terms
    for x0 in range(0, w, WARP_BLOCK_ROWS):
        rows = slice(x0, x0 + WARP_BLOCK_ROWS)
        lo_x, hi_x, wx0, wx1 = _axis_taps((across_x[rows, None] + down_x).ravel(), w)
        lo_y, hi_y, wy0, wy1 = _axis_taps((across_y[rows, None] + down_y).ravel(), h)
        block, gathered = acc[:, : lo_x.size], tap[:, : lo_x.size]
        block.fill(0.0)
        for ix, wx in ((lo_x * h, wx0), (hi_x * h, wx1)):
            for iy, wy in ((lo_y, wy0), (hi_y, wy1)):
                idx = ix + iy
                for c in range(n_ch):
                    np.take(src[c], idx, out=gathered[c], mode="clip")
                gathered *= wx
                gathered *= wy
                block += gathered
        out[:, rows] = block.reshape(n_ch, -1, h)
    return out


def reference_augment(stack: MipStack, seed: int, policy) -> MipStack:
    check_fields({"seed": seed}, _SEED_FIELD)
    channels = stack.channels.copy()
    w, h = channels.shape[1], channels.shape[2]
    applied: list[str] = []

    if _stream(seed, "hflip").random() < policy.hflip_p:
        channels = channels[:, ::-1, :]
        applied.append("hflip")
    if _stream(seed, "vflip").random() < policy.vflip_p:
        channels = channels[:, :, ::-1]
        applied.append("vflip")

    angle = 0.0
    scale = 1.0
    shear = 0.0
    translate = (0.0, 0.0)
    rot_rng = _stream(seed, "rotate")
    if rot_rng.random() < policy.rotate_p:
        angle = float(rot_rng.uniform(-policy.rotate_deg, policy.rotate_deg))
        applied.append("rotate")
    aff_rng = _stream(seed, "affine")
    if aff_rng.random() < policy.affine_p:
        scale = float(aff_rng.uniform(*policy.scale_range))
        shear = float(aff_rng.uniform(-policy.shear_deg, policy.shear_deg))
        translate = (
            float(aff_rng.uniform(-policy.translate_frac, policy.translate_frac)) * w,
            float(aff_rng.uniform(-policy.translate_frac, policy.translate_frac)) * h,
        )
        applied.append("affine")
    if angle != 0.0 or scale != 1.0 or shear != 0.0 or translate != (0.0, 0.0):
        with np.errstate(over="ignore", invalid="ignore"):
            channels = reference_warp(
                np.ascontiguousarray(channels),
                _warp_matrix((w, h), angle, scale, shear, translate),
            )

    bri_rng = _stream(seed, "brightness")
    if bri_rng.random() < policy.brightness_p:
        delta = np.float32(bri_rng.uniform(-policy.brightness_delta, policy.brightness_delta))
        channels = channels + delta
        applied.append("brightness")
    con_rng = _stream(seed, "contrast")
    if con_rng.random() < policy.contrast_p:
        factor = np.float32(1.0 + con_rng.uniform(-policy.contrast_delta, policy.contrast_delta))
        means = channels.mean(axis=(1, 2), keepdims=True)
        channels = (channels - means) * factor + means
        applied.append("contrast")

    noise_rng = _stream(seed, "noise")
    if noise_rng.random() < policy.noise_p:
        sigma = float(noise_rng.uniform(0.0, policy.noise_sigma))
        if sigma > 0.0:
            channels = channels + noise_rng.normal(0.0, sigma, channels.shape).astype(np.float32)
            applied.append("noise")

    blur_rng = _stream(seed, "blur")
    if blur_rng.random() < policy.blur_p:
        sigma = float(blur_rng.uniform(0.0, policy.blur_sigma))
        if sigma > _BLUR_MIN_SIGMA:
            blurred = np.empty_like(channels, dtype=np.float32)
            for c in range(4):
                blurred[c] = ndimage.gaussian_filter(
                    channels[c].astype(np.float32), sigma, mode="nearest"
                )
            channels = blurred
            applied.append("blur")

    drop_rng = _stream(seed, "dropout")
    if (
        policy.dropout_max_holes > 0
        and policy.dropout_max_size > 0
        and drop_rng.random() < policy.dropout_p
    ):
        fills = _fill_values(stack)
        channels = np.array(channels, dtype=np.float32)
        n_holes = int(drop_rng.integers(1, policy.dropout_max_holes + 1))
        for _ in range(n_holes):
            hw = int(drop_rng.integers(1, policy.dropout_max_size + 1))
            hh = int(drop_rng.integers(1, policy.dropout_max_size + 1))
            x0 = int(drop_rng.integers(0, max(1, w - hw + 1)))
            y0 = int(drop_rng.integers(0, max(1, h - hh + 1)))
            for c in range(4):
                channels[c, x0 : x0 + hw, y0 : y0 + hh] = np.float32(fills[c])
        applied.append("dropout")

    if not stack.normalized:
        channels = np.maximum(channels, np.float32(0.0))

    return replace(
        stack,
        channels=np.ascontiguousarray(channels, dtype=np.float32),
        meta={**stack.meta, "augment_applied": applied, "augment_seed": int(seed)},
    )


def reference_features(stack: MipStack, grid: int) -> np.ndarray:
    channels = stack.channels.astype(np.float64)
    _, w, h = channels.shape
    x_edges = [0] + [(w // grid) * (i + 1) for i in range(grid - 1)] + [w]
    y_edges = [0] + [(h // grid) * (i + 1) for i in range(grid - 1)] + [h]
    features = np.empty(feature_dim(grid), dtype=np.float64)
    pos = 0
    for c in range(4):
        features[pos] = channels[c].mean()
        pos += 1
        for xi in range(grid):
            for yi in range(grid):
                cell = channels[c, x_edges[xi] : x_edges[xi + 1], y_edges[yi] : y_edges[yi + 1]]
                features[pos] = cell.mean() if cell.size else 0.0
                pos += 1
    return features.astype(np.float32)
