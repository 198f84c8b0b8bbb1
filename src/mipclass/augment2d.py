"""Seeded 2D augmentation of MIP stacks.

Every transform draws from its own counter-based (Philox) stream keyed by
``(seed, transform index)``, so outputs are bit-identical across runs,
platforms, and scheduling orders.  Geometric transforms use one parameter
set for all four channels, which keeps the channels spatially aligned.

Implemented families: horizontal/vertical flip, rotation, affine
(scale/shear/translate), brightness, contrast, gaussian noise, gaussian
blur, coarse dropout.  Magnitude defaults are this library's choices and
are fully configurable through :class:`AugmentPolicy`.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .mipbuild import POSITIVE, MipStack, _FieldError, bounded, check_fields, field_specs
from .mipbuild import recorded_constants

# fixed stream indices; changing these changes every sampled augmentation
_STREAMS = {
    "hflip": 0,
    "vflip": 1,
    "rotate": 2,
    "affine": 3,
    "brightness": 4,
    "contrast": 5,
    "noise": 6,
    "blur": 7,
    "dropout": 8,
}

# one probability field per transform, e.g. "hflip_p"
_PROB_FIELDS = tuple(f"{name}_p" for name in _STREAMS)

_BLUR_MIN_SIGMA = 1e-3


@dataclass(frozen=True)
class AugmentPolicy:
    """Per-transform probabilities and magnitude ranges."""

    hflip_p: float = bounded(0.0, 0.0, 1.0)
    vflip_p: float = bounded(0.0, 0.0, 1.0)
    rotate_p: float = bounded(0.0, 0.0, 1.0)
    rotate_deg: float = 15.0
    affine_p: float = bounded(0.0, 0.0, 1.0)
    scale_range: tuple[float, float] = bounded((0.9, 1.1), POSITIVE)
    shear_deg: float = 10.0
    translate_frac: float = 0.05
    brightness_p: float = bounded(0.0, 0.0, 1.0)
    brightness_delta: float = 0.2
    contrast_p: float = bounded(0.0, 0.0, 1.0)
    contrast_delta: float = 0.2
    noise_p: float = bounded(0.0, 0.0, 1.0)
    noise_sigma: float = bounded(0.05, 0.0)
    blur_p: float = bounded(0.0, 0.0, 1.0)
    # a blur's cost grows with its radius, 4σ: σ 32 blurs a 4×256×256 stack in about 0.1 s
    blur_sigma: float = bounded(1.5, 0.0, 32.0)
    dropout_p: float = bounded(0.0, 0.0, 1.0)
    # each hole is one write, in a Python loop, so the count bounds a breast-epoch's cost
    dropout_max_holes: int = bounded(8, 0, 1024)
    dropout_max_size: int = bounded(32, 0)

    def __post_init__(self) -> None:
        check_fields(self, field_specs(type(self)))
        if self.scale_range[1] < self.scale_range[0]:
            raise _FieldError(type(self), "scale_range must be ordered", self.scale_range)

    @property
    def active(self) -> bool:
        """True when any transform can fire, i.e. some probability is above 0."""
        return any(getattr(self, name) > 0.0 for name in _PROB_FIELDS)


def default_policy() -> AugmentPolicy:
    """Everything enabled at p=0.5 with the default magnitudes."""
    return AugmentPolicy(**{name: 0.5 for name in _PROB_FIELDS})


def derive_seed(global_seed: int, patient_id: str, side: str, epoch: int) -> int:
    """Stable per-sample seed: first 8 LE bytes of sha256(seed:patient:side:epoch)."""
    text = f"{global_seed}:{patient_id}:{side}:{epoch}"
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


# the seed is the high 64 bits of every stream's Philox key
_SEED_FIELD = {"seed": (int, 0, 0, 2**64 - 1)}


def _stream(seed: int, name: str) -> np.random.Generator:
    key = (int(seed) << 64) | _STREAMS[name]
    return np.random.Generator(np.random.Philox(key=key))


def _fill_values(stack: MipStack) -> np.ndarray:
    """Per-channel value meaning "zero signal" in the stack's current scale."""
    if not stack.normalized:
        return np.zeros(4, dtype=np.float64)
    constants = recorded_constants(stack)
    return (0.0 - np.asarray(constants.means, np.float64)) / np.asarray(constants.stds, np.float64)


def _warp_matrix(
    shape: tuple[int, int],
    angle_deg: float,
    scale: float,
    shear_deg: float,
    translate: tuple[float, float],
) -> np.ndarray:
    """Forward 3x3 homogeneous transform about the image center (pixel units)."""
    cx, cy = (shape[0] - 1) / 2.0, (shape[1] - 1) / 2.0
    theta = math.radians(angle_deg)
    sh = math.tan(math.radians(shear_deg))
    rot = np.array(
        [
            [math.cos(theta), -math.sin(theta), 0.0],
            [math.sin(theta), math.cos(theta), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    shear = np.array([[1.0, sh, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    scl = np.diag((scale, scale, 1.0))
    to_center = np.array(
        [[1.0, 0.0, cx + translate[0]], [0.0, 1.0, cy + translate[1]], [0.0, 0.0, 1.0]]
    )
    from_center = np.array([[1.0, 0.0, -cx], [0.0, 1.0, -cy], [0.0, 0.0, 1.0]])
    return to_center @ rot @ shear @ scl @ from_center


# Output rows per block of the bilinear warp: one block's coordinates, taps and
# float64 accumulators for all four channels stay in cache.  Per-pixel
# arithmetic does not depend on it, so neither do the bytes.
WARP_BLOCK_ROWS = 32


def _axis_taps(coord: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Linear taps along one axis of length n: (lo, hi, w_lo, w_hi).

    As scipy's spline weights: ``w_lo = 1 − (c − floor(c))`` of the unclamped
    coordinate and ``w_hi = 1 − w_lo``, which is not always ``c − floor(c)``.
    Only the tap indices ``floor(c)`` and ``floor(c) + 1`` are clamped into
    ``[0, n − 1]``.
    """
    lo = np.floor(coord)
    w_lo = 1.0 - (coord - lo)
    # clipped before the cast, so a far-off coordinate cannot overflow intp
    lo = np.clip(lo, -1, n - 1, out=lo).astype(np.intp)
    return np.maximum(lo, 0), np.minimum(lo + 1, n - 1), w_lo, 1.0 - w_lo


def _apply_warp(channels: np.ndarray, forward: np.ndarray) -> np.ndarray:
    """Bilinear warp of every channel by the same matrix, edge-clamped.

    The bytes are those of ``ndimage.affine_transform(order=1, mode="nearest")``
    per channel: each source coordinate is ``(inv[k, 2] + x·inv[k, 0]) +
    y·inv[k, 1]`` in float64, with taps from :func:`_axis_taps`; the four taps
    are summed as ``(a·wx)·wy`` from ``0.0`` in the order (lo, lo), (lo, hi),
    (hi, lo), (hi, hi) and rounded once to float32.  One coordinate grid per
    block of ``WARP_BLOCK_ROWS`` output rows serves all channels.  A non-finite
    coordinate raises ``ValueError`` before anything is sampled.
    """
    inverse = np.linalg.inv(forward)
    n_ch, w, h = channels.shape
    # per output row x and column y; their sum is coordinate k at (x, y)
    terms = [
        (inverse[k, 2] + np.arange(w) * inverse[k, 0], np.arange(h) * inverse[k, 1])
        for k in (0, 1)
    ]
    # float addition is monotone, so the extreme sums bound every coordinate
    for across, down in terms:
        if not np.isfinite([across.min() + down.min(), across.max() + down.max()]).all():
            raise ValueError(f"warp {forward.tolist()} gives non-finite source coordinates")
    src = channels.reshape(n_ch, w * h)
    out = np.empty(channels.shape, dtype=np.float32)
    acc = np.empty((n_ch, min(WARP_BLOCK_ROWS, w) * h))
    tap = np.empty_like(acc)
    tap32 = np.empty(acc.shape, dtype=np.float32)
    (across_x, down_x), (across_y, down_y) = terms
    for x0 in range(0, w, WARP_BLOCK_ROWS):
        rows = slice(x0, x0 + WARP_BLOCK_ROWS)
        lo_x, hi_x, wx0, wx1 = _axis_taps((across_x[rows, None] + down_x).ravel(), w)
        lo_y, hi_y, wy0, wy1 = _axis_taps((across_y[rows, None] + down_y).ravel(), h)
        block, gathered, g32 = acc[:, : lo_x.size], tap[:, : lo_x.size], tap32[:, : lo_x.size]
        block.fill(0.0)
        for ix, wx in ((lo_x * h, wx0), (hi_x * h, wx1)):
            for iy, wy in ((lo_y, wy0), (hi_y, wy1)):
                idx = ix + iy
                for c in range(n_ch):
                    # indices are in range; "clip" skips the buffered check of "raise"
                    np.take(src[c], idx, out=g32[c], mode="clip")
                # float32 widens exactly, so this is float64(a)·wx
                np.multiply(g32, wx, out=gathered)
                gathered *= wy
                block += gathered
        out[:, rows] = block.reshape(n_ch, -1, h)
    return out


# Output rows per block of the blur: a block's gathered rows, float64 sums and
# edge-padded first pass stay small for all four channels.  Per-pixel
# arithmetic does not depend on it, so neither do the bytes.
BLUR_BLOCK_ROWS = 32


def _correlate_rows(
    src: np.ndarray, weights: np.ndarray, acc: np.ndarray, pair: np.ndarray
) -> None:
    """acc[:, i] = Σ src[:, i + k]·weights[k] along axis 1, summed in float64 as
    scipy's symmetric ``correlate1d``: ``src[:, i + r]·w[r]``, then ``+= (src[:, i
    + r − j] + src[:, i + r + j])·w[r − j]`` for j = r..1."""
    r, n = len(weights) // 2, acc.shape[1]
    np.multiply(src[:, r : r + n], weights[r], out=acc)
    for j in range(r, 0, -1):
        np.add(src[:, r - j : r - j + n], src[:, r + j : r + j + n], out=pair)
        pair *= weights[r - j]
        acc += pair


def _blur(channels: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian blur of every channel, edge-clamped.

    The bytes are those of ``ndimage.gaussian_filter(mode="nearest")`` per
    channel: the kernel is ``exp(−0.5/σ² · x²)`` over ``x = −r..r``, ``r =
    int(4σ + 0.5)``, divided by its sum; axis W is blurred and rounded to
    float32, then axis H, each as :func:`_correlate_rows`.  All channels go
    through one block of ``BLUR_BLOCK_ROWS`` output rows at a time.
    """
    r = int(4.0 * sigma + 0.5)
    weights = np.exp(-0.5 / (sigma * sigma) * np.arange(-r, r + 1) ** 2)
    weights = weights / weights.sum()
    n_ch, w, h = channels.shape
    rows = min(BLUR_BLOCK_ROWS, w)
    out = np.empty(channels.shape, dtype=np.float32)
    gathered = np.empty((n_ch, rows + 2 * r, h))
    padded = np.empty((n_ch, rows, h + 2 * r))
    acc, pair = np.empty((n_ch, rows, h)), np.empty((n_ch, rows, h))
    acc32 = np.empty(acc.shape, dtype=np.float32)
    for x0 in range(0, w, BLUR_BLOCK_ROWS):
        n = min(BLUR_BLOCK_ROWS, w - x0)
        # input rows x0 − r .. x0 + n + r, edge-clamped; g[:, k] is row x0 − r + k
        lo, hi = max(x0 - r, 0), min(x0 + n + r, w)
        g = gathered[:, : n + 2 * r]
        g[:, : lo - x0 + r] = channels[:, :1]
        g[:, lo - x0 + r : hi - x0 + r] = channels[:, lo:hi]
        g[:, hi - x0 + r :] = channels[:, w - 1 :]
        s, t, s32, p = acc[:, :n], pair[:, :n], acc32[:, :n], padded[:, :n]
        _correlate_rows(g, weights, s, t)
        s32[...] = s
        p[..., :r] = s32[..., :1]
        p[..., r : r + h] = s32
        p[..., r + h :] = s32[..., h - 1 :]
        _correlate_rows(p.swapaxes(1, 2), weights, s.swapaxes(1, 2), t.swapaxes(1, 2))
        out[:, x0 : x0 + n] = s
    return out


# extreme magnitudes end as non-finite values, which _apply_warp and MipStack refuse
@np.errstate(over="ignore", invalid="ignore")
def augment(stack: MipStack, seed: int, policy: AugmentPolicy) -> MipStack:
    """Apply the sampled transforms; pure in (stack, seed, policy).

    The applied-transform names land in ``meta["augment_applied"]`` in
    application order.  A seed outside ``[0, 2**64)``, or a bool, raises
    ``ValueError``.
    """
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
        channels = _apply_warp(
            np.ascontiguousarray(channels), _warp_matrix((w, h), angle, scale, shear, translate)
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
            # in place, a channel at a time: the draws of one (4, W, H) draw, in order
            for channel in channels:
                channel += noise_rng.normal(0.0, sigma, channel.shape).astype(np.float32)
            applied.append("noise")

    blur_rng = _stream(seed, "blur")
    if blur_rng.random() < policy.blur_p:
        sigma = float(blur_rng.uniform(0.0, policy.blur_sigma))
        if sigma > _BLUR_MIN_SIGMA:
            channels = _blur(channels, sigma)
            applied.append("blur")

    drop_rng = _stream(seed, "dropout")
    if (
        policy.dropout_max_holes > 0
        and policy.dropout_max_size > 0
        and drop_rng.random() < policy.dropout_p
    ):
        fills = _fill_values(stack).astype(np.float32)[:, None, None]
        n_holes = int(drop_rng.integers(1, policy.dropout_max_holes + 1))
        for _ in range(n_holes):
            hw = int(drop_rng.integers(1, policy.dropout_max_size + 1))
            hh = int(drop_rng.integers(1, policy.dropout_max_size + 1))
            x0 = int(drop_rng.integers(0, max(1, w - hw + 1)))
            y0 = int(drop_rng.integers(0, max(1, h - hh + 1)))
            channels[:, x0 : x0 + hw, y0 : y0 + hh] = fills
        applied.append("dropout")

    if not stack.normalized:
        # the unnormalized domain is nonnegative by construction; additive
        # transforms must not take it below its floor
        np.maximum(channels, np.float32(0.0), out=channels)

    return replace(
        stack,
        channels=np.ascontiguousarray(channels, dtype=np.float32),
        meta={**stack.meta, "augment_applied": applied, "augment_seed": int(seed)},
    )
