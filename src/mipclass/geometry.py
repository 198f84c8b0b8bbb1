"""Geometric standardization: reorientation, resampling, crop/pad, row
localization and the left/right width split.

All functions are pure: they take a :class:`Volume` and return a new one
(or the input itself when the operation is an exact identity), so per-study
work can run data-parallel without locks.

Axis conventions after canonical (RAS) reorientation:

* array axis 0 = x = width (left/right),
* array axis 1 = y = height (the row-localization axis),
* array axis 2 = z = the MIP projection axis.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import WidthTooSmall
from .volume import Volume, dominant_axes

HEIGHT_AXIS = 1


class Interp(enum.Enum):
    """Interpolation kernel for :func:`resample`.

    Masks must always use ``NEAREST`` so their values stay binary.
    """

    TRILINEAR = "trilinear"
    NEAREST = "nearest"


@dataclass(frozen=True)
class RowWindow:
    """Contiguous index window along the height axis."""

    start: int
    length: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"window start must be >= 0, got {self.start}")
        if self.length < 1:
            raise ValueError(f"window length must be >= 1, got {self.length}")

    @property
    def stop(self) -> int:
        return self.start + self.length


def reorient_canonical(volume: Volume) -> Volume:
    """Permute/flip axes so the volume is RAS; world positions are kept.

    The permutation comes from the affine's dominant direction cosines.  An
    already-RAS volume is returned unchanged.
    """
    axes = dominant_axes(volume.affine)
    if axes == [(0, 1), (1, 1), (2, 1)]:
        return volume

    # source voxel axis and flip flag for each canonical output axis
    source_axis = [0, 0, 0]
    flip = [False, False, False]
    for voxel_axis, (world_axis, sign) in enumerate(axes):
        source_axis[world_axis] = voxel_axis
        flip[world_axis] = sign < 0

    data = volume.data.transpose(source_axis)
    flip_dims = [w for w in range(3) if flip[w]]
    if flip_dims:
        data = np.flip(data, axis=flip_dims)

    old = volume.affine
    affine = np.eye(4, dtype=np.float64)
    affine[:3, 3] = old[:3, 3]
    for w in range(3):
        c = source_axis[w]
        col = old[:3, c]
        if flip[w]:
            affine[:3, w] = -col
            affine[:3, 3] += col * (volume.shape[c] - 1)
        else:
            affine[:3, w] = col
    spacing = tuple(volume.spacing[source_axis[w]] for w in range(3))
    return Volume(np.ascontiguousarray(data), spacing, affine)


# Largest output grid `resample` makes, in voxels: the published 512x512x32 grid
# is 2**23, and any breast MRI at 0.7 mm fits with wide headroom.
MAX_RESAMPLE_VOXELS = 2**30


def _taps(n_in: int, n_out: int, box: slice, ratio: float):
    """For samples at ``pos = j*ratio``, j in `box`: the source slice they reach, and low/high
    indices into it with their weights (None on an identity axis)."""
    if n_out == n_in and ratio == 1.0:
        return box, None
    pos = np.arange(box.start, box.stop, dtype=np.float64) * ratio
    lo = np.clip(np.floor(pos).astype(np.int64), 0, n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    # clamp-to-edge: once both taps hit the same voxel, the blend must be
    # an exact copy, not a*(1-f)+a*f (which can differ by an ulp)
    frac = np.where(hi == lo, 0.0, pos - lo)
    return slice(lo[0], hi[-1] + 1), (lo - lo[0], hi - lo[0], 1.0 - frac, frac)


def _lerp(low: np.ndarray, high: np.ndarray, w_low: np.ndarray, w_high: np.ndarray):
    """``low*w_low + high*w_high``, rounded per operation, computed in `low`."""
    low *= w_low
    high *= w_high
    low += high
    return low


def _extents(shape, source, target) -> tuple[int, int, int]:
    """Output shape of resampling `shape` at `source` mm onto `target` mm."""
    if any(not np.isfinite(t) or t <= 0 for t in target):
        raise ValueError(f"target spacing must be positive, got {target}")
    # kept in float until checked, so a huge or infinite extent cannot overflow
    extents = [
        max(1.0, float(np.floor(shape[i] * source[i] / target[i] + 0.5))) for i in range(3)
    ]
    if math.prod(extents) > MAX_RESAMPLE_VOXELS:
        named = ", ".join(f"{e:.0f}" for e in extents)
        raise ValueError(
            f"resampling {shape} at {source} mm onto {target} mm gives shape ({named}), "
            f"more than MAX_RESAMPLE_VOXELS = {MAX_RESAMPLE_VOXELS} voxels"
        )
    return tuple(int(e) for e in extents)


def resampled_shape(volume: Volume, target: tuple[float, float, float]) -> tuple[int, int, int]:
    """``resample(reorient_canonical(volume), target, interp).shape``, made without either."""
    world = [w for w, _ in dominant_axes(volume.affine)]
    axes = sorted(range(3), key=world.__getitem__)  # the voxel axis on each canonical axis
    shape, spacing = (tuple(v[a] for a in axes) for v in (volume.shape, volume.spacing))
    return _extents(shape, spacing, tuple(float(t) for t in target))


def resample(
    volume: Volume, target: tuple[float, float, float], interp: Interp, *, box=None
) -> Volume:
    """Resample onto `target` spacing (mm); index (0,0,0) keeps its world position.

    Output extents are ``max(1, round(n_i * s_i / t_i))`` per axis; an output
    of more than ``MAX_RESAMPLE_VOXELS`` is refused with ``ValueError``
    before anything is allocated.  Samples that fall outside the source grid
    take the edge value.  Trilinear interpolation runs separably in float64
    (axis 0, then 1, then 2) and is exact when the target equals the source
    spacing.  It works plane by plane: each source z-plane it reads is lerped
    along x and y once, and each output z-plane is the z-lerp of the two it
    reads, so it never holds a whole-volume float64 array.  Its output is
    z-slowest (``order="F"``), each z-plane one contiguous block.  `box`, three
    slices inside the output grid, makes only that box of it, with the bytes of
    slicing the whole.
    """
    target = tuple(float(t) for t in target)
    source = volume.spacing
    shape = volume.shape
    n_out = _extents(shape, source, target)
    ratios = tuple(target[i] / source[i] for i in range(3))
    box = box or [slice(0, n) for n in n_out]
    if any(not 0 <= b.start < b.stop <= n for b, n in zip(box, n_out)):
        raise ValueError(f"box {box} is empty or outside the output grid {n_out}")

    if interp is Interp.NEAREST:
        data = volume.data
        for i in (2, 1, 0):  # one separable take per axis: the voxels of np.ix_
            pos = np.arange(box[i].start, box[i].stop, dtype=np.float64) * ratios[i]
            data = data.take(np.clip(np.rint(pos).astype(np.int64), 0, shape[i] - 1), axis=i)
    else:
        reach, (tx, ty, tz) = zip(*map(_taps, shape, n_out, box, ratios))
        src = volume.data[reach]
        data = np.empty([b.stop - b.start for b in box], dtype=np.float32, order="F")
        out = data.T  # out[k] is output z-plane k, a C-ordered (y, x) array
        ny, nx = out.shape[1:]
        # x and y weights spread over a whole (y, x) plane, so every lerp runs on contiguous arrays
        wx = tx and [np.broadcast_to(w, (src.shape[1], nx)).copy() for w in tx[2:]]
        wy = ty and [np.broadcast_to(w[:, None], (ny, nx)).copy() for w in ty[2:]]

        def plane(z: int) -> np.ndarray:
            """Source z-plane `z` of the reach as (y, x) float64, lerped along x, then y."""
            p = np.array(src[:, :, z].T, dtype=np.float64, order="C")
            if tx is not None:
                p = _lerp(p.take(tx[0], axis=1), p.take(tx[1], axis=1), *wx)
            if ty is not None:
                p = _lerp(p.take(ty[0], axis=0), p.take(ty[1], axis=0), *wy)
            return p

        if tz is None:
            for k in range(len(out)):
                out[k] = plane(k)  # the same float64 -> float32 rounding as astype
        else:
            low, high, planes = np.empty((ny, nx)), np.empty((ny, nx)), {}
            for k, (z_lo, z_hi, w_lo, w_hi) in enumerate(zip(*tz)):
                # taps only move up, so a plane below z_lo is read by no later output plane:
                # drop it before making the next, to hold only the planes this one reads
                planes = {z: p for z, p in planes.items() if z >= z_lo}
                for z in {z_lo, z_hi} - planes.keys():
                    planes[z] = plane(z)
                np.multiply(planes[z_lo], w_lo, out=low)
                np.multiply(planes[z_hi], w_hi, out=high)
                out[k] = np.add(low, high, out=low)  # rounded per operation, as in _lerp
    return Volume(data, target, resampled_affine(volume, target, [b.start for b in box]))


def resampled_affine(volume: Volume, target, start) -> np.ndarray:
    """The affine of the box of :func:`resample`'s output that starts at voxel `start`."""
    affine = np.array(volume.affine, dtype=np.float64)
    affine[:3, :3] *= np.divide(target, volume.spacing)  # column i times target[i] / spacing[i]
    affine[:3, 3] += affine[:3, :3] @ np.asarray(start, dtype=np.float64)
    return affine


def _box(volume: Volume, origin: tuple[int, int, int], shape: tuple[int, int, int]) -> Volume:
    """Copy of the index box ``[origin, origin + shape)``, 0 outside `volume`;
    retained voxels keep their world positions.  The copy is z-slowest, so
    each z-plane (``data[:, :, z]``) is one contiguous block."""
    data = np.zeros(shape, dtype=np.float32, order="F")
    src, dst = [], []
    for o, t, n in zip(origin, shape, volume.shape):
        lo = max(o, 0)
        hi = max(lo, min(o + t, n))
        src.append(slice(lo, hi))
        dst.append(slice(lo - o, hi - o))
    data[tuple(dst)] = volume.data[tuple(src)]
    affine = np.array(volume.affine, dtype=np.float64)
    affine[:3, 3] += affine[:3, :3] @ np.asarray(origin, dtype=np.float64)
    return Volume(data, volume.spacing, affine)


def _centred(shape: tuple[int, int, int], target_shape) -> tuple[tuple[int, ...], list[int]]:
    """`target_shape` checked, and the origin of that box centred on `shape`."""
    target_shape = tuple(int(t) for t in target_shape)
    if any(t < 1 for t in target_shape):
        raise ValueError(f"target shape must be >= 1 per axis, got {target_shape}")
    origin = [(n - t) // 2 if n >= t else -((t - n) // 2) for n, t in zip(shape, target_shape)]
    return target_shape, origin


def crop_or_pad(volume: Volume, target_shape: tuple[int, int, int]) -> Volume:
    """Center-crop or zero-pad each axis to `target_shape`.

    Odd size differences put the extra padded voxel on the high-index side
    and remove the extra cropped voxel from the high-index side; retained
    voxels keep their world positions.
    """
    target_shape, origin = _centred(volume.shape, target_shape)
    return volume if target_shape == volume.shape else _box(volume, origin, target_shape)


# Window sums within this relative distance of the maximum tie; float64 rounding
# is far smaller, so memory layout and summation order cannot move the window.
ROW_TIE_RTOL = 1e-9


def localize_rows(volume: Volume, window: int = 256) -> RowWindow:
    """Brightest contiguous `window` of rows along the height axis.

    Maximizes total intensity inside the window; sums within
    ``ROW_TIE_RTOL`` of the maximum tie, and ties go to the lowest start
    index.  If the axis has at most `window` rows the full axis is
    returned.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    extent = volume.shape[HEIGHT_AXIS]
    if extent <= window:
        return RowWindow(0, extent)
    row_sums = volume.data.sum(axis=(0, 2), dtype=np.float64)
    if not np.isfinite(row_sums).all():
        # non-finite voxels count as dark: zeroed outside the mask, refused inside
        data = np.where(np.isfinite(volume.data), volume.data, np.float32(0.0))
        row_sums = data.sum(axis=(0, 2), dtype=np.float64)
    prefix = np.concatenate([[0.0], np.cumsum(row_sums)])
    window_sums = prefix[window:] - prefix[:-window]
    best = window_sums.max()
    return RowWindow(int(np.argmax(window_sums >= best - ROW_TIE_RTOL * abs(best))), window)


def _halves(shape, target_shape, rows: RowWindow, within=None):
    """(origin, shape) of each half :func:`cut_halves` cuts from a volume of
    `shape`; with `within`, from :func:`data_boxes`, only each half's data box."""
    (nx, ny, nz), (x, y, z) = _centred(shape, target_shape)
    if rows.stop > ny:
        raise ValueError(f"window [{rows.start}, {rows.stop}) exceeds axis extent {ny}")
    if nx < 2:
        raise WidthTooSmall(f"cannot split width {nx} < 2")
    half, y, ny = nx // 2, y + rows.start, rows.length
    halves = [((x, y, z), (half, ny, nz)), ((x + half, y, z), (nx - half, ny, nz))]
    if within is None:
        return halves
    return [
        ([o + s.start for o, s in zip(origin, box)], [s.stop - s.start for s in box])
        for (origin, _), (_, box) in zip(halves, within)
    ]


def data_boxes(shapes, target_shape, rows: RowWindow) -> list[tuple[tuple, tuple]]:
    """Per half of :func:`cut_halves`, its shape and data box: slices bounding, in x
    and y, where volumes of any of `shapes` overlap it (else its first column), z
    whole.  Outside the box those volumes' halves are zero fill."""
    boxes = []
    for halves in zip(*(_halves(shape, target_shape, rows) for shape in shapes)):
        size = halves[0][1]
        box = []
        for a, t in enumerate(size[:2]):
            spans = [(max(-o[a], 0), min(n[a] - o[a], t)) for (o, _), n in zip(halves, shapes)]
            lo, hi = zip(*([s for s in spans if s[0] < s[1]] or [(0, 1)]))
            box.append(slice(min(lo), max(hi)))
        boxes.append((size, (*box, slice(0, size[2]))))
    return boxes


def cut_plan(volume: Volume, target, target_shape, rows: RowWindow, within):
    """For a canonical `volume` resampled onto `target`, without resampling it:
    that grid's shape, its least box (a voxel at least per axis) holding what
    ``cut_halves(..., within)`` copies from it, and the affines of those cuts."""
    shape = _extents(volume.shape, volume.spacing, tuple(float(t) for t in target))
    origins, sizes = zip(*_halves(shape, target_shape, rows, within))
    lo = np.clip(np.min(origins, axis=0), 0, np.subtract(shape, 1))
    hi = np.maximum(np.minimum(np.max(np.add(origins, sizes), axis=0), shape), lo + 1)
    box = tuple(slice(int(a), int(b)) for a, b in zip(lo, hi))
    return shape, box, [resampled_affine(volume, target, o) for o in origins]


def cut_halves(
    volume: Volume, target_shape, rows: RowWindow, within=None, grid=None
) -> tuple[Volume, Volume]:
    """The two width halves of the `rows` window of the `target_shape` box
    centred on `volume` (as :func:`crop_or_pad` centres it), copied straight
    from `volume` without making that box in between.

    The halves are ``[0, nx//2)`` and ``[nx//2, nx)`` along array axis 0 of
    the box, so for odd widths the second gets the extra column, and in RAS
    the first (low-x) half is the patient's right side.  Retained voxels keep
    their world positions; the rest are 0.  A window past the box's height is
    a ``ValueError``, a box narrower than 2 is ``WidthTooSmall``.  `within`,
    from :func:`data_boxes`, cuts only each half's data box.  `grid`, a shape
    and a box of it, has `volume` be that box of a grid of that shape."""
    shape, box = grid or (volume.shape, [slice(0, None)] * 3)
    halves = _halves(shape, target_shape, rows, within)
    return tuple(_box(volume, [a - b.start for a, b in zip(at, box)], t) for at, t in halves)
