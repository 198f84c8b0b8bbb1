"""Four-channel MIP construction per breast side.

The channel stack for one (patient, side) is, in fixed order:

0. first post-contrast MIP,
1. subtraction 1 (post1 − pre, clamped at 0),
2. subtraction 2 (post2 − pre, clamped at 0),
3. last subtraction (final post − pre, clamped at 0),

each projected along z after geometric standardization, row localization
on post1, the 50% width split, and (when present) breast-mask application.
Negative subtraction values are clamped: uptake is the signal, and the
downstream normalization maps each channel to [0, 1].
"""

from __future__ import annotations

import math
import numbers
import re
import reprlib
import sys
from dataclasses import dataclass, field, fields, replace
from typing import Any, Mapping, get_args, get_origin, get_type_hints

import numpy as np

from .errors import (
    AlreadyNormalized,
    GridMismatch,
    MissingPre,
    NonBinaryMask,
    TooFewPhases,
)
from .geometry import (
    HEIGHT_AXIS,
    MAX_RESAMPLE_VOXELS,
    Interp,
    crop_or_pad,
    cut_halves,
    cut_plan,
    data_boxes,
    localize_rows,
    reorient_canonical,
    resample,
    resampled_shape,
)
from .tensorio import TensorBlob
from .volume import Volume

CHANNEL_NAMES = ("post1", "sub1", "sub2", "sub_last")

# Channel-wise normalization constants for the 4-channel stacks.
PAPER_MEANS = (0.2074, 0.1290, 0.1396, 0.1470)
PAPER_STDS = (0.2110, 0.1629, 0.1620, 0.1626)

SIDES = ("right", "left")  # low-x half first; see split convention below

# The low-x half of a canonical (RAS) volume is labeled "right".  This is
# a fixed convention of this pipeline, recorded in every stack's metadata
# so downstream consumers can audit it against their own label source.
LATERALITY_CONVENTION = "low-x-is-right"

_MASK_TOL = 1e-6

# the least positive float: [POSITIVE, hi] is the half-open range (0, hi]
POSITIVE = math.ulp(0.0)
# the largest key np.random.Philox takes: [0, PHILOX_MAX] is [0, 2**128)
PHILOX_MAX = 2**128 - 1

# per field kind: the numbers it admits, their largest magnitude (a float field
# must be finite as a float), and its name in messages
_KINDS = {
    int: (numbers.Integral, math.inf, "an integer"),
    float: (numbers.Real, sys.float_info.max, "a finite number"),
}


class _FieldError(TypeError, ValueError):
    """A field of the wrong kind, length or range, or fields out of order with each
    other: a TypeError to callers that test kinds and a ValueError to those that
    test values.  The rule names the fields; ``owner`` is the type of the object
    checked."""

    def __init__(self, owner: type, rule: str, value: Any):
        super().__init__(f"{rule}, got {reprlib.repr(value)}")
        self.owner, self.rule, self.value = owner, rule, value

    def keyed(self, prefix: str) -> str:
        """The message with `prefix` before each name of a dataclass owner's field
        in the rule, so it spells the fields as config keys do."""
        names = "|".join(f.name for f in fields(self.owner))
        rule = re.sub(rf"\b({names})\b", lambda m: prefix + m[1], self.rule)
        return f"{rule}, got {reprlib.repr(self.value)}"


def check_fields(obj: Any, spec: Mapping[str, tuple[type, int, float, float]]) -> None:
    """Refuse each field of `obj` (an object, or a mapping read by key) that its
    spec ``(kind, length, lo, hi)`` rejects.

    Kind is int or float, and a bool is neither.  Length 0 is a scalar, else
    the exact length of a list or tuple, which an object (not a mapping) then
    holds as a tuple.  Every value lies in the closed range ``[lo, hi]``.
    """
    owner = type(obj)
    for name, (kind, length, lo, hi) in spec.items():
        value = obj[name] if isinstance(obj, Mapping) else getattr(obj, name)
        if length and not (isinstance(value, (list, tuple)) and len(value) == length):
            raise _FieldError(owner, f"{name} must be {length} numbers", value)
        admits, limit, noun = _KINDS[kind]
        for i, item in enumerate(value if length else (value,)):
            label = f"{name}[{i}]" if length else name
            if isinstance(item, bool) or not isinstance(item, admits) or not abs(item) <= limit:
                raise _FieldError(owner, f"{label} must be {noun}", item)
            if not lo <= item <= hi:
                low = "(0" if lo == POSITIVE else f"[{lo}"
                high = "2**128)" if hi == PHILOX_MAX else f"{hi}]"
                raise _FieldError(owner, f"{label} must be in {low}, {high}", item)
        if length and not isinstance(obj, Mapping):
            object.__setattr__(obj, name, tuple(value))


def json_numbers(value: Any, name: str) -> np.ndarray:
    """Nested lists of finite JSON numbers (never a bool) as float64, else a ValueError."""
    cells = np.array(value, dtype=object)
    for v in cells.reshape(-1):
        if type(v) not in (int, float) or not abs(v) <= sys.float_info.max:
            raise ValueError(f"{name} must hold finite numbers only, got {reprlib.repr(v)}")
    return cells.astype(np.float64)


def bounded(default: Any, lo: float, hi: float = math.inf) -> Any:
    """A dataclass field whose every number lies in ``[lo, hi]``; see `field_specs`."""
    return field(default=default, metadata={"range": (lo, hi)})


def field_specs(cls: type) -> dict[str, tuple[type, int, float, float]]:
    """The `check_fields` spec of a dataclass: every field annotated int, float or
    a tuple of one of them, its length 0 for a scalar, its range from `bounded`
    or else unbounded."""
    spec = {}
    hints = get_type_hints(cls)
    for f in fields(cls):
        hint = hints[f.name]
        items = get_args(hint) if get_origin(hint) is tuple else ()
        kind = items[0] if items and items.count(items[0]) == len(items) else hint
        if kind in _KINDS:
            spec[f.name] = (kind, len(items), *f.metadata.get("range", (-math.inf, math.inf)))
    return spec


@dataclass(frozen=True)
class NormConstants:
    """Per-channel means/stds applied after min-max rescaling."""

    means: tuple[float, float, float, float] = PAPER_MEANS
    stds: tuple[float, float, float, float] = bounded(PAPER_STDS, POSITIVE)

    def __post_init__(self) -> None:
        check_fields(self, field_specs(type(self)))


@dataclass(frozen=True)
class Study:
    """One patient's acquisition: pre, ordered posts, optional mask, labels."""

    patient_id: str
    pre: Volume | None
    posts: tuple[Volume, ...]
    mask: Volume | None = None
    label_left: int | None = None
    label_right: int | None = None


@dataclass(frozen=True)
class BuildConfig:
    """Geometry parameters for stack construction."""

    spacing: tuple[float, float, float] = bounded((0.7, 0.7, 3.0), POSITIVE)
    shape: tuple[int, int, int] = bounded((512, 512, 32), 1)
    row_window: int = bounded(256, 1)

    def __post_init__(self) -> None:
        check_fields(self, field_specs(type(self)))
        if math.prod(map(int, self.shape)) > MAX_RESAMPLE_VOXELS:
            raise ValueError(f"shape {self.shape} exceeds MAX_RESAMPLE_VOXELS = {MAX_RESAMPLE_VOXELS}")


@dataclass(frozen=True)
class MipStack:
    """4-channel 2D stack for one breast side; ``channels[c][x, y]``."""

    channels: np.ndarray
    side: str
    patient_id: str
    normalized: bool = False
    # per-channel (min, max) recorded by normalize_stack, for invertibility
    norm_bounds: tuple[tuple[float, float], ...] | None = None
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        channels = np.asarray(self.channels, dtype=np.float32)
        if channels.ndim != 3 or channels.shape[0] != 4:
            raise ValueError(f"stack must be (4, W, H), got {channels.shape}")
        if min(channels.shape[1:]) < 1:
            raise ValueError(f"stack spatial dims must be >= 1, got {channels.shape}")
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        if not np.isfinite(channels).all():
            raise ValueError(f"{self.patient_id}/{self.side}: stack channels must be finite")
        if not self.normalized and float(channels.min()) < 0.0:
            raise ValueError("unnormalized stacks must be nonnegative (post-clamp)")
        object.__setattr__(self, "channels", channels)


def select_phases(study: Study) -> tuple[Volume, Volume, Volume, Volume]:
    """Pick ``(pre, post1, post2, last)``: pre and the first, second and last
    post-contrast phases.

    With exactly two posts, ``post2`` and ``last`` alias the same volume so
    the channel count stays fixed.
    """
    if study.pre is None:
        raise MissingPre(f"{study.patient_id}: no pre-contrast volume")
    if len(study.posts) < 2:
        raise TooFewPhases(
            f"{study.patient_id}: need >= 2 post-contrast phases, got {len(study.posts)}"
        )
    return study.pre, study.posts[0], study.posts[1], study.posts[-1]


def _same_grid(a: Volume, b: Volume) -> bool:
    return (
        a.shape == b.shape
        and a.spacing == b.spacing
        and np.allclose(a.affine, b.affine, atol=1e-6)
    )


def _nearest_voxels(post_half: np.ndarray, mask_half: np.ndarray, box, size) -> list[np.ndarray]:
    """Per axis, the voxel of a mask's whole half that each voxel in `box` of
    post1's whole half reads: index -> world -> mask index between the halves'
    affines in float64, rounded and clamped to the half's `size` (the padded edge).
    Terms whose coefficient is exactly 0 are left out, so an axis-aligned map gives
    1-D arrays that broadcast as an open mesh over `box`."""
    to_mask = np.linalg.inv(mask_half) @ post_half
    mesh = np.ix_(*(np.arange(b.start, b.stop) for b in box))
    idx = []
    for row, n in zip(to_mask[:3], size):
        terms = [c * v for c, v in zip(row[:3], mesh) if c != 0]
        idx.append(np.clip(np.rint(sum(terms[1:], terms[0]) + row[3]).astype(np.int64), 0, n - 1))
    return idx


def _check_subtraction_grid(post: Volume, pre: Volume) -> None:
    if not _same_grid(post, pre):
        raise GridMismatch(
            f"subtraction needs matching grids: {post.shape}/{post.spacing} vs "
            f"{pre.shape}/{pre.spacing}"
        )


def subtract_clamped(post: Volume, pre: Volume) -> Volume:
    """max(post − pre, 0), elementwise, on identical grids."""
    _check_subtraction_grid(post, pre)
    data = np.maximum(post.data - pre.data, np.float32(0.0))
    return Volume(data, post.spacing, post.affine)


def mip_z(volume: Volume) -> np.ndarray:
    """Maximum intensity projection along z: out[x, y] = max_z v[x, y, z].

    Folded plane by plane as ``maximum(acc, plane)`` in z order, so a column
    whose maximum is a zero of both signs gives the same sign at any memory
    layout; numpy's ``max`` along a contiguous axis is a SIMD tree whose pick
    depends on the depth and the CPU.
    """
    data = volume.data
    out = data[:, :, 0].copy()
    for z in range(1, data.shape[2]):
        np.maximum(out, data[:, :, z], out=out)
    return out


def _side_channels(
    pre: np.ndarray,
    post1: np.ndarray,
    post2: np.ndarray,
    last: np.ndarray,
    keep: np.ndarray | None,
) -> np.ndarray:
    """The four channels of one side, ``(4, nx, ny)``, in one pass over its z-planes.

    Each plane of each phase is masked as ``where(keep, v, 0)`` (+0.0 outside);
    post1 and ``maximum(post − pre, 0)`` for post1, post2 and last are then
    max-accumulated as ``maximum(acc, plane)``.  np.maximum returns its second
    argument on a ±0 tie, so these argument orders give the bytes of stacking
    :func:`mip_z` of the masked post1 and of :func:`subtract_clamped` per post
    on z-slowest halves; a NaN inside the mask propagates as it does there.
    """
    nx, ny, nz = post1.shape
    zero = np.float32(0.0)
    # channel planes x-fastest, like the planes of a z-slowest half
    acc = np.empty((4, ny, nx), dtype=np.float32).transpose(0, 2, 1)
    for z in range(nz):
        pre_z, *posts_z = (v[:, :, z] for v in (pre, post1, post2, last))
        if keep is not None:
            keep_z = keep[:, :, z]
            pre_z, *posts_z = (np.where(keep_z, v, 0) for v in (pre_z, *posts_z))
        planes = [posts_z[0]]
        for post_z in posts_z:
            diff = np.subtract(post_z, pre_z)
            planes.append(np.maximum(diff, zero, out=diff))
        for channel, plane in zip(acc, planes):
            if z:
                np.maximum(channel, plane, out=channel)
            else:
                channel[...] = plane
    return np.ascontiguousarray(acc)


def build_stacks(study: Study, cfg: BuildConfig = BuildConfig()) -> dict[str, MipStack]:
    """Run the §-ordered pipeline once per study and stack the 4 MIPs per side.

    Reorient -> resample each distinct phase once; localize rows on post1
    cut to ``cfg.shape``, padded in height only; cut each phase onto each
    side's data box in that grid and window (:func:`data_boxes`), outside
    which every channel is +0.0.  Every phase but post1 is resampled on just
    the box holding both data boxes (:func:`cut_plan`).  Each voxel of a side's
    data box keeps the mask voxel nearest in world space (:func:`_nearest_voxels`),
    and the mask is resampled, with ``NEAREST``, on just the box those voxels reach.
    One pass over each side's z-slowest cuts masks, subtracts, clamps and
    projects plane by plane, with the bytes of stacking :func:`mip_z` of the
    masked post1 and of :func:`subtract_clamped` per post.  Keys follow ``SIDES``.
    """
    order = select_phases(study)
    first = order[1]
    post1 = resample(reorient_canonical(first), cfg.spacing, Interp.TRILINEAR)
    reach = [min(n, t) for n, t in zip(post1.shape, cfg.shape)]
    reach[HEIGHT_AXIS] = cfg.shape[HEIGHT_AXIS]  # zeros padded in x or z add to no row sum
    rows = localize_rows(crop_or_pad(post1, tuple(reach)), cfg.row_window)
    shapes = [post1.shape if v is first else resampled_shape(v, cfg.spacing) for v in order]
    boxes = data_boxes(shapes, cfg.shape, rows)
    cuts = {id(first): cut_halves(post1, cfg.shape, rows, boxes)}

    def boxed_halves(vol: Volume, interp: Interp = Interp.TRILINEAR, within=boxes):
        """The `within` cuts of a canonical `vol`, resampled on only the box holding them."""
        shape, box, _ = cut_plan(vol, cfg.spacing, cfg.shape, rows, within)
        part = resample(vol, cfg.spacing, interp, box=box)
        return cut_halves(part, cfg.shape, rows, within, grid=(shape, box))

    keeps: list[np.ndarray | None] = [None] * len(SIDES)
    if study.mask is not None:
        lo, hi = float(study.mask.data.min()), float(study.mask.data.max())
        if not (lo >= -_MASK_TOL and hi <= 1.0 + _MASK_TOL):  # NaN fails both
            raise NonBinaryMask(f"mask values span [{lo}, {hi}], outside [0, 1]")
        mask = reorient_canonical(study.mask)
        # subtraction needs all four phases on one grid, so post1's grid serves all;
        # the mask is resampled on just the reach of its lookup, the voxels it reads
        halves = [cut_plan(v, cfg.spacing, cfg.shape, rows, None)[2] for v in (post1, mask)]
        idx = [_nearest_voxels(p, m, box, size) for p, m, (size, box) in zip(*halves, boxes)]
        reach = [[slice(int(i.min()), int(i.max()) + 1) for i in ix] for ix in idx]
        for i, cut in enumerate(boxed_halves(mask, Interp.NEAREST, [(None, r) for r in reach])):
            keep = cut.data >= 0.5
            rel = [ix - r.start for ix, r in zip(idx[i], reach[i])]
            if not all(map(np.array_equal, rel, np.indices(keep.shape, sparse=True))):
                keep = keep.T[tuple(ix.T for ix in reversed(rel))].T  # z-slowest, as the cuts
            keeps[i] = keep
    del post1
    for vol in order:
        if id(vol) not in cuts:
            cuts[id(vol)] = boxed_halves(reorient_canonical(vol))

    meta = {
        "channel_order": list(CHANNEL_NAMES),
        "row_window_start": rows.start,
        "row_window_length": rows.length,
        "laterality_convention": LATERALITY_CONVENTION,
        "masked": study.mask is not None,
        "n_posts": len(study.posts),
    }
    stacks = {}
    for i, side in enumerate(SIDES):
        vols = [cuts[id(v)][i] for v in order]
        for post in vols[1:]:
            _check_subtraction_grid(post, vols[0])
        (width, height, _), box = boxes[i]
        channels = np.zeros((4, width, height), dtype=np.float32)
        channels[(slice(None), *box[:2])] = _side_channels(*(v.data for v in vols), keeps[i])
        stacks[side] = MipStack(channels, side, study.patient_id, meta=dict(meta))
    return stacks


def build_stack(study: Study, side: str, cfg: BuildConfig = BuildConfig()) -> MipStack:
    """One side of :func:`build_stacks`."""
    if side not in SIDES:
        raise ValueError(f"side must be one of {SIDES}, got {side!r}")
    return build_stacks(study, cfg)[side]


def normalize_stack(stack: MipStack, constants: NormConstants = NormConstants()) -> MipStack:
    """Min-max each channel to [0, 1], then standardize with fixed constants.

    A constant channel maps to all zeros before standardization.  The
    per-channel (min, max) are recorded on the result so the transform can
    be inverted.
    """
    if stack.normalized:
        raise AlreadyNormalized(f"{stack.patient_id}/{stack.side}: already normalized")
    data = stack.channels.astype(np.float64)
    bounds = []
    out = np.empty_like(data)
    for c in range(4):
        lo, hi = float(data[c].min()), float(data[c].max())
        bounds.append((lo, hi))
        unit = np.zeros_like(data[c]) if hi == lo else (data[c] - lo) / (hi - lo)
        out[c] = (unit - constants.means[c]) / constants.stds[c]
    return replace(
        stack,
        channels=out.astype(np.float32),
        normalized=True,
        norm_bounds=tuple(bounds),
        meta={**stack.meta, "norm_means": list(constants.means), "norm_stds": list(constants.stds)},
    )


def recorded_constants(stack: MipStack) -> NormConstants:
    """The normalization constants a stack records; the paper's where it records none."""
    get = stack.meta.get
    return NormConstants(get("norm_means", PAPER_MEANS), get("norm_stds", PAPER_STDS))


def denormalize_stack(stack: MipStack, constants: NormConstants | None = None) -> MipStack:
    """Invert normalize_stack with the stack's recorded bounds and constants."""
    if not stack.normalized:
        raise ValueError(f"{stack.patient_id}/{stack.side}: stack is not normalized")
    if stack.norm_bounds is None:
        raise ValueError("cannot invert: per-channel min/max were not recorded")
    recorded = recorded_constants(stack)
    if constants is not None and constants != recorded:
        raise ValueError(f"the stack was normalized with {recorded}, not {constants}")
    data = stack.channels.astype(np.float64)
    out = np.empty_like(data)
    for c in range(4):
        lo, hi = stack.norm_bounds[c]
        # measured from the stored float32 of unit 0, so a channel's minimum comes back exact
        zero = np.float32((0.0 - recorded.means[c]) / recorded.stds[c])
        unit = np.clip((data[c] - zero) * recorded.stds[c], 0.0, 1.0)
        out[c] = unit * (hi - lo) + lo
    meta = {k: v for k, v in stack.meta.items() if k not in ("norm_means", "norm_stds")}
    return replace(
        stack,
        channels=out.astype(np.float32),
        normalized=False,
        norm_bounds=None,
        meta=meta,
    )


def stack_to_blob(stack: MipStack) -> TensorBlob:
    """Package a stack as a tensor blob; its metadata is stored in the same file."""
    meta = {
        "patient_id": stack.patient_id,
        "side": stack.side,
        "normalized": stack.normalized,
        **stack.meta,
    }
    if stack.norm_bounds is not None:
        meta["norm_bounds"] = [list(b) for b in stack.norm_bounds]
    return TensorBlob(data=stack.channels, meta=meta)


# augment's dropout fills with a stack's stored constants, so they pass NormConstants' checks
_NORM_META = {f"norm_{name}": spec for name, spec in field_specs(NormConstants).items()}


def stack_from_blob(blob: TensorBlob) -> MipStack:
    """Rebuild a MipStack from a blob written by :func:`stack_to_blob`."""
    meta = dict(blob.meta)
    patient_id = meta.pop("patient_id", "")
    side = meta.pop("side", "")
    normalized = meta.pop("normalized", False)
    if not isinstance(normalized, bool):
        raise ValueError(f"normalized must be true or false, got {normalized!r}")
    bounds = meta.pop("norm_bounds", None)
    if bounds is not None:
        pairs = json_numbers(bounds, "norm_bounds")
        if pairs.shape != (4, 2) or (pairs[:, 0] > pairs[:, 1]).any():
            raise ValueError(f"norm_bounds must be 4 pairs lo <= hi, got {reprlib.repr(bounds)}")
        bounds = tuple(map(tuple, pairs.tolist()))
    check_fields(meta, {key: spec for key, spec in _NORM_META.items() if key in meta})
    return MipStack(
        channels=blob.data,
        side=side,
        patient_id=patient_id,
        normalized=normalized,
        norm_bounds=bounds,
        meta=meta,
    )

