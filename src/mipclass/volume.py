"""Core volume type shared by the I/O and geometry layers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonInvertibleAffine

# world x, y, z: (negative letter, positive letter)
_AXIS_LETTERS = (("L", "R"), ("P", "A"), ("I", "S"))

_DET_EPS = 1e-12


def dominant_axes(affine: np.ndarray) -> list[tuple[int, int]]:
    """Map each voxel axis to its dominant world axis.

    Returns one ``(world_axis, sign)`` pair per voxel axis, assigned
    greedily from the largest remaining direction cosine so the result is
    always a permutation of the three world axes.
    """
    rot = np.asarray(affine, dtype=np.float64)[:3, :3]
    if not np.all(np.isfinite(rot)):
        raise NonInvertibleAffine("affine contains non-finite entries")
    norms = np.linalg.norm(rot, axis=0)
    if np.any(norms == 0.0):
        raise NonInvertibleAffine("affine has a zero direction column")
    cosines = np.abs(rot / norms)

    by_voxel_axis: dict[int, tuple[int, int]] = {}
    rows = [0, 1, 2]
    cols = [0, 1, 2]
    for _ in range(3):
        r, c = max(((r, c) for r in rows for c in cols), key=lambda rc: cosines[rc])
        by_voxel_axis[c] = (r, 1 if rot[r, c] >= 0.0 else -1)
        rows.remove(r)
        cols.remove(c)
    return [by_voxel_axis[c] for c in range(3)]


def orientation_code(affine: np.ndarray) -> str:
    """Three-letter axis code (e.g. ``"RAS"``, ``"LPS"``) for an affine."""
    letters = []
    for world, sign in dominant_axes(affine):
        letters.append(_AXIS_LETTERS[world][1 if sign > 0 else 0])
    return "".join(letters)


@dataclass(frozen=True)
class Volume:
    """3D scalar grid with spacing and a voxel-index -> world-mm affine.

    ``data`` is float32 with shape ``(nx, ny, nz)`` indexed ``data[x, y, z]``;
    its memory layout is not part of the contract (trilinear-resampled
    volumes and cut boxes are z-slowest).
    Instances are value objects: nothing in this package mutates a volume
    after construction, so they are safe to share across threads.
    """

    data: np.ndarray
    spacing: tuple[float, float, float]
    affine: np.ndarray

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float32)
        if data.ndim != 3:
            raise ValueError(f"volume data must be 3D, got ndim={data.ndim}")
        if min(data.shape) < 1:
            raise ValueError(f"all volume dims must be >= 1, got {data.shape}")
        spacing = tuple(float(s) for s in self.spacing)
        if len(spacing) != 3 or any(not np.isfinite(s) or s <= 0 for s in spacing):
            raise ValueError(f"spacing must be three positive numbers, got {spacing}")
        affine = np.asarray(self.affine, dtype=np.float64)
        if affine.shape != (4, 4):
            raise ValueError(f"affine must be 4x4, got {affine.shape}")
        if not np.all(np.isfinite(affine)):
            raise NonInvertibleAffine("affine contains non-finite entries")
        if abs(np.linalg.det(affine[:3, :3])) <= _DET_EPS:
            raise NonInvertibleAffine("affine is singular")
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "spacing", spacing)
        object.__setattr__(self, "affine", affine)

    @property
    def orientation(self) -> str:
        """Axis code of the affine, e.g. ``"RAS"``."""
        return orientation_code(self.affine)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape  # type: ignore[return-value]

    @classmethod
    def from_array(
        cls,
        data: np.ndarray,
        spacing: tuple[float, float, float] = (1.0, 1.0, 1.0),
        affine: np.ndarray | None = None,
    ) -> "Volume":
        """Build a volume; affine defaults to axis-aligned RAS at ``spacing``, zero origin."""
        if affine is None:
            affine = np.diag((*spacing, 1.0))
        return cls(data=data, spacing=spacing, affine=affine)
