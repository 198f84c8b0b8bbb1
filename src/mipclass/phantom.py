"""Synthetic multi-phase breast studies for end-to-end pipeline testing.

Each phantom is two ellipsoidal tissue blobs (one per side) on a dark
background, plus an optional lesion per side whose enhancement over the
post-contrast phases follows its label: malignant lesions peak in the
first post phase and wash out, benign lesions enhance progressively.
The geometry, labels, and every random draw are fixed by (cohort seed,
patient id), so regenerating a cohort is byte-identical.
"""

from __future__ import annotations

import os
from pathlib import Path

import numpy as np

from .augment2d import derive_seed
from .evalkit import BENIGN, MALIGNANT, NO_LESION, ManifestRow, write_manifest
from .mipbuild import SIDES, Study
from .tensorio import _make_dir, write_nifti
from .volume import Volume

NATIVE_SHAPE = (64, 64, 16)
NATIVE_SPACING = (1.4, 1.4, 6.0)
NATIVE_ORIGIN = (-44.1, -44.1, -45.0)

N_POSTS = 3
TISSUE_AMP = 100.0
LESION_AMP = 600.0
NOISE_SIGMA = 0.5
MASK_THRESHOLD = 10.0

# Fractions of full lesion amplitude per post phase.  Malignant = rapid
# initial enhancement with delayed washout; benign = slow and monotone.
KINETICS = {
    NO_LESION: (0.0, 0.0, 0.0),
    BENIGN: (0.35, 0.70, 1.00),
    MALIGNANT: (1.00, 0.72, 0.45),
}
# Background tissue enhances mildly and monotonically in every study.
TISSUE_RAMP = (1.10, 1.25, 1.40)

_TISSUE_SEMI = (12.0, 18.0, 6.5)
_LESION_SEMI = (3.5, 3.5, 1.8)
_CENTER_Y = 32.0
_CENTER_Z = 8.0

# (label_right, label_left) dealt round the cohort; six combinations give
# every per-side class and every per-patient maximum a steady share.
_LABEL_CYCLE = (
    (NO_LESION, NO_LESION),
    (BENIGN, NO_LESION),
    (NO_LESION, MALIGNANT),
    (BENIGN, BENIGN),
    (MALIGNANT, NO_LESION),
    (MALIGNANT, BENIGN),
)


def cycle_labels(index: int) -> tuple[int, int]:
    """(label_right, label_left) for the index-th patient of a cohort."""
    return _LABEL_CYCLE[index % len(_LABEL_CYCLE)]


def _ellipsoid(center: tuple[float, float, float], semi: tuple[float, float, float]):
    """max(0, 1 - r^2) profile on the native grid, float64."""
    gx, gy, gz = np.ogrid[0 : NATIVE_SHAPE[0], 0 : NATIVE_SHAPE[1], 0 : NATIVE_SHAPE[2]]
    r2 = (
        ((gx - center[0]) / semi[0]) ** 2
        + ((gy - center[1]) / semi[1]) ** 2
        + ((gz - center[2]) / semi[2]) ** 2
    )
    return np.maximum(0.0, 1.0 - r2)


def _ras_affine() -> np.ndarray:
    affine = np.eye(4)
    affine[0, 0], affine[1, 1], affine[2, 2] = NATIVE_SPACING
    affine[:3, 3] = NATIVE_ORIGIN
    return affine


def _to_lps(data: np.ndarray, affine: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Store the same physical volume with flipped x/y index axes."""
    flipped = np.ascontiguousarray(data[::-1, ::-1, :])
    out = affine.copy()
    for axis in (0, 1):
        out[:3, 3] += out[:3, axis] * (data.shape[axis] - 1)
        out[:3, axis] = -out[:3, axis]
    return flipped, out


def generate_study(patient_id: str, index: int, cohort_seed: int) -> Study:
    """One synthetic study; every third patient is stored in LPS order."""
    rng = np.random.Generator(
        np.random.Philox(key=derive_seed(cohort_seed, patient_id, "phantom", 0))
    )
    labels = dict(zip(SIDES, cycle_labels(index)))

    pedestal = np.zeros(NATIVE_SHAPE)
    lesions = {}
    for i, side in enumerate(SIDES):
        # each side's blob is centred in its share of x: SIDES holds the low-x side first
        cx = (i + 0.5) * NATIVE_SHAPE[0] / len(SIDES)
        tissue_scale = rng.uniform(0.9, 1.1)
        jitter = rng.uniform(-1.0, 1.0, size=2)
        pedestal += (
            TISSUE_AMP
            * tissue_scale
            * _ellipsoid((cx + jitter[0], _CENTER_Y + jitter[1], _CENTER_Z), _TISSUE_SEMI)
        )
        # Draw lesion placement unconditionally so the stream layout does
        # not depend on the labels; unlabeled sides just discard it.
        dx = rng.uniform(-4.0, 4.0)
        dy = rng.uniform(-6.0, 6.0)
        dz = rng.uniform(-2.0, 2.0)
        lesion_scale = rng.uniform(0.9, 1.1)
        profile = _ellipsoid((cx + dx, _CENTER_Y + dy, _CENTER_Z + dz), _LESION_SEMI)
        lesions[side] = LESION_AMP * lesion_scale * profile**2

    mask_data = (pedestal > MASK_THRESHOLD).astype(np.float64)

    phases = [pedestal + rng.normal(0.0, NOISE_SIGMA, NATIVE_SHAPE)]
    for p in range(N_POSTS):
        signal = pedestal * TISSUE_RAMP[p]
        for side in SIDES:
            signal = signal + lesions[side] * KINETICS[labels[side]][p]
        phases.append(signal + rng.normal(0.0, NOISE_SIGMA, NATIVE_SHAPE))

    affine = _ras_affine()
    arrays = [np.maximum(ph, 0.0) for ph in phases] + [mask_data]
    if index % 3 == 2:
        converted = [_to_lps(a, affine) for a in arrays]
        arrays = [c[0] for c in converted]
        affine = converted[0][1]

    volumes = [Volume(a, NATIVE_SPACING, affine) for a in arrays]
    return Study(
        patient_id=patient_id,
        pre=volumes[0],
        posts=tuple(volumes[1 : 1 + N_POSTS]),
        mask=volumes[-1],
        label_left=labels["left"],
        label_right=labels["right"],
    )


def write_cohort(n: int, seed: int, out_dir: str | os.PathLike) -> Path:
    """Generate n studies plus a manifest CSV; returns the manifest path."""
    if n < 1:
        raise ValueError(f"cohort size must be >= 1, got {n}")
    out = Path(out_dir)
    _make_dir(out / "studies")

    rows = []
    for index in range(n):
        patient_id = f"p{index:03d}"
        study = generate_study(patient_id, index, seed)
        stem = f"studies/{patient_id}"  # relative to the manifest directory
        pre, mask = f"{stem}_pre.nii.gz", f"{stem}_mask.nii.gz"
        posts = tuple(f"{stem}_post{p + 1}.nii.gz" for p in range(N_POSTS))
        for volume, name in zip((study.pre, *study.posts, study.mask), (pre, *posts, mask)):
            write_nifti(volume, out / name)
        rows.append(ManifestRow(patient_id, pre, posts, mask, study.label_left, study.label_right))

    manifest = out / "manifest.csv"
    write_manifest(rows, manifest)
    return manifest
