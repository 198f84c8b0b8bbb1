#!/usr/bin/env python3
"""Geometric standardization walkthrough: reorient, resample, crop,
find the brightest row band, split into left/right halves."""

import numpy as np

from mipclass import (
    Interp,
    Volume,
    crop_or_pad,
    cut_halves,
    localize_rows,
    reorient_canonical,
    resample,
)

rng = np.random.default_rng(0)

# Start from a volume stored with flipped x/y axes (an LPS-style layout).
data = rng.random((20, 16, 8)).astype(np.float32)
affine = np.diag((-1.4, -1.4, 6.0, 1.0))
affine[:3, 3] = (26.6, 21.0, 0.0)
vol = Volume(data, spacing=(1.4, 1.4, 6.0), affine=affine)
print("stored orientation:", vol.orientation)

canonical = reorient_canonical(vol)
print("canonical orientation:", canonical.orientation)
# Same physical point, same value: index (0,0,0) of the original equals
# the flipped corner of the canonical array.
print("world content preserved:", canonical.data[-1, -1, 0] == vol.data[0, 0, 0])

# Resample to a finer in-plane grid; shape follows spacing ratio.
fine = resample(canonical, (0.7, 0.7, 3.0), Interp.TRILINEAR)
print("resampled:", canonical.data.shape, "->", fine.data.shape)

# Identity resampling is exact, not approximately equal.
same = resample(canonical, (1.4, 1.4, 6.0), Interp.TRILINEAR)
print("identity resample bitwise:", same.data.tobytes() == canonical.data.tobytes())

# Center crop/pad to a fixed shape.
fixed = crop_or_pad(fine, (32, 40, 20))
print("fixed shape:", fixed.data.shape)

# Put a bright band in some rows and ask for the best 8-row window.
banded = np.zeros((16, 30, 4), dtype=np.float32)
banded[:, 11:19, :] = 1.0
band_vol = Volume(banded, (1, 1, 1), np.eye(4))
window = localize_rows(band_vol, 8)
print(f"brightest window starts at row {window.start} (band starts at 11)")
# Cut that window and split it along x in one copy, without cropping or
# padding (the target is the volume's own shape): the low-x half is the
# anatomical right side.
right, left = cut_halves(band_vol, band_vol.shape, window)
print("trimmed + halves:", right.data.shape, left.data.shape)
