#!/usr/bin/env python3
"""Volume I/O walkthrough: NIfTI round trips and tensor blobs."""

import tempfile
from pathlib import Path

import numpy as np

from mipclass import TensorBlob, Volume, read_blob, read_nifti, write_blob, write_nifti

# The work directory is removed at the end (or at exit, should a step fail).
tmp = tempfile.TemporaryDirectory(prefix="mipclass_demo_")
work = Path(tmp.name)

# A small volume with anisotropic spacing and an offset origin.
data = np.arange(4 * 3 * 2, dtype=np.float32).reshape(4, 3, 2)
affine = np.eye(4)
affine[0, 0], affine[1, 1], affine[2, 2] = 0.7, 0.7, 3.0
affine[:3, 3] = (-10.0, -20.0, 5.0)
vol = Volume(data, spacing=(0.7, 0.7, 3.0), affine=affine)
print("volume:", vol.data.shape, "spacing", vol.spacing, "orientation", vol.orientation)

# Round trip through a .nii file: payload bytes survive exactly.
nii = work / "demo.nii"
write_nifti(vol, nii)
back = read_nifti(nii)
print("nifti round trip bit-exact:", back.data.tobytes() == vol.data.tobytes())
print("affine preserved:", np.allclose(back.affine, vol.affine))

# .nii.gz works the same way and is byte-stable across rewrites and paths:
# the gzip header holds mtime 0 and no file name.
gz = work / "demo.nii.gz"
write_nifti(vol, gz)
first = gz.read_bytes()
write_nifti(vol, gz)
print("gzip rewrite identical:", gz.read_bytes() == first)
other = work / "copy.nii.gz"
write_nifti(vol, other)
print("gzip identical at another path:", other.read_bytes() == first)

# Tensor blobs carry an arbitrary-rank float32 array and its JSON metadata in one file.
blob = TensorBlob(
    data=np.linspace(0, 1, 24, dtype=np.float32).reshape(2, 3, 4),
    meta={"note": "anything JSON-serializable rides along"},
)
path = work / "demo.mct"
write_blob(blob, path)
loaded = read_blob(path)
print("blob round trip:", np.array_equal(loaded.data, blob.data))
print("embedded meta:", loaded.meta["note"])
print("files written:", sorted(p.name for p in work.iterdir()))
tmp.cleanup()
