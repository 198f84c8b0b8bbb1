"""Binary I/O: a NIfTI-1 reader/writer for volumes and the MCT2 blob format.

The NIfTI-1 parser is deliberately strict: little-endian single- or
dual-file layouts only, 3D volumes only, and every header field that the
reader consumes is validated before any payload memory is touched.  Fuzzed
headers must produce typed errors, never crashes or allocations sized from
unchecked fields.  The same holds for MCT2 blobs, which hold one float32
tensor and its JSON metadata in a single file.
"""

from __future__ import annotations

import gzip
import json
import math
import os
import struct
import zlib
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .errors import (
    BadMagic,
    HeaderError,
    IoFailure,
    LengthMismatch,
    MipclassError,
    NonInvertibleAffine,
    SchemaMismatch,
    TruncatedPayload,
    UnsupportedDtype,
)
from .volume import Volume

HEADER_SIZE = 348
SINGLE_FILE_OFFSET = 352

_MAGIC_SINGLE = b"n+1\x00"
_MAGIC_PAIR = b"ni1\x00"

# NIfTI-1 datatype codes we read; everything is converted to float32.
_NIFTI_DTYPES = {
    2: np.dtype("<u1"),
    4: np.dtype("<i2"),
    8: np.dtype("<i4"),
    16: np.dtype("<f4"),
    64: np.dtype("<f8"),
}

BLOB_MAGIC = b"MCT2"


def _read_file(path: str | os.PathLike) -> bytes:
    opener = gzip.open if str(path).endswith(".gz") else open
    try:
        with opener(path, "rb") as fh:
            return fh.read()
    except (OSError, EOFError, zlib.error) as exc:
        raise IoFailure(f"cannot read {path}: {exc}") from exc


def _write_file(path: str | os.PathLike, payload: bytes) -> None:
    """Atomic write (temp file + rename); gzip when the name ends in .gz.

    The gzip stream is deflate level 1 with mtime 0 and no file name in its
    header, so a payload gives the same bytes at any path and time.  Noisy
    float32 volumes barely compress: level 9 takes about 12 times as long
    for files about 6% smaller.
    """
    path = str(path)
    tmp = path + ".part"
    if path.endswith(".gz"):
        payload = gzip.compress(payload, compresslevel=1, mtime=0)
    try:
        with open(tmp, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        try:
            if os.path.exists(tmp):
                os.remove(tmp)
        except OSError:
            pass
        raise IoFailure(f"cannot write {path}: {exc}") from exc


def _check_read_back(path: str | os.PathLike, value: Any, read: Callable[[], Any]) -> None:
    """Refuse to write `path` unless `read`, its reader run on the exact text or bytes
    to be written, gives back `value`; called before anything is made on disk."""
    try:
        back = read()
    except MipclassError as exc:
        raise SchemaMismatch(f"cannot write {path}: its reader would refuse it: {exc}") from None
    if back != value:
        raise SchemaMismatch(f"cannot write {path}: it would read back as {back}")


def _make_dir(path: str | os.PathLike) -> None:
    """Create a directory and its parents; a path that cannot be one is an IoFailure."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise IoFailure(f"cannot create directory {path}: {exc}") from exc


def _write_text(path: str | os.PathLike, text: str, value: Any, parse: Callable) -> None:
    """Write `text` to `path` atomically, making its directory, once `parse` reads the
    text back as `value`; text it refuses or reads as something else writes nothing."""
    _check_read_back(path, value, lambda: parse(text))
    _make_dir(os.path.dirname(path) or ".")
    _write_file(path, text.encode("utf-8"))


def _quaternion_affine(header: bytes, spacing: tuple[float, float, float]) -> np.ndarray:
    b, c, d = struct.unpack_from("<3f", header, 256)
    ox, oy, oz = struct.unpack_from("<3f", header, 268)
    qfac = struct.unpack_from("<f", header, 76)[0]
    qfac = -1.0 if qfac < 0 else 1.0
    if not all(math.isfinite(v) for v in (b, c, d, ox, oy, oz)):
        raise HeaderError("non-finite quaternion fields")
    a_sq = 1.0 - (b * b + c * c + d * d)
    a = math.sqrt(a_sq) if a_sq > 0 else 0.0
    rot = np.array(
        [
            [a * a + b * b - c * c - d * d, 2 * (b * c - a * d), 2 * (b * d + a * c)],
            [2 * (b * c + a * d), a * a + c * c - b * b - d * d, 2 * (c * d - a * b)],
            [2 * (b * d - a * c), 2 * (c * d + a * b), a * a + d * d - b * b - c * c],
        ],
        dtype=np.float64,
    )
    aff = np.eye(4, dtype=np.float64)
    aff[:3, 0] = rot[:, 0] * spacing[0]
    aff[:3, 1] = rot[:, 1] * spacing[1]
    aff[:3, 2] = rot[:, 2] * spacing[2] * qfac
    aff[:3, 3] = (ox, oy, oz)
    return aff


def read_nifti(path: str | os.PathLike) -> Volume:
    """Parse a little-endian NIfTI-1 file into a :class:`Volume`.

    sform wins over qform when both are present; with neither, the affine
    is diagonal at the pixdim spacing.  ``scl_slope == 0`` means "no
    scaling" per the format; otherwise voxels become slope*v + inter.
    """
    buf = _read_file(path)
    if len(buf) < HEADER_SIZE:
        raise TruncatedPayload(f"{path}: {len(buf)} bytes is shorter than a NIfTI-1 header")
    magic = buf[344:348]
    if magic not in (_MAGIC_SINGLE, _MAGIC_PAIR):
        raise BadMagic(f"{path}: magic {magic!r} is not a NIfTI-1 signature")
    (sizeof_hdr,) = struct.unpack_from("<i", buf, 0)
    if sizeof_hdr != HEADER_SIZE:
        raise HeaderError(
            f"{path}: sizeof_hdr={sizeof_hdr}; big-endian NIfTI-1 files are not supported"
        )
    dim = struct.unpack_from("<8h", buf, 40)
    if not 1 <= dim[0] <= 7:
        raise HeaderError(
            f"{path}: dim[0]={dim[0]} outside 1..7; big-endian NIfTI-1 files are not supported"
        )
    if dim[0] != 3:
        raise HeaderError(f"{path}: only 3D volumes are supported, got dim[0]={dim[0]}")
    nx, ny, nz = int(dim[1]), int(dim[2]), int(dim[3])
    if min(nx, ny, nz) < 1:
        raise HeaderError(f"{path}: non-positive dimensions {(nx, ny, nz)}")

    datatype, bitpix = struct.unpack_from("<2h", buf, 70)
    np_dtype = _NIFTI_DTYPES.get(datatype)
    if np_dtype is None:
        raise UnsupportedDtype(f"{path}: datatype code {datatype} is not supported")
    if bitpix != np_dtype.itemsize * 8:
        raise HeaderError(f"{path}: bitpix={bitpix} disagrees with datatype {datatype}")

    pixdim = struct.unpack_from("<8f", buf, 76)
    spacing = tuple(float(p) for p in pixdim[1:4])
    if any(not math.isfinite(s) or s <= 0 for s in spacing):
        raise HeaderError(f"{path}: pixdim spacing {spacing} must be positive and finite")

    vox_offset_f, scl_slope, scl_inter = struct.unpack_from("<3f", buf, 108)
    if not math.isfinite(vox_offset_f) or vox_offset_f != int(vox_offset_f):
        raise HeaderError(f"{path}: vox_offset={vox_offset_f} is not an integer byte offset")
    vox_offset = int(vox_offset_f)
    if not (math.isfinite(scl_slope) and math.isfinite(scl_inter)):
        raise HeaderError(f"{path}: non-finite scl_slope/scl_inter")

    if magic == _MAGIC_SINGLE:
        if vox_offset < HEADER_SIZE:
            raise HeaderError(f"{path}: vox_offset={vox_offset} overlaps the header")
        data_src = buf
    else:
        base, ext = os.path.splitext(str(path))
        if ext == ".gz":
            base, _ = os.path.splitext(base)
            img_path = base + ".img.gz"
        else:
            img_path = base + ".img"
        if vox_offset < 0:
            raise HeaderError(f"{path}: negative vox_offset for a header/image pair")
        data_src = _read_file(img_path)

    qform_code, sform_code = struct.unpack_from("<2h", buf, 252)
    if sform_code > 0:
        rows = struct.unpack_from("<12f", buf, 280)
        affine = np.eye(4, dtype=np.float64)
        affine[0, :] = rows[0:4]
        affine[1, :] = rows[4:8]
        affine[2, :] = rows[8:12]
        if not np.all(np.isfinite(affine)):
            raise NonInvertibleAffine(f"{path}: sform rows contain non-finite values")
    elif qform_code > 0:
        affine = _quaternion_affine(buf, spacing)
    else:
        affine = np.diag((*spacing, 1.0)).astype(np.float64)
    if abs(np.linalg.det(affine[:3, :3])) <= 1e-12:
        raise NonInvertibleAffine(f"{path}: voxel-to-world matrix is singular")

    nvox = nx * ny * nz
    nbytes = nvox * np_dtype.itemsize
    if len(data_src) < vox_offset + nbytes:
        raise TruncatedPayload(
            f"{path}: payload needs {vox_offset + nbytes} bytes, file has {len(data_src)}"
        )
    raw = np.frombuffer(data_src, dtype=np_dtype, count=nvox, offset=vox_offset)
    # on-disk order is x-fastest
    data = np.ascontiguousarray(raw.reshape((nx, ny, nz), order="F"), dtype=np.float32)
    if scl_slope != 0.0 and not (scl_slope == 1.0 and scl_inter == 0.0):
        # extreme slopes on extreme payloads may overflow; that is the
        # file's problem, not a parse failure
        with np.errstate(invalid="ignore", over="ignore"):
            data = data * np.float32(scl_slope) + np.float32(scl_inter)

    return Volume(data=data, spacing=spacing, affine=affine)


def write_nifti(volume: Volume, path: str | os.PathLike) -> None:
    """Write a single-file little-endian NIfTI-1 (.nii or .nii.gz), float32.

    The affine goes into the sform (code 1) and scl_slope is written as 0
    so that ``read_nifti`` round-trips the payload bit-exactly.
    """
    header = bytearray(SINGLE_FILE_OFFSET)
    struct.pack_into("<i", header, 0, HEADER_SIZE)
    nx, ny, nz = volume.shape
    struct.pack_into("<8h", header, 40, 3, nx, ny, nz, 1, 1, 1, 1)
    struct.pack_into("<2h", header, 70, 16, 32)  # float32
    sx, sy, sz = volume.spacing
    struct.pack_into("<8f", header, 76, 1.0, sx, sy, sz, 0.0, 0.0, 0.0, 0.0)
    struct.pack_into("<3f", header, 108, float(SINGLE_FILE_OFFSET), 0.0, 0.0)
    struct.pack_into("<2h", header, 252, 0, 1)  # qform off, sform on
    aff = volume.affine
    struct.pack_into("<4f", header, 280, *aff[0, :])
    struct.pack_into("<4f", header, 296, *aff[1, :])
    struct.pack_into("<4f", header, 312, *aff[2, :])
    header[344:348] = _MAGIC_SINGLE
    payload = np.asarray(volume.data, dtype="<f4").tobytes(order="F")
    _write_file(path, bytes(header) + payload)


@dataclass
class TensorBlob:
    """Raw tensor container: a float32 payload plus a JSON-object metadata dict."""

    data: np.ndarray
    meta: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(self.data)
        if data.dtype != np.float32:
            raise UnsupportedDtype(f"blob dtype must be float32, got {data.dtype}")
        if data.ndim < 1 or data.ndim > 8:
            raise HeaderError(f"blob ndim must be in 1..8, got {data.ndim}")
        if not isinstance(self.meta, dict):
            raise SchemaMismatch(f"blob metadata must be a dict, got {type(self.meta).__name__}")
        self.data = data


def write_blob(blob: TensorBlob, path: str | os.PathLike) -> None:
    """Write magic, u8 ndim, u32 dims, u32 meta length, sorted-key JSON meta, payload.

    The payload is row-major little-endian float32; one file, one rename.
    """
    data = blob.data
    meta = json.dumps(blob.meta, sort_keys=True).encode("utf-8")
    head = BLOB_MAGIC + struct.pack(f"<B{data.ndim}II", data.ndim, *data.shape, len(meta))
    _write_file(path, head + meta + data.astype("<f4", copy=False).tobytes())


def read_blob(path: str | os.PathLike) -> TensorBlob:
    """Read a blob written by :func:`write_blob`; sizes are checked before any slice."""
    buf = _read_file(path)
    if len(buf) < 5:
        raise TruncatedPayload(f"{path}: too short for a blob header")
    if buf[:4] != BLOB_MAGIC:
        raise BadMagic(f"{path}: magic {buf[:4]!r} is not {BLOB_MAGIC!r}")
    ndim = buf[4]
    if not 1 <= ndim <= 8:
        raise HeaderError(f"{path}: blob ndim {ndim} outside 1..8")
    meta_start = 5 + 4 * ndim + 4
    if len(buf) < meta_start:
        raise TruncatedPayload(f"{path}: truncated dimension list")
    *dims, meta_len = struct.unpack_from(f"<{ndim}II", buf, 5)
    data_start = meta_start + meta_len
    if len(buf) < data_start:
        raise TruncatedPayload(f"{path}: metadata needs {meta_len} bytes past the header")
    count = math.prod(dims)
    nbytes = len(buf) - data_start
    if nbytes != 4 * count:
        raise LengthMismatch(f"{path}: payload is {nbytes} bytes, dims {dims} require {4 * count}")
    try:
        meta = json.loads(buf[meta_start:data_start].decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise SchemaMismatch(f"{path}: blob metadata is not valid JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise SchemaMismatch(f"{path}: blob metadata must be a JSON object")
    data = np.frombuffer(buf, dtype="<f4", count=count, offset=data_start).reshape(dims)
    return TensorBlob(data=np.array(data), meta=meta)
