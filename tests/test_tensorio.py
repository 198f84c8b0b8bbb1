"""NIfTI-1 and MCT2 blob I/O tests, checked against an independent writer."""

import gzip
import struct

import numpy as np
import pytest

from mipclass import phantom, tensorio
from mipclass.errors import (
    BadMagic,
    HeaderError,
    IoFailure,
    LengthMismatch,
    MipclassError,
    SchemaMismatch,
    TruncatedPayload,
    UnsupportedDtype,
)
from mipclass.tensorio import TensorBlob, read_blob, read_nifti, write_blob, write_nifti
from mipclass.volume import Volume

from nifti_reference import reference_nifti_bytes


class TestNiftiRead:
    def test_reference_layout_hex(self):
        """Field layout of the oracle writer matches the published offsets."""
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        buf = reference_nifti_bytes(data)
        assert struct.unpack_from("<i", buf, 0)[0] == 348
        assert struct.unpack_from("<8h", buf, 40)[:4] == (3, 2, 2, 2)
        assert struct.unpack_from("<h", buf, 70)[0] == 16
        assert buf[344:348] == b"n+1\x00"
        assert len(buf) == 352 + 8 * 4

    def test_read_2x2x2_identity_sform(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        p = tmp_path / "cube.nii"
        p.write_bytes(reference_nifti_bytes(data))
        vol = read_nifti(p)
        np.testing.assert_array_equal(vol.data, data)
        assert vol.spacing == (1.0, 1.0, 1.0)
        np.testing.assert_allclose(vol.affine, np.eye(4))
        assert vol.orientation == "RAS"

    def test_disk_order_is_x_fastest(self, tmp_path):
        """Voxel (1,0,0) must be the second element of the payload."""
        data = np.zeros((2, 2, 2), dtype=np.float32)
        data[1, 0, 0] = 7.0
        buf = reference_nifti_bytes(data)
        payload = np.frombuffer(buf[352:], dtype="<f4")
        assert payload[1] == 7.0
        p = tmp_path / "order.nii"
        p.write_bytes(buf)
        assert read_nifti(p).data[1, 0, 0] == 7.0

    def test_bad_magic(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        p = tmp_path / "bad.nii"
        p.write_bytes(reference_nifti_bytes(data, magic=b"XXXX"))
        with pytest.raises(BadMagic):
            read_nifti(p)

    def test_scl_slope_scaling(self, tmp_path):
        """raw 3 with slope 2, inter 1 -> 7 (the standard's scaling formula)."""
        data = np.full((1, 1, 1), 3.0, dtype=np.float32)
        p = tmp_path / "scaled.nii"
        p.write_bytes(reference_nifti_bytes(data, scl_slope=2.0, scl_inter=1.0))
        assert read_nifti(p).data[0, 0, 0] == 7.0

    def test_scl_slope_zero_means_no_scaling(self, tmp_path):
        data = np.full((1, 1, 1), 3.0, dtype=np.float32)
        p = tmp_path / "unscaled.nii"
        p.write_bytes(reference_nifti_bytes(data, scl_slope=0.0, scl_inter=100.0))
        assert read_nifti(p).data[0, 0, 0] == 3.0

    @pytest.mark.parametrize("dtype", [np.uint8, np.int16, np.int32, np.float32, np.float64])
    def test_supported_dtypes_become_f32(self, tmp_path, dtype):
        data = np.arange(24).reshape(2, 3, 4).astype(dtype)
        p = tmp_path / "dt.nii"
        p.write_bytes(reference_nifti_bytes(data))
        vol = read_nifti(p)
        assert vol.data.dtype == np.float32
        np.testing.assert_array_equal(vol.data, data.astype(np.float32))

    def test_unsupported_dtype_code(self, tmp_path):
        data = np.zeros((1, 1, 1), dtype=np.float32)
        buf = bytearray(reference_nifti_bytes(data))
        struct.pack_into("<h", buf, 70, 128)  # RGB24: not supported
        p = tmp_path / "rgb.nii"
        p.write_bytes(bytes(buf))
        with pytest.raises(UnsupportedDtype):
            read_nifti(p)

    def test_truncated_payload(self, tmp_path):
        data = np.zeros((4, 4, 4), dtype=np.float32)
        buf = reference_nifti_bytes(data)
        p = tmp_path / "trunc.nii"
        p.write_bytes(buf[:-1])
        with pytest.raises(TruncatedPayload):
            read_nifti(p)

    def test_big_endian_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        buf = bytearray(reference_nifti_bytes(data))
        struct.pack_into(">8h", buf, 40, 3, 2, 2, 2, 1, 1, 1, 1)  # BE dim block
        p = tmp_path / "be.nii"
        p.write_bytes(bytes(buf))
        with pytest.raises(HeaderError):
            read_nifti(p)

    def test_4d_rejected(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        buf = bytearray(reference_nifti_bytes(data))
        struct.pack_into("<8h", buf, 40, 4, 2, 2, 2, 5, 1, 1, 1)
        p = tmp_path / "4d.nii"
        p.write_bytes(bytes(buf))
        with pytest.raises(HeaderError):
            read_nifti(p)

    def test_qform_fallback_identity_quaternion(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        p = tmp_path / "q.nii"
        p.write_bytes(
            reference_nifti_bytes(
                data,
                spacing=(2.0, 3.0, 4.0),
                sform_code=0,
                qform_code=1,
                qoffset=(10.0, -5.0, 2.0),
            )
        )
        vol = read_nifti(p)
        expect = np.diag((2.0, 3.0, 4.0, 1.0))
        expect[:3, 3] = (10.0, -5.0, 2.0)
        np.testing.assert_allclose(vol.affine, expect, atol=1e-6)

    def test_sform_wins_over_qform(self, tmp_path):
        data = np.zeros((2, 2, 2), dtype=np.float32)
        aff = np.diag((5.0, 5.0, 5.0, 1.0))
        p = tmp_path / "both.nii"
        p.write_bytes(
            reference_nifti_bytes(
                data, spacing=(2.0, 2.0, 2.0), affine=aff, sform_code=1, qform_code=1
            )
        )
        vol = read_nifti(p)
        np.testing.assert_allclose(vol.affine, aff, atol=1e-6)

    def test_gzip_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        vol = Volume.from_array(rng.random((3, 4, 5), dtype=np.float32))
        p = tmp_path / "z.nii.gz"
        write_nifti(vol, p)
        back = read_nifti(p)
        np.testing.assert_array_equal(back.data, vol.data)


class TestNiftiPair:
    """A header/image pair: magic ni1 in the .hdr, the voxels at vox_offset 0
    of the .img, both gzipped or neither."""

    # a rotated, shifted grid, so a lost sform would show
    AFFINE = np.array([[0, -0.7, 0, 10.0], [0.7, 0, 0, -5.0], [0, 0, 3.0, 2.0], [0, 0, 0, 1]])

    @classmethod
    def _write_pair(cls, data, tmp_path, gz) -> tuple:
        buf = reference_nifti_bytes(
            data, spacing=(0.7, 0.7, 3.0), affine=cls.AFFINE, magic=b"ni1\x00", vox_offset=0.0
        )
        suffix, pack = (".gz", gzip.compress) if gz else ("", bytes)
        header, image = tmp_path / f"pair.hdr{suffix}", tmp_path / f"pair.img{suffix}"
        header.write_bytes(pack(buf[:348]))
        image.write_bytes(pack(buf[348:]))
        return header, image

    @pytest.mark.parametrize("gz", [False, True], ids=["hdr_img", "hdr_img_gz"])
    def test_pair_reads_as_the_single_file(self, tmp_path, gz):
        data = np.random.default_rng(6).random((3, 4, 5), dtype=np.float32)
        single = tmp_path / "single.nii"
        single.write_bytes(
            reference_nifti_bytes(data, spacing=(0.7, 0.7, 3.0), affine=self.AFFINE)
        )
        header, _ = self._write_pair(data, tmp_path, gz)
        want, got = read_nifti(single), read_nifti(header)
        assert got.data.tobytes() == want.data.tobytes()
        assert got.spacing == want.spacing
        assert got.affine.tobytes() == want.affine.tobytes()

    @pytest.mark.parametrize("gz", [False, True], ids=["hdr_img", "hdr_img_gz"])
    def test_missing_image_is_io_failure(self, tmp_path, gz):
        header, image = self._write_pair(np.zeros((2, 2, 2), np.float32), tmp_path, gz)
        image.unlink()
        with pytest.raises(IoFailure, match=image.name):
            read_nifti(header)


class TestNiftiWrite:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        data = rng.random((4, 4, 4), dtype=np.float32)
        vol = Volume.from_array(data, spacing=(1.5, 2.0, 2.5))
        p = tmp_path / "rt.nii"
        write_nifti(vol, p)
        back = read_nifti(p)
        assert back.data.tobytes() == vol.data.tobytes()

    def test_roundtrip_preserves_pipeline_spacing(self, tmp_path):
        vol = Volume.from_array(np.zeros((2, 2, 2), dtype=np.float32), spacing=(0.7, 0.7, 3.0))
        p = tmp_path / "sp.nii"
        write_nifti(vol, p)
        back = read_nifti(p)
        np.testing.assert_allclose(back.spacing, (0.7, 0.7, 3.0), atol=1e-6)

    def test_roundtrip_affine_close(self, tmp_path):
        rng = np.random.default_rng(1)
        aff = np.eye(4)
        aff[:3, :3] += rng.normal(0, 0.05, (3, 3))
        aff[:3, 3] = rng.normal(0, 40, 3)
        vol = Volume(np.zeros((2, 2, 2), dtype=np.float32), (1, 1, 1), aff)
        p = tmp_path / "aff.nii"
        write_nifti(vol, p)
        np.testing.assert_allclose(read_nifti(p).affine, aff, atol=1e-4)

    def test_write_against_reference_bytes(self, tmp_path):
        """Library writer and independent writer produce identical files."""
        data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        vol = Volume.from_array(data, spacing=(1.0, 1.0, 1.0))
        p = tmp_path / "cmp.nii"
        write_nifti(vol, p)
        ours = p.read_bytes()
        ref = reference_nifti_bytes(data)
        # both use sform-only float32 single-file layout; compare the fields
        # the reader consumes plus the payload
        for lo, hi in [(0, 4), (40, 56), (70, 74), (76, 92), (108, 120), (252, 256), (280, 328), (344, 348)]:
            assert ours[lo:hi] == ref[lo:hi]
        assert ours[352:] == ref[352:]

    def test_gzip_bytes_do_not_depend_on_the_path(self, tmp_path):
        """The gzip header holds no file name and mtime 0, so equal volumes give equal bytes."""
        rng = np.random.default_rng(7)
        vol = Volume.from_array(rng.random((5, 4, 3), dtype=np.float32))
        write_nifti(vol, tmp_path / "a.nii.gz")
        write_nifti(vol, tmp_path / "b.nii.gz")
        buf = (tmp_path / "a.nii.gz").read_bytes()
        assert buf == (tmp_path / "b.nii.gz").read_bytes()
        assert buf[:3] == b"\x1f\x8b\x08"  # gzip magic, deflate
        assert buf[3] & 0x08 == 0  # FLG has no FNAME bit
        assert buf[4:8] == bytes(4)  # MTIME 0
        write_nifti(vol, tmp_path / "a.nii")
        assert gzip.decompress(buf) == (tmp_path / "a.nii").read_bytes()

    def test_unwritable_path_raises(self, tmp_path):
        vol = Volume.from_array(np.zeros((1, 1, 1), dtype=np.float32))
        with pytest.raises(IoFailure):
            write_nifti(vol, "")
        with pytest.raises(IoFailure):
            write_nifti(vol, tmp_path / "no" / "such" / "dir" / "x.nii")


class TestHeaderFuzz:
    def test_fuzzed_headers_never_crash(self, tmp_path):
        """Random header mutations produce typed errors or valid volumes."""
        rng = np.random.default_rng(1234)
        base = bytearray(reference_nifti_bytes(np.zeros((2, 2, 2), dtype=np.float32)))
        p = tmp_path / "fuzz.nii"
        outcomes = {"ok": 0, "err": 0}
        for _ in range(1500):
            buf = bytearray(base)
            for _ in range(rng.integers(1, 9)):
                pos = int(rng.integers(0, 352))
                buf[pos] = int(rng.integers(0, 256))
            p.write_bytes(bytes(buf))
            try:
                read_nifti(p)
                outcomes["ok"] += 1
            except MipclassError:
                outcomes["err"] += 1
        assert outcomes["ok"] + outcomes["err"] == 1500

    def test_random_garbage_files(self, tmp_path):
        rng = np.random.default_rng(99)
        p = tmp_path / "junk.nii"
        for _ in range(300):
            n = int(rng.integers(0, 600))
            p.write_bytes(rng.integers(0, 256, n, dtype=np.uint8).tobytes())
            with pytest.raises(MipclassError):
                read_nifti(p)

    def test_fuzzed_gzip_stream_never_crashes(self, tmp_path):
        """Mutated bytes anywhere in a phantom .nii.gz (header, deflate data,
        trailer) and truncations give a Volume or a typed error."""
        rng = np.random.default_rng(2468)
        path = tmp_path / "post2.nii.gz"
        write_nifti(phantom.generate_study("p000", 0, 0).posts[1], path)
        base = path.read_bytes()
        outcomes = {"ok": 0, "err": 0}
        for _ in range(1500):
            buf = bytearray(base)
            for _ in range(rng.integers(1, 9)):
                buf[int(rng.integers(0, len(buf)))] = int(rng.integers(0, 256))
            if rng.random() < 0.25:
                buf = buf[: int(rng.integers(0, len(buf)))]
            path.write_bytes(bytes(buf))
            try:
                assert isinstance(read_nifti(path), Volume)
                outcomes["ok"] += 1
            except MipclassError:
                outcomes["err"] += 1
        assert outcomes["ok"] + outcomes["err"] == 1500
        assert outcomes["err"] > 0

    def test_huge_dims_no_allocation(self, tmp_path):
        """Giant declared dims on a small file must fail before allocating."""
        buf = bytearray(reference_nifti_bytes(np.zeros((2, 2, 2), dtype=np.float32)))
        struct.pack_into("<8h", buf, 40, 3, 32000, 32000, 32000, 1, 1, 1, 1)
        p = tmp_path / "huge.nii"
        p.write_bytes(bytes(buf))
        with pytest.raises(TruncatedPayload):
            read_nifti(p)


def _blob_bytes(dims, meta_text: bytes, payload: bytes, magic=b"MCT2") -> bytes:
    """Independent MCT2 writer: magic, ndim, dims, meta length, meta, payload."""
    head = magic + struct.pack(f"<B{len(dims)}I", len(dims), *dims)
    return head + struct.pack("<I", len(meta_text)) + meta_text + payload


class TestBlob:
    def test_roundtrip_stack(self, tmp_path):
        rng = np.random.default_rng(5)
        data = rng.random((4, 256, 256)).astype(np.float32)
        p = tmp_path / "stack.mct"
        write_blob(TensorBlob(data, meta={"patient": "p0", "side": "left"}), p)
        back = read_blob(p)
        assert back.data.tobytes() == data.tobytes()
        assert back.data.shape == (4, 256, 256)
        assert back.meta == {"patient": "p0", "side": "left"}
        assert sorted(q.name for q in tmp_path.iterdir()) == ["stack.mct"]

    def test_payload_short_by_one(self, tmp_path):
        data = np.zeros(10, dtype=np.float32)
        p = tmp_path / "short.mct"
        write_blob(TensorBlob(data), p)
        p.write_bytes(p.read_bytes()[:-1])
        with pytest.raises(LengthMismatch):
            read_blob(p)

    def test_unknown_dtype_code(self):
        """Blobs hold float32 only; any other element type is refused."""
        for dtype in (np.uint8, np.float64):
            with pytest.raises(UnsupportedDtype):
                TensorBlob(np.zeros(4, dtype=dtype))

    def test_wrong_magic(self, tmp_path):
        """Also refuses the previous MCT1 layout (dtype code, no embedded metadata)."""
        p = tmp_path / "m.mct"
        for buf in (b"NOPE" + bytes(10), b"MCT1" + struct.pack("<BBI", 1, 1, 2) + bytes(8)):
            p.write_bytes(buf)
            with pytest.raises(BadMagic):
                read_blob(p)

    def test_header_layout(self, tmp_path):
        data = np.arange(6, dtype=np.float32).reshape(2, 3)
        p = tmp_path / "layout.mct"
        write_blob(TensorBlob(data, meta={"b": 1, "a": "x"}), p)
        buf = p.read_bytes()
        meta = b'{"a": "x", "b": 1}'  # sorted keys
        assert buf[:4] == b"MCT2"
        assert buf[4] == 2  # ndim
        assert struct.unpack_from("<2I", buf, 5) == (2, 3)
        assert struct.unpack_from("<I", buf, 13)[0] == len(meta)
        assert buf[17 : 17 + len(meta)] == meta
        assert buf[17 + len(meta) :] == data.astype("<f4").tobytes()
        assert buf == _blob_bytes((2, 3), meta, data.tobytes())

    def test_reads_independent_writer(self, tmp_path):
        data = np.arange(8, dtype=np.float32).reshape(2, 2, 2)
        p = tmp_path / "ref.mct"
        p.write_bytes(_blob_bytes((2, 2, 2), b'{"k": [1, 2]}', data.tobytes()))
        back = read_blob(p)
        np.testing.assert_array_equal(back.data, data)
        assert back.meta == {"k": [1, 2]}

    @pytest.mark.parametrize(
        "meta_text",
        [b"{not json", b"[1, 2]", b'"text"', b"\xff\xfe"],
        ids=["invalid_json", "array", "string", "not_utf8"],
    )
    def test_meta_must_be_a_json_object(self, tmp_path, meta_text):
        p = tmp_path / "meta.mct"
        p.write_bytes(_blob_bytes((2,), meta_text, bytes(8)))
        with pytest.raises(SchemaMismatch):
            read_blob(p)

    @pytest.mark.parametrize("meta", [[1, 2], "text", None], ids=["list", "string", "none"])
    def test_writer_refuses_meta_the_reader_rejects(self, tmp_path, meta):
        with pytest.raises(SchemaMismatch):
            write_blob(TensorBlob(np.zeros(2, np.float32), meta=meta), tmp_path / "x.mct")
        assert list(tmp_path.iterdir()) == []

    def test_meta_length_past_end_of_file(self, tmp_path):
        """A huge declared meta length fails on the size check, not on a slice."""
        buf = bytearray(_blob_bytes((2,), b"{}", bytes(8)))
        struct.pack_into("<I", buf, 9, 0xFFFFFFFF)
        p = tmp_path / "long.mct"
        p.write_bytes(bytes(buf))
        with pytest.raises(TruncatedPayload):
            read_blob(p)

    def test_huge_dims_no_allocation(self, tmp_path):
        p = tmp_path / "huge.mct"
        p.write_bytes(_blob_bytes((0xFFFFFFFF,) * 8, b"{}", bytes(8)))
        with pytest.raises(LengthMismatch):
            read_blob(p)


_VOXELS = np.ones((2, 2, 2), np.float32)


@pytest.mark.parametrize(
    "read, data, error, message",
    [
        (lambda path: TensorBlob(np.zeros((1,) * 9, np.float32)), b"", HeaderError,
         "blob ndim must be in 1..8, got 9"),
        (read_blob, b"MCT2", TruncatedPayload, "{path}: too short for a blob header"),
        (read_blob, b"MCT2\x03" + bytes(8), TruncatedPayload, "{path}: truncated dimension list"),
        (
            read_nifti,
            reference_nifti_bytes(_VOXELS, sform_code=0, qform_code=1, quaternion=(np.nan, 0, 0)),
            HeaderError,
            "non-finite quaternion fields",
        ),
        (read_nifti, reference_nifti_bytes(_VOXELS, scl_slope=np.inf), HeaderError,
         "{path}: non-finite scl_slope/scl_inter"),
        (read_nifti, reference_nifti_bytes(_VOXELS, magic=b"ni1\x00", vox_offset=-4.0), HeaderError,
         "{path}: negative vox_offset for a header/image pair"),
    ],
    ids=[
        "blob_ndim_9", "blob_under_5_bytes", "blob_dims_truncated", "nifti_quaternion_nan",
        "nifti_scale_inf", "nifti_pair_offset_negative",
    ],
)
def test_input_refusals(tmp_path, read, data, error, message):
    """Each input refusal's exact type and message."""
    path = tmp_path / "input"
    path.write_bytes(data)
    with pytest.raises(error) as refused:
        read(path)
    assert type(refused.value) is error
    assert str(refused.value) == message.format(path=path)
