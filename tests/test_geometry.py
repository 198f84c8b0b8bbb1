"""Geometry tests: every oracle here is independent of the implementation
(corner mapping through affines, scalar interpolation by hand, brute-force
window search)."""

import math
import tracemalloc

import numpy as np
import pytest
from capped_process import run_capped
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mipclass.errors import NonInvertibleAffine, WidthTooSmall
from mipclass.geometry import (
    ROW_TIE_RTOL,
    Interp,
    RowWindow,
    crop_or_pad,
    cut_halves,
    cut_plan,
    data_boxes,
    localize_rows,
    reorient_canonical,
    resample,
    resampled_shape,
)
from mipclass.volume import Volume, dominant_axes, orientation_code


def _world(affine, index):
    return affine[:3, :3] @ np.asarray(index, dtype=float) + affine[:3, 3]


def _assert_world_preserved(original: Volume, reoriented: Volume):
    """Every voxel value must sit at the same world position in both volumes."""
    uniq = np.arange(original.data.size, dtype=np.float32).reshape(original.shape)
    assert np.array_equal(np.sort(original.data, axis=None), np.sort(uniq, axis=None))
    n_probe = min(12, original.data.size)
    for value in np.random.default_rng(0).choice(original.data.ravel(), n_probe, replace=False):
        (src,) = np.argwhere(original.data == value)
        (dst,) = np.argwhere(reoriented.data == value)
        np.testing.assert_allclose(
            _world(original.affine, src), _world(reoriented.affine, dst), atol=1e-6
        )


class TestReorient:
    def test_ras_volume_unchanged(self):
        vol = Volume.from_array(np.arange(24, dtype=np.float32).reshape(2, 3, 4))
        out = reorient_canonical(vol)
        assert out is vol

    def test_lps_flips_x_and_y(self):
        """LPS input: x and y axes flip; all world coordinates preserved."""
        data = np.arange(24, dtype=np.float32).reshape(2, 3, 4)
        affine = np.diag((-1.0, -1.0, 1.0, 1.0))
        affine[:3, 3] = (10.0, 20.0, -3.0)
        vol = Volume(data, (1, 1, 1), affine)
        assert vol.orientation == "LPS"
        out = reorient_canonical(vol)
        assert out.orientation == "RAS"
        np.testing.assert_array_equal(out.data, data[::-1, ::-1, :])
        _assert_world_preserved(vol, out)

    def test_asr_permutation(self):
        """Axis-permuted input is transposed back; voxel count preserved."""
        data = np.arange(2 * 3 * 4, dtype=np.float32).reshape(2, 3, 4)
        affine = np.zeros((4, 4))
        affine[3, 3] = 1.0
        affine[1, 0] = 1.0  # voxel axis 0 -> +y (A)
        affine[2, 1] = 1.0  # voxel axis 1 -> +z (S)
        affine[0, 2] = 1.0  # voxel axis 2 -> +x (R)
        vol = Volume(data, (1, 1, 1), affine)
        assert vol.orientation == "ASR"
        out = reorient_canonical(vol)
        assert out.orientation == "RAS"
        assert out.data.size == data.size
        assert out.shape == (4, 2, 3)
        _assert_world_preserved(vol, out)

    def test_random_orientations_corner_oracle(self):
        """Random permutation/flip affines all land on RAS with worlds kept."""
        rng = np.random.default_rng(7)
        for _ in range(25):
            perm = rng.permutation(3)
            signs = rng.choice([-1.0, 1.0], 3)
            affine = np.zeros((4, 4))
            affine[3, 3] = 1.0
            for c in range(3):
                affine[perm[c], c] = signs[c] * rng.uniform(0.5, 3.0)
            affine[:3, 3] = rng.normal(0, 50, 3)
            shape = tuple(int(n) for n in rng.integers(2, 6, 3))
            data = np.arange(np.prod(shape), dtype=np.float32).reshape(shape)
            vol = Volume(data, (1, 1, 1), affine)
            out = reorient_canonical(vol)
            assert out.orientation == "RAS"
            _assert_world_preserved(vol, out)

    def test_idempotent(self):
        affine = np.diag((-2.0, 1.0, -1.0, 1.0))
        vol = Volume(np.arange(8, dtype=np.float32).reshape(2, 2, 2), (2, 1, 1), affine)
        once = reorient_canonical(vol)
        twice = reorient_canonical(once)
        assert twice is once

    def test_spacing_follows_permutation(self):
        affine = np.zeros((4, 4))
        affine[3, 3] = 1.0
        affine[1, 0] = 0.7
        affine[2, 1] = 3.0
        affine[0, 2] = 0.7
        vol = Volume(np.zeros((4, 5, 6), dtype=np.float32), (0.7, 3.0, 0.7), affine)
        out = reorient_canonical(vol)
        assert out.spacing == (0.7, 0.7, 3.0)


class TestResample:
    def test_identity_is_exact(self):
        rng = np.random.default_rng(11)
        vol = Volume.from_array(
            rng.random((5, 6, 7), dtype=np.float32), spacing=(0.7, 0.7, 3.0)
        )
        out = resample(vol, (0.7, 0.7, 3.0), Interp.TRILINEAR)
        assert out.data.tobytes() == vol.data.tobytes()

    def test_constant_stays_constant(self):
        vol = Volume.from_array(
            np.full((4, 4, 4), 7.25, dtype=np.float32), spacing=(2.0, 2.0, 2.0)
        )
        out = resample(vol, (0.9, 1.3, 3.1), Interp.TRILINEAR)
        np.testing.assert_array_equal(out.data, np.full(out.shape, 7.25, np.float32))

    def test_ramp_hand_values(self):
        """[0, 1] at 2 mm onto 1 mm: midpoint interpolates to exactly 0.5."""
        data = np.array([0.0, 1.0], dtype=np.float32).reshape(2, 1, 1)
        vol = Volume.from_array(data, spacing=(2.0, 1.0, 1.0))
        out = resample(vol, (1.0, 1.0, 1.0), Interp.TRILINEAR)
        assert out.shape == (4, 1, 1)
        np.testing.assert_array_equal(out.data[:, 0, 0], [0.0, 0.5, 1.0, 1.0])

    def test_shape_rule(self):
        vol = Volume.from_array(np.zeros((10, 10, 10), np.float32), spacing=(1.0, 1.0, 6.0))
        out = resample(vol, (0.7, 2.0, 3.0), Interp.TRILINEAR)
        # round(10*1/0.7)=14, round(10*1/2)=5, round(10*6/3)=20
        assert out.shape == (14, 5, 20)
        assert out.spacing == (0.7, 2.0, 3.0)

    def test_downsample_never_below_one(self):
        vol = Volume.from_array(np.zeros((2, 2, 2), np.float32), spacing=(1.0, 1.0, 1.0))
        out = resample(vol, (100.0, 100.0, 100.0), Interp.TRILINEAR)
        assert out.shape == (1, 1, 1)

    def test_nearest_values_subset_of_input(self):
        rng = np.random.default_rng(3)
        vol = Volume.from_array(rng.random((6, 5, 4), dtype=np.float32))
        out = resample(vol, (0.55, 1.7, 0.35), Interp.NEAREST)
        assert np.isin(out.data, vol.data).all()

    def test_trilinear_bounded_by_input_range(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            vol = Volume.from_array(
                rng.normal(0, 100, (5, 6, 7)).astype(np.float32),
                spacing=tuple(rng.uniform(0.5, 4.0, 3)),
            )
            out = resample(vol, tuple(rng.uniform(0.5, 4.0, 3)), Interp.TRILINEAR)
            assert out.data.min() >= vol.data.min()
            assert out.data.max() <= vol.data.max()

    def test_world_position_of_origin_kept(self):
        affine = np.diag((2.0, 2.0, 2.0, 1.0))
        affine[:3, 3] = (5.0, -1.0, 8.0)
        vol = Volume(np.zeros((4, 4, 4), np.float32), (2.0, 2.0, 2.0), affine)
        out = resample(vol, (1.0, 1.0, 1.0), Interp.TRILINEAR)
        np.testing.assert_allclose(_world(out.affine, (0, 0, 0)), (5.0, -1.0, 8.0))
        # one output step is now 1 mm
        np.testing.assert_allclose(_world(out.affine, (1, 0, 0)), (6.0, -1.0, 8.0))

    def test_mask_roundtrip_binary(self):
        rng = np.random.default_rng(5)
        mask = (rng.random((8, 8, 4)) > 0.5).astype(np.float32)
        vol = Volume.from_array(mask, spacing=(1.0, 1.0, 3.0))
        out = resample(vol, (0.7, 0.7, 3.0), Interp.NEAREST)
        assert set(np.unique(out.data)) <= {0.0, 1.0}


def _reference_lerp_axis(data, axis, n_out, ratio):
    """One axis of the whole-volume float64 lerp: the oracle for resample's plane-wise path."""
    n_in = data.shape[axis]
    pos = np.arange(n_out, dtype=np.float64) * ratio
    lo = np.clip(np.floor(pos).astype(np.int64), 0, n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    frac = pos - lo
    frac = np.where(hi == lo, 0.0, frac)
    shape = [1, 1, 1]
    shape[axis] = n_out
    frac = frac.reshape(shape)
    low_vals = np.take(data, lo, axis=axis)
    high_vals = np.take(data, hi, axis=axis)
    return low_vals * (1.0 - frac) + high_vals * frac


def _reference_trilinear(vol, target):
    ratios = tuple(target[i] / vol.spacing[i] for i in range(3))
    n_out = tuple(
        max(1, int(np.floor(vol.shape[i] * vol.spacing[i] / target[i] + 0.5))) for i in range(3)
    )
    acc = vol.data.astype(np.float64)
    for axis in range(3):
        if n_out[axis] == vol.shape[axis] and ratios[axis] == 1.0:
            continue
        acc = _reference_lerp_axis(acc, axis, n_out[axis], ratios[axis])
    return acc.astype(np.float32)


def _nan_canonical(data):
    return np.where(np.isnan(data), np.float32(np.nan), data)


_SPECIAL_VALUES = [-0.0, 0.0, np.nan, np.inf, -np.inf, 1e29, -1e29, 3.4e38, -3.4e38, 1e-45]


def _laid_out(values: np.ndarray, order: str) -> np.ndarray:
    """`values` in C or F order, or as a strided view with one reversed axis."""
    if order == "strided":
        nx, ny, nz = values.shape
        backing = np.zeros((2 * nx, ny, nz + 3), np.float32)
        view = backing[::2, ::-1, 1 : nz + 1]
        view[...] = values
        return view
    return np.array(values, order=order)


class TestTrilinearBytes:
    """The plane-wise trilinear path against the whole-volume formula."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_bytes_match_whole_volume_reference(self, data):
        """Any input memory order; each axis goes up, down or stays; values
        include -0.0, NaN, +-inf and huge magnitudes; the whole grid or a box
        of it.  Every non-NaN byte must match, and NaN where the reference has
        NaN: numpy's SIMD add keeps one operand's NaN inside full vector blocks
        and the other's in the tail, so a NaN's sign bit depends on where the
        voxel falls in the array, in the reference too."""
        shape = (
            data.draw(st.integers(1, 40), label="nx"),
            data.draw(st.integers(1, 6), label="ny"),
            data.draw(st.integers(1, 6), label="nz"),
        )
        spacing = tuple(data.draw(st.sampled_from([0.5, 0.7, 1.0, 3.0])) for _ in range(3))
        target = []
        for axis in range(3):
            n_out = data.draw(st.integers(1, 48 if axis == 0 else 8), label=f"n_out{axis}")
            kind = data.draw(st.sampled_from(["same", "extent"]), label=f"kind{axis}")
            # "extent" picks the spacing that gives n_out samples: up, down or (n_out = n) identity
            target.append(spacing[axis] if kind == "same" else spacing[axis] * shape[axis] / n_out)
        elements = st.floats(width=32) | st.sampled_from(_SPECIAL_VALUES)
        values = data.draw(arrays(np.float32, shape, elements=elements), label="values")
        order = data.draw(st.sampled_from(["C", "F", "strided"]), label="order")
        vol = Volume.from_array(_laid_out(values, order), spacing=spacing)
        with np.errstate(invalid="ignore", over="ignore"):
            expected = _reference_trilinear(vol, tuple(target))
            box = None
            if data.draw(st.booleans(), label="boxed"):
                box = []
                for i, n in enumerate(expected.shape):
                    start = data.draw(st.integers(0, n - 1), label=f"start{i}")
                    box.append(slice(start, data.draw(st.integers(start + 1, n), label=f"stop{i}")))
                expected = expected[tuple(box)]
            out = resample(vol, tuple(target), Interp.TRILINEAR, box=box)
        assert out.shape == expected.shape
        assert _nan_canonical(out.data).tobytes() == _nan_canonical(expected).tobytes()

    def test_finite_bytes_match_at_the_acceptance_grid(self):
        """C and F order, the whole grid and the box `cut_plan` gives a row window."""
        rng = np.random.default_rng(9)
        values = rng.gamma(2.0, 300.0, (64, 64, 16)).astype(np.float32)
        target = (1.4, 1.4, 6.0)
        source = Volume.from_array(values, (2.8, 2.8, 12.0))
        expected = _reference_trilinear(source, target)
        _, box, _ = cut_plan(source, target, (128, 128, 32), RowWindow(34, 64), None)
        assert box[1] == slice(34, 98)
        for order in ("C", "F"):
            vol = Volume.from_array(np.array(values, order=order), spacing=(2.8, 2.8, 12.0))
            out = resample(vol, target, Interp.TRILINEAR)
            assert out.data.tobytes() == expected.tobytes()
            out = resample(vol, target, Interp.TRILINEAR, box=box)
            assert out.data.tobytes() == expected[box].tobytes()


class TestResampleSlabs:
    """Memory bounds and refusals of resample."""

    def test_peak_memory_below_twice_the_output(self):
        """No whole-volume float64 temporary: the float32 output dominates."""
        rng = np.random.default_rng(4)
        vol = Volume.from_array(rng.random((64, 64, 16), dtype=np.float32), spacing=(2.0, 2.0, 6.0))
        tracemalloc.start()
        try:
            out = resample(vol, (1.0, 1.0, 3.0), Interp.TRILINEAR)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.shape == (128, 128, 32)
        assert peak < 2 * out.data.nbytes

    @pytest.mark.parametrize("interp", [Interp.TRILINEAR, Interp.NEAREST])
    def test_huge_grid_refused_with_its_shape(self, interp):
        vol = Volume.from_array(np.zeros((4, 4, 4), np.float32))
        with pytest.raises(ValueError, match=r"\(40000, 4, 40000\).*MAX_RESAMPLE_VOXELS"):
            resample(vol, (1e-4, 1.0, 1e-4), interp)
        # an extent that overflows a float is refused, not an OverflowError
        with pytest.raises(ValueError, match=r"\(inf, 4, 4\)"):
            resample(vol, (5e-324, 1.0, 1.0), interp)

    @pytest.mark.parametrize("interp", ["TRILINEAR", "NEAREST"])
    def test_refused_before_any_large_allocation(self, interp):
        """2**30 + 2**20 output voxels: refused with next to nothing allocated.
        A 1 GiB address-space cap turns any attempt at the 4-8 GiB arrays into
        a MemoryError rather than a machine out of memory."""
        code = f"""
import math
import tracemalloc
import numpy as np
from mipclass.geometry import Interp, resample
from mipclass.volume import Volume
vol = Volume.from_array(np.zeros((1025, 8, 8), np.float32), spacing=(1.0, 128.0, 128.0))
tracemalloc.start()
try:
    resample(vol, (1.0, 1.0, 1.0), Interp.{interp})
except ValueError as exc:
    print(tracemalloc.get_traced_memory()[1])
    print(exc)
"""
        proc = run_capped(["-c", code], 1 << 30)
        assert proc.returncode == 0, proc.stderr
        peak, message = proc.stdout.splitlines()
        assert int(peak) < 64 * 1024
        assert "(1025, 1024, 1024)" in message


def _oriented_affine(data, spacing):
    """A permutation/flip affine with `spacing` on its voxel axes, drawn from `data`."""
    perm = data.draw(st.permutations(range(3)), label="perm")
    affine = np.zeros((4, 4))
    affine[3, 3] = 1.0
    for c in range(3):
        affine[perm[c], c] = spacing[c] * data.draw(st.sampled_from([-1.0, 1.0]), label=f"sign{c}")
    affine[:3, 3] = [data.draw(st.floats(-100.0, 100.0), label=f"t{i}") for i in range(3)]
    return affine


def _nearest_ix(vol: Volume, target, n_out) -> np.ndarray:
    """Nearest resampling onto `n_out` samples as one ``np.ix_`` index: the
    oracle for resample's three separable takes."""
    idx = []
    for i, n in enumerate(n_out):
        pos = np.arange(n, dtype=np.float64) * (target[i] / vol.spacing[i])
        idx.append(np.clip(np.rint(pos).astype(np.int64), 0, vol.shape[i] - 1))
    return vol.data[np.ix_(*idx)]


class TestResampleBox:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_box_is_the_slice_of_the_whole(self, data):
        """Random shapes, each axis up, down or identity (ratio 1.0), boxes
        anywhere in the output grid: the boxed output is the whole output's
        slice, byte for byte, and its affine is moved by ``A @ start``."""
        shape = tuple(data.draw(st.integers(1, 9), label=f"n{i}") for i in range(3))
        spacing = tuple(data.draw(st.sampled_from([0.5, 0.7, 1.0, 3.0])) for _ in range(3))
        ratios = st.sampled_from([0.25, 0.4, 0.7, 1.0, 1.1, 1.5, 3.0])
        target = tuple(s * data.draw(ratios, label=f"ratio{i}") for i, s in enumerate(spacing))
        finite = st.floats(width=32, allow_nan=False, allow_infinity=False)
        values = data.draw(arrays(np.float32, shape, elements=finite), label="values")
        vol = Volume(values, spacing, _oriented_affine(data, spacing))
        interp = data.draw(st.sampled_from(Interp), label="interp")
        with np.errstate(over="ignore"):
            whole = resample(vol, target, interp)
        box = []
        for i, n in enumerate(whole.shape):
            start = data.draw(st.integers(0, n - 1), label=f"start{i}")
            box.append(slice(start, data.draw(st.integers(start + 1, n), label=f"stop{i}")))
        box = tuple(box)
        with np.errstate(over="ignore"):
            part = resample(vol, target, interp, box=box)
        assert np.array_equal(part.data.view(np.uint32), whole.data[box].view(np.uint32))
        expected = whole.affine.copy()
        expected[:3, 3] += expected[:3, :3] @ np.array([b.start for b in box], dtype=np.float64)
        assert part.affine.tobytes() == expected.tobytes()
        if interp is Interp.NEAREST:
            oracle = _nearest_ix(vol, target, whole.shape)
            assert np.array_equal(whole.data.view(np.uint32), oracle.view(np.uint32))

    @pytest.mark.parametrize("box", [(slice(2, 2),) * 3, (slice(0, 4), slice(4, 9), slice(0, 1))])
    def test_empty_box_refused(self, box):
        vol = Volume.from_array(np.zeros((4, 4, 4), np.float32))
        with pytest.raises(ValueError, match="empty or outside the output grid"):
            resample(vol, (1.0, 1.0, 1.0), Interp.TRILINEAR, box=box)


class TestResampledShape:
    @settings(max_examples=200)
    @given(data=st.data())
    def test_equals_the_shape_resample_makes(self, data):
        """Random shapes, spacings and orientations, onto coarser and finer targets."""
        shape = tuple(data.draw(st.integers(1, 12), label=f"n{i}") for i in range(3))
        spacing = tuple(data.draw(st.floats(0.2, 5.0), label=f"s{i}") for i in range(3))
        target = tuple(data.draw(st.floats(0.2, 5.0), label=f"target{i}") for i in range(3))
        vol = Volume(np.zeros(shape, np.float32), spacing, _oriented_affine(data, spacing))
        interp = data.draw(st.sampled_from(Interp), label="interp")
        expected = resample(reorient_canonical(vol), target, interp).shape
        assert resampled_shape(vol, target) == expected

    @pytest.mark.parametrize("target", [(1e-4, 1.0, 1e-4), (5e-324, 1.0, 1.0), (0.0, 1.0, 1.0)])
    def test_refuses_what_resample_refuses(self, target):
        affine = np.diag((-1.0, 1.0, 1.0, 1.0))[:, [2, 0, 1, 3]]
        vol = Volume(np.zeros((4, 5, 6), np.float32), (1.0, 1.0, 1.0), affine)
        with pytest.raises(ValueError) as made:
            resample(reorient_canonical(vol), target, Interp.NEAREST)
        with pytest.raises(ValueError) as computed:
            resampled_shape(vol, target)
        assert str(computed.value) == str(made.value)


class TestDataBoxes:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_cuts_hold_every_voxel_of_the_halves(self, data):
        """Volumes of several shapes, centred into one target and window: each
        one's cut of a half's data box is that box of its whole half, and its
        whole half is zero outside the box."""
        target = tuple(
            data.draw(st.integers(2 if i == 0 else 1, 13), label=f"t{i}") for i in range(3)
        )
        length = data.draw(st.integers(1, target[1]), label="length")
        rows = RowWindow(data.draw(st.integers(0, target[1] - length), label="start"), length)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        vols = [
            Volume.from_array((rng.random(shape) + 1).astype(np.float32), (0.7, 1.3, 3.0))
            for shape in data.draw(
                st.lists(st.tuples(*[st.integers(1, 9)] * 3), min_size=1, max_size=4),
                label="shapes",
            )
        ]
        boxes = data_boxes([v.shape for v in vols], target, rows)
        for vol in vols:
            halves = cut_halves(vol, target, rows)
            for half, cut, (size, box) in zip(halves, cut_halves(vol, target, rows, boxes), boxes):
                assert half.shape == size
                assert cut.shape == half.data[box].shape
                assert cut.data.tobytes(order="A") == half.data[box].tobytes(order="F")
                outside = half.data.copy()
                outside[box] = 0
                assert not outside.any()
                shift = half.affine[:3, :3] @ [s.start for s in box]
                np.testing.assert_allclose(cut.affine[:3, 3], half.affine[:3, 3] + shift, atol=1e-9)
                assert cut.data.flags.f_contiguous
            # the same cuts from only the box of `vol` that cut_plan names
            shape, box, affines = cut_plan(vol, vol.spacing, target, rows, boxes)
            part = resample(vol, vol.spacing, Interp.NEAREST, box=box)
            cuts = cut_halves(vol, target, rows, boxes)
            assert [a.tobytes() for a in affines] == [c.affine.tobytes() for c in cuts]
            for cut, sub in zip(cuts, cut_halves(part, target, rows, boxes, grid=(shape, box))):
                assert sub.data.tobytes(order="A") == cut.data.tobytes(order="A")
                np.testing.assert_allclose(sub.affine, cut.affine, atol=1e-9)


class TestCropOrPad:
    def test_identity(self):
        vol = Volume.from_array(np.ones((3, 4, 5), np.float32))
        assert crop_or_pad(vol, (3, 4, 5)) is vol

    def test_pad_2_to_4(self):
        """Odd/even centering: extra padding goes high, so 2 -> 4 is symmetric."""
        vol = Volume.from_array(np.array([1.0, 2.0], np.float32).reshape(2, 1, 1))
        out = crop_or_pad(vol, (4, 1, 1))
        np.testing.assert_array_equal(out.data[:, 0, 0], [0.0, 1.0, 2.0, 0.0])

    def test_pad_2_to_5_extra_high(self):
        vol = Volume.from_array(np.array([1.0, 2.0], np.float32).reshape(2, 1, 1))
        out = crop_or_pad(vol, (5, 1, 1))
        np.testing.assert_array_equal(out.data[:, 0, 0], [0.0, 1.0, 2.0, 0.0, 0.0])

    def test_crop_5_to_3(self):
        vol = Volume.from_array(np.arange(5, dtype=np.float32).reshape(5, 1, 1))
        out = crop_or_pad(vol, (3, 1, 1))
        np.testing.assert_array_equal(out.data[:, 0, 0], [1.0, 2.0, 3.0])

    def test_crop_5_to_2_extra_from_high(self):
        vol = Volume.from_array(np.arange(5, dtype=np.float32).reshape(5, 1, 1))
        out = crop_or_pad(vol, (2, 1, 1))
        np.testing.assert_array_equal(out.data[:, 0, 0], [1.0, 2.0])

    def test_world_positions_preserved(self):
        affine = np.diag((0.7, 0.7, 3.0, 1.0))
        affine[:3, 3] = (3.0, 4.0, 5.0)
        data = np.arange(60, dtype=np.float32).reshape(3, 4, 5)
        vol = Volume(data, (0.7, 0.7, 3.0), affine)
        out = crop_or_pad(vol, (7, 2, 5))
        # value 0 was at source index (0,0,0); padding shifts x by 2, crop shifts y by 1
        (dst,) = np.argwhere(out.data == 27.0)
        (src,) = np.argwhere(data == 27.0)
        np.testing.assert_allclose(_world(out.affine, dst), _world(affine, src), atol=1e-9)

    def test_pad_then_crop_roundtrip(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            shape = tuple(int(n) for n in rng.integers(1, 7, 3))
            bigger = tuple(s + int(d) for s, d in zip(shape, rng.integers(0, 5, 3)))
            vol = Volume.from_array(rng.random(shape, dtype=np.float32))
            back = crop_or_pad(crop_or_pad(vol, bigger), shape)
            np.testing.assert_array_equal(back.data, vol.data)
            np.testing.assert_allclose(back.affine, vol.affine, atol=1e-12)


class TestLocalizeRows:
    @staticmethod
    def _brute_force(volume: Volume, window: int) -> int:
        sums = volume.data.sum(axis=(0, 2), dtype=np.float64)
        extent = sums.size
        best_start, best = 0, -np.inf
        for s in range(extent - window + 1):
            total = np.sum(sums[s : s + window])
            if total > best:
                best_start, best = s, total
        return best_start

    def test_bright_band_contained(self):
        """Bright rows 100..299 of 512 -> the lowest covering window [44, 300)."""
        data = np.zeros((4, 512, 2), np.float32)
        data[:, 100:300, :] = 1.0
        vol = Volume.from_array(data)
        win = localize_rows(vol, 256)
        assert (win.start, win.stop) == (44, 300)
        assert win.start <= 100 and win.stop >= 300

    def test_small_axis_returns_full(self):
        vol = Volume.from_array(np.zeros((2, 256, 2), np.float32))
        win = localize_rows(vol, 256)
        assert (win.start, win.length) == (0, 256)

    def test_uniform_tie_breaks_low(self):
        vol = Volume.from_array(np.ones((3, 300, 3), np.float32))
        assert localize_rows(vol, 256).start == 0

    def test_matches_brute_force_on_random_volumes(self):
        rng = np.random.default_rng(42)
        for _ in range(120):
            height = int(rng.integers(10, 80))
            window = int(rng.integers(2, 12))
            vol = Volume.from_array(
                rng.random((3, height, 2)).astype(np.float32) * rng.uniform(1, 500)
            )
            win = localize_rows(vol, window)
            expected = window if height > window else height
            assert win.length == min(expected, height)
            if height > window:
                assert win.start == self._brute_force(vol, window)

    @staticmethod
    def _band(rows: int, band: slice, seed: int) -> np.ndarray:
        """Zeros except random float32 intensities, over nine decades so that
        float64 window sums round, in the rows of ``band``."""
        data = np.zeros((8, rows, 4), np.float32)
        n = band.stop - band.start
        data[:, band] = 10.0 ** np.random.default_rng(seed).uniform(-6, 3, (8, n, 4))
        return data

    def test_plateau_picks_lowest_start(self):
        """Published-grid layout: every start 64..192 holds the whole band
        [192, 320) of 512 rows, so the windows tie and 64 wins."""
        for seed in range(5):
            vol = Volume.from_array(self._band(512, slice(192, 320), seed))
            assert localize_rows(vol, 256).start == 64

    def test_memory_order_does_not_move_the_window(self):
        data = self._band(512, slice(150, 330), 3)
        c_order = localize_rows(Volume.from_array(np.ascontiguousarray(data)), 256)
        f_order = localize_rows(Volume.from_array(np.asfortranarray(data)), 256)
        assert c_order == f_order == RowWindow(74, 256)

    @settings(max_examples=200)
    @given(height=st.integers(3, 120), data=st.data())
    def test_plateau_plus_noise_below_tolerance(self, height, data):
        """Every window covering the band ties once noise stays under the
        tolerance; any window missing a band row loses by far more."""
        window = data.draw(st.integers(1, height - 1), label="window")
        length = data.draw(st.integers(1, window), label="band length")
        start = data.draw(st.integers(0, height - length), label="band start")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        band = self._band(height, slice(start, start + length), seed).astype(np.float64)
        rng = np.random.default_rng(seed)
        noise_total = 0.1 * ROW_TIE_RTOL * band.sum()
        band += rng.uniform(0.0, noise_total / band.size, band.shape)
        vol = Volume.from_array(band.astype(np.float32))
        assert localize_rows(vol, window).start == max(0, start + length - window)

    @settings(max_examples=200)
    @given(data=st.data())
    def test_padding_only_the_height_keeps_the_window(self, data):
        """A copy padded to the grid in height but only cropped in x and z picks
        the window of the full-grid copy: padded zeros add nothing to a row sum,
        and windows planted with equal sums tie the same way in both."""
        shape = [data.draw(st.integers(1, 12), label=f"axis {i}") for i in range(3)]
        grid = [max(1, n + data.draw(st.integers(-5, 5), label="grid - shape")) for n in shape]
        window = data.draw(st.integers(1, grid[1] + 1), label="window")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        values = rng.uniform(0.0, 1.0, shape) * 10.0 ** rng.uniform(-3, 3, shape)
        if data.draw(st.booleans(), label="flat"):
            values[:] = 1.0
        # a window's worth of rows copied elsewhere: two windows of equal sums
        length = min(window, shape[1])
        src, dst = (data.draw(st.integers(0, shape[1] - length)) for _ in range(2))
        values[:, dst : dst + length] = values[:, src : src + length].copy()
        vol = Volume.from_array(values.astype(np.float32))
        reach = tuple(t if i == 1 else min(n, t) for i, (n, t) in enumerate(zip(shape, grid)))
        expected = localize_rows(crop_or_pad(vol, tuple(grid)), window)
        assert localize_rows(crop_or_pad(vol, reach), window) == expected

    def test_non_finite_voxels_count_as_dark(self):
        data = self._band(512, slice(192, 320), 0)
        data[0, 10, 0] = np.nan
        data[1, 500, 2] = np.inf
        assert localize_rows(Volume.from_array(data), 256).start == 64

    def test_row_window_world_preserved(self):
        affine = np.diag((1.0, 2.0, 1.0, 1.0))
        data = np.arange(40, dtype=np.float32).reshape(2, 10, 2)
        vol = Volume(data, (1, 2, 1), affine)
        low, high = cut_halves(vol, vol.shape, RowWindow(3, 4))
        assert low.shape == high.shape == (1, 4, 2)
        np.testing.assert_array_equal(
            np.concatenate([low.data, high.data], axis=0), data[:, 3:7, :]
        )
        np.testing.assert_allclose(_world(low.affine, (0, 0, 0)), (0.0, 6.0, 0.0))

    def test_row_window_bounds_checked(self):
        vol = Volume.from_array(np.zeros((2, 5, 2), np.float32))
        with pytest.raises(ValueError):
            cut_halves(vol, vol.shape, RowWindow(3, 4))


def _split(vol):
    """The halves :func:`cut_halves` cuts from the whole of `vol`."""
    return cut_halves(vol, vol.shape, RowWindow(0, vol.shape[1]))


class TestSplitLR:
    """The width split of :func:`cut_halves`, with no crop, pad or row window."""

    def test_512_gives_two_256(self):
        vol = Volume.from_array(np.zeros((512, 4, 2), np.float32))
        low, high = _split(vol)
        assert low.shape == (256, 4, 2)
        assert high.shape == (256, 4, 2)

    def test_odd_width_5(self):
        vol = Volume.from_array(np.arange(5 * 2 * 2, dtype=np.float32).reshape(5, 2, 2))
        low, high = _split(vol)
        assert low.shape[0] == 2
        assert high.shape[0] == 3

    def test_concat_reproduces_input(self):
        rng = np.random.default_rng(17)
        for nx in (2, 5, 8, 512):
            vol = Volume.from_array(rng.random((nx, 3, 2), dtype=np.float32))
            low, high = _split(vol)
            np.testing.assert_array_equal(
                np.concatenate([low.data, high.data], axis=0), vol.data
            )

    def test_high_half_world_positions(self):
        affine = np.diag((0.7, 1.0, 1.0, 1.0))
        vol = Volume(np.zeros((6, 2, 2), np.float32), (0.7, 1, 1), affine)
        _, high = _split(vol)
        np.testing.assert_allclose(_world(high.affine, (0, 0, 0)), (2.1, 0.0, 0.0))

    def test_width_1_rejected(self):
        vol = Volume.from_array(np.zeros((1, 4, 4), np.float32))
        with pytest.raises(WidthTooSmall):
            _split(vol)

    def test_low_half_is_low_x(self):
        """In RAS the low-x half is the patient's right side."""
        data = np.zeros((4, 2, 2), np.float32)
        data[0] = 5.0  # marker at the lowest x slab
        vol = Volume.from_array(data)
        low, high = _split(vol)
        assert low.data.max() == 5.0
        assert high.data.max() == 0.0
        assert orientation_code(low.affine) == "RAS"


def _sliced_halves(vol, target_shape, rows):
    """Reference for :func:`cut_halves`: the crop_or_pad box, then the row window
    and the ``nx // 2`` width split by plain slicing, each half's origin moved
    to its first voxel."""
    box = crop_or_pad(vol, target_shape)
    half = box.shape[0] // 2
    halves = []
    for lo, hi in ((0, half), (half, box.shape[0])):
        affine = box.affine.copy()
        affine[:3, 3] += affine[:3, :3] @ np.array([lo, rows.start, 0], dtype=np.float64)
        halves.append(Volume(box.data[lo:hi, rows.start : rows.stop, :], box.spacing, affine))
    return halves


class TestCutHalves:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_bytes_and_affines_match_the_composition(self, data):
        """Random crop and pad per axis, windows at both ends of the axis and between."""
        shape = tuple(data.draw(st.integers(1, 9), label=f"n{i}") for i in range(3))
        target = (
            data.draw(st.integers(2, 13), label="tx"),
            data.draw(st.integers(1, 13), label="ty"),
            data.draw(st.integers(1, 13), label="tz"),
        )
        length = data.draw(st.integers(1, target[1]), label="length")
        last = target[1] - length
        start = data.draw(
            st.one_of(st.just(0), st.just(last), st.integers(0, last)), label="start"
        )
        values = data.draw(arrays(np.float32, shape, elements=st.floats(width=32)))
        spacing = tuple(
            data.draw(st.floats(0.1, 5.0), label=f"s{i}") for i in range(3)
        )
        affine = np.diag((*spacing, 1.0))
        affine[:3, 3] = [data.draw(st.floats(-100.0, 100.0), label=f"t{i}") for i in range(3)]
        vol = Volume(values, spacing, affine)
        rows = RowWindow(start, length)

        got = cut_halves(vol, target, rows)
        expected = _sliced_halves(vol, target, rows)
        for g, e in zip(got, expected):
            assert g.shape == e.shape
            assert g.data.dtype == np.float32
            assert g.data.tobytes() == e.data.tobytes()
            assert g.spacing == e.spacing
            np.testing.assert_allclose(g.affine, e.affine, rtol=0, atol=1e-9)

    @settings(max_examples=150)
    @given(data=st.data())
    def test_each_voxel_is_kept_once_at_its_world_position(self, data):
        """Independent of crop_or_pad: every source voxel carries its own id, so a
        kept voxel must sit where it was in the world, once, low x in the low half."""
        shape = tuple(data.draw(st.integers(1, 9), label=f"n{i}") for i in range(3))
        target = tuple(
            data.draw(st.integers(2 if i == 0 else 1, 13), label=f"t{i}") for i in range(3)
        )
        length = data.draw(st.integers(1, target[1]), label="length")
        start = data.draw(st.integers(0, target[1] - length), label="start")
        affine = np.diag((0.7, 1.3, 3.0, 1.0))
        affine[:3, 3] = (-5.0, 2.5, 11.0)
        ids = np.arange(1, 1 + math.prod(shape), dtype=np.float32).reshape(shape)
        vol = Volume(ids, (0.7, 1.3, 3.0), affine)

        halves = cut_halves(vol, target, RowWindow(start, length))
        kept = []
        for half in halves:
            at = np.argwhere(half.data != 0)
            flat = half.data[tuple(at.T)].astype(np.int64) - 1
            source = np.stack(np.unravel_index(flat, shape), axis=1)
            world = at @ half.affine[:3, :3].T + half.affine[:3, 3]
            np.testing.assert_allclose(world, source @ affine[:3, :3].T + affine[:3, 3], atol=1e-9)
            kept.append(source)
        assert sum(len(k) for k in kept) == len({tuple(v) for k in kept for v in k})
        if all(len(k) for k in kept):
            assert kept[0][:, 0].max() < kept[1][:, 0].min()

    def test_halves_are_plane_contiguous(self):
        """Each z-plane of a half is one block, as is each of the trilinear resample."""
        data = np.random.default_rng(3).random((9, 7, 5)).astype(np.float32)
        vol = resample(Volume.from_array(data, (1.0, 1.0, 2.0)), (0.9, 1.0, 2.5), Interp.TRILINEAR)
        assert vol.data.flags.f_contiguous
        for half in cut_halves(vol, (8, 9, 4), RowWindow(1, 6)):
            for z in range(half.shape[2]):
                assert half.data[:, :, z].flags.f_contiguous

    @pytest.mark.parametrize(
        "target, rows, error, message",
        [
            ((1, 4, 4), RowWindow(0, 2), WidthTooSmall, "cannot split width 1 < 2"),
            ((4, 4, 4), RowWindow(3, 2), ValueError, "window [3, 5) exceeds axis extent 4"),
            (
                (4, 0, 4),
                RowWindow(0, 1),
                ValueError,
                "target shape must be >= 1 per axis, got (4, 0, 4)",
            ),
            # the window is checked before the width
            ((1, 4, 4), RowWindow(3, 2), ValueError, "window [3, 5) exceeds axis extent 4"),
        ],
        ids=["width_1", "window_past_the_grid", "empty_target", "window_before_width"],
    )
    def test_refuses_what_the_composition_refuses(self, target, rows, error, message):
        """Each refusal's exact type and message."""
        vol = Volume.from_array(np.ones((3, 5, 2), np.float32))
        with pytest.raises(error) as refused:
            cut_halves(vol, target, rows)
        assert type(refused.value) is error
        assert str(refused.value) == message


def _affine(*diagonal: float, nan: bool = False) -> np.ndarray:
    affine = np.diag([*diagonal, 1.0])
    if nan:
        affine[0, 1] = np.nan
    return affine


_CUBE = np.ones((2, 2, 2), np.float32)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Volume(np.ones((2, 2)), (1, 1, 1), np.eye(4)), ValueError,
         "volume data must be 3D, got ndim=2"),
        (lambda: Volume(np.ones((2, 0, 2)), (1, 1, 1), np.eye(4)), ValueError,
         "all volume dims must be >= 1, got (2, 0, 2)"),
        (lambda: Volume(_CUBE, (1, 0, 1), np.eye(4)), ValueError,
         "spacing must be three positive numbers, got (1.0, 0.0, 1.0)"),
        (lambda: Volume(_CUBE, (1, 1, 1), np.eye(3)), ValueError, "affine must be 4x4, got (3, 3)"),
        (lambda: Volume(_CUBE, (1, 1, 1), _affine(1, 1, 1, nan=True)), NonInvertibleAffine,
         "affine contains non-finite entries"),
        (lambda: Volume(_CUBE, (1, 1, 1), _affine(1, 2, 0)), NonInvertibleAffine,
         "affine is singular"),
        (lambda: dominant_axes(_affine(1, 1, 1, nan=True)), NonInvertibleAffine,
         "affine contains non-finite entries"),
        (lambda: dominant_axes(_affine(1, 0, 1)), NonInvertibleAffine,
         "affine has a zero direction column"),
        (lambda: RowWindow(-1, 2), ValueError, "window start must be >= 0, got -1"),
        (lambda: RowWindow(0, 0), ValueError, "window length must be >= 1, got 0"),
        (lambda: localize_rows(Volume.from_array(_CUBE), 0), ValueError,
         "window must be >= 1, got 0"),
    ],
    ids=[
        "volume_ndim", "volume_empty_dim", "volume_spacing", "volume_affine_3x3",
        "volume_affine_nan", "volume_affine_singular", "axes_nan", "axes_zero_column",
        "window_start", "window_length", "localize_window",
    ],
)
def test_input_refusals(call, error, message):
    """Each input refusal's exact type and message."""
    with pytest.raises(error) as refused:
        call()
    assert type(refused.value) is error
    assert str(refused.value) == message
