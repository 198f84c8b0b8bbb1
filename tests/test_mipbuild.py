"""Stack construction tests.

The oracles: a scalar per-voxel loop for the mask lookup, a triple loop for
the z-projection, hand arithmetic for the normalization constants, and a
synthetic two-blob study with known lesion coordinates.
"""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mipclass import mipbuild
from mipclass.errors import (
    AlreadyNormalized,
    GridMismatch,
    MissingPre,
    NonBinaryMask,
    TooFewPhases,
    WidthTooSmall,
)
from mipclass.geometry import (
    Interp,
    RowWindow,
    crop_or_pad,
    cut_halves,
    localize_rows,
    reorient_canonical,
    resample,
)
from mipclass.mipbuild import (
    CHANNEL_NAMES,
    PAPER_MEANS,
    PAPER_STDS,
    SIDES,
    BuildConfig,
    MipStack,
    NormConstants,
    Study,
    build_stack,
    build_stacks,
    denormalize_stack,
    mip_z,
    normalize_stack,
    select_phases,
    stack_from_blob,
    stack_to_blob,
    subtract_clamped,
)
from mipclass.phantom import generate_study
from mipclass.pipeline_cli import PipelineConfig, RunDir, _preprocess_one, main
from mipclass.tensorio import read_blob, write_blob
from mipclass.volume import Volume


def _vol(data, spacing=(1.0, 1.0, 1.0)):
    return Volume.from_array(np.asarray(data, dtype=np.float32), spacing=spacing)


def _study(pre, posts, mask=None, patient="p0"):
    return Study(patient_id=patient, pre=pre, posts=tuple(posts), mask=mask)


SMALL_CFG = BuildConfig(spacing=(1.0, 1.0, 1.0), shape=(16, 16, 4), row_window=8)


class TestSelectPhases:
    def test_seven_posts_last_is_seventh(self):
        vols = [_vol(np.full((2, 2, 2), i)) for i in range(8)]
        pre, post1, post2, last = select_phases(_study(vols[0], vols[1:8]))
        assert pre is vols[0]
        assert post1 is vols[1]
        assert post2 is vols[2]
        assert last is vols[7]

    def test_two_posts_alias(self):
        vols = [_vol(np.full((2, 2, 2), i)) for i in range(3)]
        _, _, post2, last = select_phases(_study(vols[0], vols[1:3]))
        assert post2 is vols[2]
        assert last is vols[2]

    def test_one_post_rejected(self):
        vols = [_vol(np.zeros((2, 2, 2))) for _ in range(2)]
        with pytest.raises(TooFewPhases):
            select_phases(_study(vols[0], vols[1:2]))

    def test_missing_pre_rejected(self):
        vols = [_vol(np.zeros((2, 2, 2))) for _ in range(2)]
        with pytest.raises(MissingPre):
            select_phases(_study(None, vols))


def _nearest_keep(mask, target):
    """``mask >= 0.5`` at each voxel centre of `target`, read from the mask voxel
    nearest in world space, with indices clamped to the mask grid."""
    ijk = np.indices(target.shape).reshape(3, -1)
    world = target.affine @ np.vstack([ijk, np.ones(ijk.shape[1])])
    m = np.rint((np.linalg.inv(mask.affine) @ world)[:3]).astype(np.int64)
    m = np.clip(m, 0, np.array(mask.shape)[:, None] - 1)
    return (mask.data >= 0.5)[tuple(m)].reshape(target.shape)


def _random_study(seed, mask=None):
    """Random positive phases on SMALL_CFG's own grid, where resampling and
    crop/pad are identities; `mask` is an array on that grid or a Volume."""
    rng = np.random.default_rng(seed)
    phases = [_vol(rng.random((16, 16, 4)) + i) for i in range(4)]
    if mask is not None and not isinstance(mask, Volume):
        mask = _vol(mask)
    return _study(phases[0], phases[1:], mask=mask)


def _channels(study, cfg=SMALL_CFG):
    return np.stack([s.channels for s in build_stacks(study, cfg).values()])


class TestApplyMask:
    """The mask step of build_stacks: threshold, tolerance and lookup."""

    BINARY = (np.random.default_rng(5).random((16, 16, 4)) > 0.4).astype(np.float32)

    def test_all_ones_identity(self):
        np.testing.assert_array_equal(
            _channels(_random_study(0, np.ones((16, 16, 4)))), _channels(_random_study(0))
        )

    def test_all_zeros(self):
        out = _channels(_random_study(1, np.zeros((16, 16, 4))))
        np.testing.assert_array_equal(out, np.zeros_like(out))

    def test_nonbinary_rejected(self):
        for value in (2.0, -0.5):
            with pytest.raises(NonBinaryMask):
                build_stacks(_random_study(2, np.full((16, 16, 4), value)), SMALL_CFG)

    def test_nan_rejected(self):
        """NaN compares false with both range bounds, so the check must refuse it."""
        mask = self.BINARY.copy()
        mask[3, 5, 1] = np.nan
        with pytest.raises(NonBinaryMask, match="nan"):
            build_stacks(_random_study(2, mask), SMALL_CFG)

    def test_small_float_noise_tolerated(self):
        noisy = np.where(self.BINARY, 1.0 + 5e-7, -5e-7)
        np.testing.assert_array_equal(
            _channels(_random_study(3, noisy)), _channels(_random_study(3, self.BINARY))
        )

    def test_threshold_at_half(self):
        halves = np.where(self.BINARY, 0.5, 0.49)
        masked = _channels(_random_study(4, self.BINARY))
        np.testing.assert_array_equal(_channels(_random_study(4, halves)), masked)
        assert not np.array_equal(masked, _channels(_random_study(4)))

    def test_idempotent(self):
        """Phases already zero outside the mask build the same stacks (with every
        row in the window, since rows are localized before masking)."""
        cfg = BuildConfig(spacing=(1.0, 1.0, 1.0), shape=(16, 16, 4), row_window=16)
        study = _random_study(6, self.BINARY)
        zeroed = [_vol(np.where(self.BINARY, v.data, 0)) for v in (study.pre, *study.posts)]
        again = _study(zeroed[0], zeroed[1:], mask=study.mask)
        np.testing.assert_array_equal(_channels(again, cfg), _channels(study, cfg))

    def test_coarse_mask_matches_per_voxel_oracle(self):
        """A 2x coarser mask off the phase grid: after its nearest resample and
        cut, each half keeps what a scalar nearest lookup keeps."""
        rng = np.random.default_rng(3)
        affine = np.diag([2.0, 2.0, 2.0, 1.0])
        affine[:3, 3] = (0.6, -0.7, 0.4)
        coarse = (rng.integers(0, 3, (8, 8, 2)) / 2).astype(np.float32)  # 0, 0.5 or 1
        study = _random_study(7, Volume(coarse, (2.0, 2.0, 2.0), affine))
        stacks = build_stacks(study, SMALL_CFG)

        meta = stacks["left"].meta
        rows = RowWindow(meta["row_window_start"], meta["row_window_length"])
        fine = resample(study.mask, SMALL_CFG.spacing, Interp.NEAREST)
        masks = cut_halves(fine, fine.shape, rows)
        posts = cut_halves(study.posts[0], study.posts[0].shape, rows)
        for side, mask, post in zip(SIDES, masks, posts):
            inv = np.linalg.inv(mask.affine)
            kept = np.zeros(post.shape, dtype=bool)
            for i, j, k in np.ndindex(post.shape):
                m = inv @ (post.affine @ np.array([i, j, k, 1.0]))
                mi = [int(np.clip(np.rint(m[a]), 0, mask.shape[a] - 1)) for a in range(3)]
                kept[i, j, k] = mask.data[tuple(mi)] >= 0.5
            assert 0 < kept.sum() < kept.size
            np.testing.assert_array_equal(kept, _nearest_keep(mask, post))
            expected = np.where(kept, post.data, 0).max(axis=2)
            np.testing.assert_array_equal(stacks[side].channels[0], expected)


class TestSubtract:
    def test_equal_phases_zero(self):
        vol = _vol(np.random.default_rng(4).random((3, 3, 3)))
        np.testing.assert_array_equal(
            subtract_clamped(vol, vol).data, np.zeros((3, 3, 3), np.float32)
        )

    def test_constant_offset(self):
        pre = _vol(np.random.default_rng(5).random((3, 3, 3)))
        post = Volume(pre.data + 5.0, pre.spacing, pre.affine)
        np.testing.assert_array_equal(
            subtract_clamped(post, pre).data, np.full((3, 3, 3), 5.0, np.float32)
        )

    def test_negative_clamped_elementwise(self):
        pre = _vol(np.array([[[1.0, 5.0]]]))
        post = _vol(np.array([[[3.0, 2.0]]]))
        out = subtract_clamped(post, pre)
        np.testing.assert_array_equal(out.data, [[[2.0, 0.0]]])
        assert out.data.min() >= 0.0

    def test_grid_mismatch(self):
        with pytest.raises(GridMismatch):
            subtract_clamped(_vol(np.zeros((2, 2, 2))), _vol(np.zeros((2, 2, 3))))
        with pytest.raises(GridMismatch):
            subtract_clamped(
                _vol(np.zeros((2, 2, 2)), spacing=(1, 1, 1)),
                _vol(np.zeros((2, 2, 2)), spacing=(2, 1, 1)),
            )


class TestMip:
    def test_single_slice(self):
        data = np.random.default_rng(6).random((4, 5, 1)).astype(np.float32)
        np.testing.assert_array_equal(mip_z(_vol(data)), data[:, :, 0])

    def test_constant(self):
        np.testing.assert_array_equal(
            mip_z(_vol(np.full((3, 4, 5), 2.5))), np.full((3, 4), 2.5, np.float32)
        )

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(7)
        data = rng.random((8, 8, 4)).astype(np.float32)
        out = mip_z(_vol(data))
        for x in range(8):
            for y in range(8):
                best = data[x, y, 0]
                for z in range(1, 4):
                    best = max(best, data[x, y, z])
                assert out[x, y] == best

    @pytest.mark.parametrize("depth", [17, 33, 65])
    def test_signed_zero_sign_independent_of_layout(self, depth):
        """Columns of +0.0, -0.0 and -1.0 fold plane by plane, so C- and F-ordered
        copies give the same sign of every zero maximum."""
        rng = np.random.default_rng(depth)
        data = rng.choice(np.array([0.0, -0.0, -1.0], np.float32), size=(256, 16, depth))
        c_order = mip_z(_vol(np.ascontiguousarray(data)))
        f_order = mip_z(_vol(np.asfortranarray(data)))
        assert c_order.view(np.uint32).tobytes() == f_order.view(np.uint32).tobytes()

    def test_dominates_every_slice(self):
        rng = np.random.default_rng(8)
        data = rng.random((6, 7, 5)).astype(np.float32)
        out = mip_z(_vol(data))
        for z in range(5):
            assert (out >= data[:, :, z]).all()


def _phantom_study(with_mask=True, uptake=True):
    """16^3 study: lesion blob in the high-x (left) half, rows 4..8.

    Returns the study plus the blob's x/y footprint for assertions.
    """
    shape = (16, 16, 4)
    base = np.full(shape, 10.0, dtype=np.float32)
    blob = np.zeros(shape, dtype=np.float32)
    blob[11:14, 4:8, 1:3] = 100.0
    pre = base.copy()
    gain = 1.0 if uptake else 0.0
    posts = [base + blob * (0.5 + 0.5 * i) * gain for i in range(3)]
    mask = np.zeros(shape, dtype=np.float32)
    mask[2:15, 2:14, :] = 1.0
    return _study(
        _vol(pre),
        [_vol(p) for p in posts],
        mask=_vol(mask) if with_mask else None,
    )


class TestBuildStack:
    def test_blob_lands_on_left_side_only(self):
        study = _phantom_study()
        left = build_stack(study, "left", SMALL_CFG)
        right = build_stack(study, "right", SMALL_CFG)
        assert left.channels.shape == (4, 8, 8)
        # lesion uptake dominates the left sub1 channel, absent on the right
        assert left.channels[1].max() > 40.0
        assert right.channels[1].max() == 0.0

    def test_no_mask_equals_all_ones_mask(self):
        bare = _phantom_study(with_mask=False)
        ones = Study(
            patient_id=bare.patient_id,
            pre=bare.pre,
            posts=bare.posts,
            mask=_vol(np.ones((16, 16, 4))),
        )
        for side in ("left", "right"):
            a = build_stack(bare, side, SMALL_CFG)
            b = build_stack(ones, side, SMALL_CFG)
            np.testing.assert_array_equal(a.channels, b.channels)

    def test_zero_uptake_sub_channels_zero(self):
        study = _phantom_study(uptake=False)
        stack = build_stack(study, "left", SMALL_CFG)
        np.testing.assert_array_equal(stack.channels[1], np.zeros((8, 8), np.float32))
        np.testing.assert_array_equal(stack.channels[3], np.zeros((8, 8), np.float32))
        assert stack.channels[0].max() > 0.0

    def test_two_posts_aliases_channels_2_and_3(self):
        study = _phantom_study()
        study = Study(
            patient_id=study.patient_id, pre=study.pre, posts=study.posts[:2], mask=study.mask
        )
        stack = build_stack(study, "left", SMALL_CFG)
        np.testing.assert_array_equal(stack.channels[2], stack.channels[3])

    def test_partition_conservation(self):
        """Left + right channel sums equal the unsplit sums (even width)."""
        study = _phantom_study()
        cfg = SMALL_CFG
        left = build_stack(study, "left", cfg)
        right = build_stack(study, "right", cfg)

        def standardize(v, interp):
            return crop_or_pad(resample(reorient_canonical(v), cfg.spacing, interp), cfg.shape)

        phases = [study.pre, *study.posts]
        std = [standardize(v, Interp.TRILINEAR) for v in phases]
        rows = localize_rows(std[1], cfg.row_window)
        window = slice(rows.start, rows.stop)  # only sums are compared: affines stay
        keep = standardize(study.mask, Interp.NEAREST).data[:, window] >= 0.5
        trimmed = [Volume(v.data[:, window], v.spacing, v.affine) for v in std]
        unsplit = _masked_mips(*trimmed, keep)
        for c in range(4):
            split_sum = left.channels[c].sum(dtype=np.float64) + right.channels[c].sum(
                dtype=np.float64
            )
            np.testing.assert_allclose(split_sum, unsplit[c].sum(dtype=np.float64), rtol=1e-12)

    def test_window_metadata_recorded(self):
        stack = build_stack(_phantom_study(), "left", SMALL_CFG)
        assert stack.meta["row_window_length"] == 8
        assert stack.meta["channel_order"] == list(CHANNEL_NAMES)
        assert stack.meta["masked"] is True

    def test_bad_side_rejected(self, monkeypatch):
        """The side is checked before any volume is resampled."""
        calls = _count_resample(monkeypatch)
        with pytest.raises(ValueError):
            build_stack(_phantom_study(), "up", SMALL_CFG)
        assert calls == []


def _masked_mips(pre, post1, post2, last, keep=None):
    """The four channels step by step: each phase masked with ``where(keep, v, 0)``,
    then mip_z of post1 and of subtract_clamped for each post, stacked."""
    vols = [pre, post1, post2, last]
    if keep is not None:
        vols = [Volume(np.where(keep, v.data, 0), v.spacing, v.affine) for v in vols]
    pre, post1, post2, last = vols
    return np.stack(
        [
            mip_z(post1),
            mip_z(subtract_clamped(post1, pre)),
            mip_z(subtract_clamped(post2, pre)),
            mip_z(subtract_clamped(last, pre)),
        ]
    )


def _reference_stack(study, side, cfg):
    """One side built the per-side way: every phase and the mask standardized
    for this side alone, then cut, masked, subtracted and projected."""

    def standardize(v, interp):
        return crop_or_pad(resample(reorient_canonical(v), cfg.spacing, interp), cfg.shape)

    def half(v):
        return cut_halves(v, v.shape, rows)[SIDES.index(side)]

    pre, post1, post2, last = [standardize(v, Interp.TRILINEAR) for v in select_phases(study)]
    rows = localize_rows(post1, cfg.row_window)
    vols = [half(v) for v in (pre, post1, post2, last)]
    keep = None
    if study.mask is not None:
        keep = _nearest_keep(half(standardize(study.mask, Interp.NEAREST)), vols[1])
    channels = _masked_mips(*vols, keep)
    meta = {
        "channel_order": list(CHANNEL_NAMES),
        "row_window_start": rows.start,
        "row_window_length": rows.length,
        "laterality_convention": "low-x-is-right",
        "masked": study.mask is not None,
        "n_posts": len(study.posts),
    }
    return channels, meta


def _count_resample(monkeypatch):
    calls = []

    def counting(volume, target, interp, *, box=None):
        calls.append(interp)
        return resample(volume, target, interp, box=box)

    monkeypatch.setattr(mipbuild, "resample", counting)
    return calls


def _without(study, mask=True, n_posts=None):
    return Study(
        patient_id=study.patient_id,
        pre=study.pre,
        posts=study.posts[:n_posts],
        mask=study.mask if mask else None,
    )


def _generated():
    return generate_study("g", index=4, cohort_seed=7)


def _permuted(study):
    """The same study stored y-x-z with z descending: reorientation is not a no-op."""

    def permute(v):
        affine = v.affine[:, [1, 0, 2, 3]].copy()
        affine[:3, 3] += affine[:3, 2] * (v.shape[2] - 1)
        affine[:3, 2] *= -1
        data = np.ascontiguousarray(v.data.transpose(1, 0, 2)[:, :, ::-1])
        return Volume(data, (v.spacing[1], v.spacing[0], v.spacing[2]), affine)

    return Study(
        patient_id=study.patient_id,
        pre=permute(study.pre),
        posts=tuple(permute(v) for v in study.posts),
        mask=permute(study.mask),
    )


# resampled, cropped in x and z and padded in y, so the row search runs over padded rows
PHANTOM_CFG = BuildConfig(spacing=(0.7, 0.7, 3.0), shape=(120, 140, 28), row_window=48)

# 128x128x32 after resampling: odd differences (crop 7 in x, pad 13 in y, pad 3 in z),
# an odd width and an odd row window
ODD_CFG = BuildConfig(spacing=(0.7, 0.7, 3.0), shape=(121, 141, 35), row_window=47)


def _coarse_shifted_mask(study):
    """The same study with its mask stored at half the in-plane resolution and
    shifted off the phase grid, so no mask voxel centre lies on a phase voxel centre."""
    mask = study.mask
    affine = mask.affine.copy()
    affine[:3, :2] *= 2.0
    affine[:3, 3] += (0.9, -1.3, 1.7)
    spacing = (2 * mask.spacing[0], 2 * mask.spacing[1], mask.spacing[2])
    coarse = Volume(np.ascontiguousarray(mask.data[::2, ::2]), spacing, affine)
    return Study(patient_id=study.patient_id, pre=study.pre, posts=study.posts, mask=coarse)


def _oblique_mask(study):
    """The same study with its mask turned 0.12 rad about world z through its
    centre and moved by a fraction of a voxel, so no mask axis lies on a phase axis."""
    mask = study.mask
    c, s = np.cos(0.12), np.sin(0.12)
    rotation = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    affine = mask.affine.copy()
    centre = affine[:3, :3] @ (np.subtract(mask.shape, 1) / 2) + affine[:3, 3]
    affine[:3, :3] = rotation @ affine[:3, :3]
    affine[:3, 3] = rotation @ (affine[:3, 3] - centre) + centre + (0.3, -0.2, 0.4)
    return replace(study, mask=Volume(mask.data, mask.spacing, affine))


# name: (study factory, what to drop from it, config)
BUILD_CASES = {
    "masked": (_phantom_study, {}, SMALL_CFG),
    "unmasked": (_phantom_study, {"mask": False}, SMALL_CFG),
    "two_posts": (_phantom_study, {"n_posts": 2}, SMALL_CFG),
    "phantom": (_generated, {}, PHANTOM_CFG),
    "phantom_unmasked": (_generated, {"mask": False}, PHANTOM_CFG),
    "phantom_two_posts": (_generated, {"n_posts": 2}, PHANTOM_CFG),
    "phantom_permuted": (lambda: _permuted(_generated()), {}, PHANTOM_CFG),
    "phantom_odd": (_generated, {}, ODD_CFG),
    "phantom_coarse_mask": (lambda: _coarse_shifted_mask(_generated()), {}, PHANTOM_CFG),
    "phantom_oblique_mask": (lambda: _oblique_mask(_generated()), {}, PHANTOM_CFG),
}


class TestBuildStacks:
    @pytest.mark.parametrize("case", list(BUILD_CASES))
    def test_both_sides_match_per_side_reference(self, case):
        make_study, drop, cfg = BUILD_CASES[case]
        study = _without(make_study(), **drop)
        stacks = build_stacks(study, cfg)
        assert list(stacks) == list(SIDES)
        for side, stack in stacks.items():
            channels, meta = _reference_stack(study, side, cfg)
            assert stack.channels.dtype == np.float32
            assert stack.channels.shape == channels.shape
            assert stack.channels.tobytes() == channels.tobytes()
            assert stack.meta == meta
            assert (stack.side, stack.patient_id) == (side, study.patient_id)
            assert not stack.normalized and stack.norm_bounds is None

    def test_coarse_mask_is_resampled_once_on_a_box(self, monkeypatch):
        """A mask off the phase grid is resampled once, on only the voxels its lookup reads."""
        calls = []

        def counting(volume, target, interp, *, box=None):
            out = resample(volume, target, interp, box=box)
            calls.append((interp, out.shape))
            return out

        monkeypatch.setattr(mipbuild, "resample", counting)
        build_stacks(_coarse_shifted_mask(_generated()), PHANTOM_CFG)
        (shape,) = [shape for interp, shape in calls if interp is Interp.NEAREST]
        assert np.prod(shape) < 128 * 128 * 32  # the mask's whole resampled grid

    @pytest.mark.parametrize(
        "drop", [{}, {"mask": False}, {"n_posts": 2}], ids=["masked", "unmasked", "two_posts"]
    )
    def test_only_post1_is_cropped_or_padded(self, monkeypatch, drop):
        """Every other phase and the mask are cut straight from their resampled grids,
        and post1 is never padded in x or z: on a grid larger than its 128x128x32
        on every axis, only its height is padded to the grid's."""
        calls = []

        def counting(volume, target_shape):
            calls.append(target_shape)
            return crop_or_pad(volume, target_shape)

        monkeypatch.setattr(mipbuild, "crop_or_pad", counting)
        cfg = BuildConfig(spacing=(0.7, 0.7, 3.0), shape=(141, 140, 35), row_window=48)
        build_stacks(_without(_generated(), **drop), cfg)
        assert calls == [(128, 140, 32)]

    def test_sides_do_not_share_metadata(self):
        stacks = build_stacks(_phantom_study(), SMALL_CFG)
        stacks["right"].meta["note"] = 1
        assert "note" not in stacks["left"].meta

    @pytest.mark.parametrize(
        "mask, n_posts, expected",
        [(True, None, 5), (False, 2, 3)],
        ids=["three_posts_and_mask", "two_posts_no_mask"],
    )
    def test_each_volume_resampled_once_per_study(
        self, monkeypatch, tmp_path, mask, n_posts, expected
    ):
        study = _without(_phantom_study(), mask=mask, n_posts=n_posts)

        class OneStudy:
            def load_study(self, patient_id):
                return study

        (tmp_path / "stacks").mkdir()
        calls = _count_resample(monkeypatch)
        _preprocess_one(OneStudy(), "p0", PipelineConfig(build=SMALL_CFG), RunDir(tmp_path))
        assert len(calls) == expected
        assert calls.count(Interp.NEAREST) == int(mask)
        assert sorted(p.name for p in (tmp_path / "stacks").iterdir()) == [
            "p0_left.mct",
            "p0_right.mct",
        ]


# voxel values that probe the byte contract: signed zeros and ties (an unnormalized
# stack is nonnegative, so post1 is; post − pre still goes negative)
_EDGE_VALUES = np.array([-0.0, 0.0, 0.5, 1.0], dtype=np.float32)


class TestSideChannels:
    """Each side's one pass over its halves against the step-by-step channels, bit for bit."""

    @settings(max_examples=200)
    @given(data=st.data())
    def test_matches_masked_mips_bitwise(self, data):
        """Studies on the config's own grid, so the channels are built from the
        split halves of the drawn arrays: odd widths, depths past one SIMD
        register of float32, C- or F-ordered phases, signed zeros, posts equal
        to pre, no mask or an empty, full or random one.  A NaN inside the mask
        must make both paths refuse the stack; one outside it is zeroed."""
        shape = tuple(
            data.draw(st.integers(lo, hi), label=f"n{i}")
            for i, (lo, hi) in enumerate(((2, 9), (1, 5), (1, 40)))
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        p_nan = data.draw(st.sampled_from([0.0, 0.01]), label="p_nan")
        p_edge = data.draw(st.sampled_from([0.0, 0.5, 1.0]), label="p_edge")
        order = data.draw(st.sampled_from("CF"), label="order")

        def phase():
            edge = rng.choice(_EDGE_VALUES, size=shape)
            edge[rng.random(shape) < p_nan] = np.nan
            values = rng.uniform(0.0, 2.0, size=shape).astype(np.float32)
            return np.asarray(np.where(rng.random(shape) < p_edge, edge, values), order=order)

        pre = phase()
        posts = [
            pre.copy(order=order) if data.draw(st.booleans(), label=f"equal{i}") else phase()
            for i in range(3)
        ]
        mask = data.draw(st.sampled_from([None, "zeros", "ones", "random"]), label="mask")
        if mask is not None:
            mask = {"zeros": np.zeros(shape), "ones": np.ones(shape)}.get(
                mask, rng.random(shape) < rng.random()
            )
            mask = _vol(mask)
        study = _study(_vol(pre), [_vol(p) for p in posts], mask)
        cfg = BuildConfig(spacing=(1.0, 1.0, 1.0), shape=shape, row_window=shape[1])

        expected = {side: _reference_stack(study, side, cfg)[0] for side in SIDES}
        if all(np.isfinite(channels).all() for channels in expected.values()):
            for side, stack in build_stacks(study, cfg).items():
                assert stack.channels.view(np.uint32).tobytes() == (
                    expected[side].view(np.uint32).tobytes()
                )
            return
        inside = np.ones(shape, bool) if mask is None else mask.data >= 0.5
        assert any(np.isnan(v[inside]).any() for v in (pre, *posts))
        with pytest.raises(ValueError, match="finite"):
            build_stacks(study, cfg)
        for channels in expected.values():
            if not np.isfinite(channels).all():
                with pytest.raises(ValueError, match="finite"):
                    MipStack(channels, "left", "p0")

    @pytest.mark.parametrize("masked", [True, False], ids=["masked", "unmasked"])
    @pytest.mark.parametrize("depth", [1, 16, 17, 32, 33])
    def test_kernel_bytes_do_not_depend_on_layout(self, depth, masked):
        """C- and F-ordered phases give the step-by-step channels of z-slowest
        copies: numpy's max along a contiguous axis is a SIMD tree whose pick
        between -0.0 and +0.0 depends on the depth and the CPU, while along the
        slowest axis it is the kernel's own plane-by-plane fold."""
        rng = np.random.default_rng(depth)
        shape = (5, 3, depth)
        phases = [rng.choice(_EDGE_VALUES, size=shape) for _ in range(4)]
        keep = rng.random(shape) < 0.7 if masked else None
        expected = _masked_mips(*(_vol(np.asfortranarray(v)) for v in phases), keep)
        for order in "CF":
            got = mipbuild._side_channels(*(np.asarray(v, order=order) for v in phases), keep)
            assert got.flags.c_contiguous
            assert got.view(np.uint32).tobytes() == expected.view(np.uint32).tobytes()

    @pytest.mark.parametrize("masked", [True, False], ids=["masked", "unmasked"])
    def test_pre_off_the_post_grid_is_refused(self, masked):
        """A pre shifted by one voxel in its affine cannot be subtracted from the posts."""
        study = _without(_generated(), mask=not masked)
        pre = study.pre
        affine = pre.affine.copy()
        affine[:3, 3] += affine[:3, 0]
        shifted = replace(study, pre=Volume(pre.data, pre.spacing, affine))
        with pytest.raises(GridMismatch, match="^subtraction needs matching grids: "):
            build_stacks(shifted, PHANTOM_CFG)


def _regrid_mask_nearest(mask: Volume, target: Volume) -> np.ndarray:
    """Binary mask sampled at target voxel centers by nearest neighbor.

    Composes target-index -> world -> mask-index and rounds; indices are
    clamped to the mask grid (same edge convention as resampling).
    """
    to_mask = np.linalg.inv(mask.affine) @ target.affine
    rot, shift = to_mask[:3, :3], to_mask[:3, 3]
    x, y, z = np.indices(target.shape, sparse=True)
    binary = mask.data >= 0.5
    idx = []
    for i in range(3):
        pos = rot[i, 0] * x + rot[i, 1] * y + rot[i, 2] * z + shift[i]
        idx.append(np.clip(np.rint(pos).astype(np.int64), 0, mask.shape[i] - 1))
    return binary[tuple(idx)]


def _whole_halves_stacks(study, cfg):
    """build_stacks as it was before data boxes: every phase and the mask cut
    into whole halves (cut_halves), the channels made from those halves."""
    phases = select_phases(study)

    def resampled(vol, interp=Interp.TRILINEAR):
        return resample(reorient_canonical(vol), cfg.spacing, interp)

    post1 = resampled(phases[1])
    rows = localize_rows(crop_or_pad(post1, cfg.shape), cfg.row_window)
    halves = {id(phases[1]): cut_halves(post1, cfg.shape, rows)}
    mask_halves = None
    if study.mask is not None:
        lo, hi = float(study.mask.data.min()), float(study.mask.data.max())
        if lo < -1e-6 or hi > 1.0 + 1e-6:
            raise NonBinaryMask(f"mask values span [{lo}, {hi}], outside [0, 1]")
        mask_halves = cut_halves(resampled(study.mask, Interp.NEAREST), cfg.shape, rows)
    for vol in phases:
        if id(vol) not in halves:
            halves[id(vol)] = cut_halves(resampled(vol), cfg.shape, rows)
    stacks = {}
    for i, side in enumerate(SIDES):
        vols = [halves[id(v)][i] for v in phases]
        keep = None
        if mask_halves is not None:
            mask = mask_halves[i]
            if mipbuild._same_grid(vols[1], mask):
                keep = mask.data >= 0.5
            else:
                keep = _regrid_mask_nearest(mask, vols[1])
        for post in vols[1:]:
            mipbuild._check_subtraction_grid(post, vols[0])
        channels = mipbuild._side_channels(*(v.data for v in vols), keep)
        stacks[side] = MipStack(channels, side, study.patient_id)
    return stacks


def _outcome(build, study, cfg):
    """Each side's channels as uint32 bytes, or the type of the error raised."""
    try:
        stacks = build(study, cfg)
        return {side: s.channels.view(np.uint32).tobytes() for side, s in stacks.items()}
    except (WidthTooSmall, GridMismatch, NonBinaryMask, ValueError) as exc:
        return type(exc)


class TestDataBox:
    """build_stacks against whole halves: the same bytes and the same refusals."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_matches_whole_halves(self, data):
        """Phases of several shapes (aligned when their offsets allow), cropped or
        padded on each axis, z included; a mask on the post1 grid, on another grid,
        non-binary or absent; two or three posts; signed zeros; data on one side."""
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="values"))
        base = tuple(data.draw(st.integers(1, 8), label=f"n{i}") for i in range(3))
        spacing = data.draw(st.sampled_from([(1.0, 1.0, 1.0), (2.0, 1.0, 1.0), (1.0, 0.5, 2.0)]))

        def volume(grow=(0, 0, 0), values=None):
            """`grow` more voxels on each end of each axis, so the grid stays aligned."""
            shape = tuple(n + 2 * g for n, g in zip(base, grow))
            affine = np.diag((*spacing, 1.0))
            affine[:3, 3] = [-g * s for g, s in zip(grow, spacing)]
            if values is None:
                values = rng.uniform(0.0, 2.0, shape)
                values[rng.random(shape) < 0.3] = rng.choice([-0.0, 0.0, 1.0])
            return Volume(np.asarray(values, np.float32), spacing, affine)

        def grow(label):
            if not data.draw(st.booleans(), label=label):
                return (0, 0, 0)
            return tuple(data.draw(st.integers(0, 2), label=f"{label}{i}") for i in range(3))

        pre, *posts = [volume(grow(f"grow{i}")) for i in range(data.draw(st.integers(3, 4)))]
        mask_kind = data.draw(st.sampled_from([None, "same", "other", "non_binary"]), label="mask")
        mask = None
        if mask_kind is not None:
            mask_grow = grow("mask_grow") if mask_kind == "other" else (0, 0, 0)
            shape = tuple(n + 2 * g for n, g in zip(base, mask_grow))
            values = (rng.random(shape) < 0.6).astype(np.float32)
            if mask_kind == "non_binary":
                values.flat[0] = 1.5
            mask = volume(mask_grow, values)
            if mask_kind == "other":  # off the phase grid by a fraction of a voxel
                affine = mask.affine.copy()
                affine[:3, 3] += [data.draw(st.floats(-0.9, 0.9), label=f"o{i}") for i in range(3)]
                mask = Volume(mask.data, mask.spacing, affine)
        study = _study(pre, posts, mask)
        target = (
            data.draw(st.sampled_from([*range(2, 17), 1]), label="t0"),  # 1 is WidthTooSmall
            *(data.draw(st.integers(1, 12), label=f"t{i}") for i in (1, 2)),
        )
        cfg = BuildConfig(
            spacing=(1.0, 1.0, 1.0),
            shape=target,
            row_window=data.draw(st.integers(1, target[1]), label="row_window"),
        )
        assert _outcome(build_stacks, study, cfg) == _outcome(_whole_halves_stacks, study, cfg)

    @pytest.mark.parametrize("side", SIDES)
    def test_one_empty_half(self, side):
        """One-voxel-wide phases centred into an even or odd width land in one half."""
        study = _random_study(0)
        narrow = [Volume(v.data[:1], v.spacing, v.affine) for v in (study.pre, *study.posts)]
        study = _study(narrow[0], narrow[1:])
        width = 16 if side == "right" else 17
        cfg = BuildConfig(spacing=(1.0, 1.0, 1.0), shape=(width, 16, 4), row_window=8)
        stacks = build_stacks(study, cfg)
        assert _outcome(build_stacks, study, cfg) == _outcome(_whole_halves_stacks, study, cfg)
        other = SIDES[1 - SIDES.index(side)]
        assert stacks[side].channels.any() and not stacks[other].channels.any()


class TestNormalize:
    def test_hand_value(self):
        """Channel 0 spanning [0, 2]: a voxel at 1 -> (0.5 - 0.2074)/0.2110."""
        channels = np.zeros((4, 2, 2), np.float32)
        channels[0, 0, 0] = 2.0
        channels[0, 0, 1] = 1.0
        stack = MipStack(channels, side="left", patient_id="p0")
        out = normalize_stack(stack)
        expected = (0.5 - 0.2074) / 0.2110
        np.testing.assert_allclose(out.channels[0, 0, 1], expected, atol=1e-6)

    def test_constant_channel_maps_to_minus_mean_over_std(self):
        channels = np.full((4, 3, 3), 7.0, np.float32)
        out = normalize_stack(MipStack(channels, side="right", patient_id="p0"))
        for c in range(4):
            expected = (0.0 - PAPER_MEANS[c]) / PAPER_STDS[c]
            np.testing.assert_allclose(out.channels[c], expected, rtol=1e-6)

    def test_double_normalize_rejected(self):
        stack = MipStack(np.zeros((4, 2, 2), np.float32), side="left", patient_id="p")
        out = normalize_stack(stack)
        with pytest.raises(AlreadyNormalized):
            normalize_stack(out)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("normalized", [False, True])
    def test_non_finite_channels_rejected(self, value, normalized):
        channels = np.zeros((4, 2, 2), np.float32)
        channels[2, 1, 0] = value
        with pytest.raises(ValueError, match="finite"):
            MipStack(channels, side="left", patient_id="p", normalized=normalized)

    def test_roundtrip_within_1e5_relative(self):
        rng = np.random.default_rng(9)
        channels = (rng.random((4, 6, 6)) * 300).astype(np.float32)
        stack = MipStack(channels, side="left", patient_id="p0")
        back = denormalize_stack(normalize_stack(stack))
        np.testing.assert_allclose(back.channels, channels, rtol=1e-5, atol=1e-4)
        assert back.normalized is False

    def test_roundtrip_uses_the_recorded_constants(self):
        """Without constants it once inverted with the paper's, whatever the stack
        recorded: off by up to 2.36 here.  Other constants than the recorded are refused."""
        channels = (np.random.default_rng(11).random((4, 6, 6)) * 3).astype(np.float32)
        constants = NormConstants(means=(0.5,) * 4, stds=(2.0,) * 4)
        normalized = normalize_stack(MipStack(channels, side="left", patient_id="p0"), constants)
        for back in (denormalize_stack(normalized), denormalize_stack(normalized, constants)):
            np.testing.assert_allclose(back.channels, channels, rtol=1e-5, atol=1e-6)
        with pytest.raises(ValueError, match=r"^the stack was normalized with NormConstants\(means=\(0\.5,"):
            denormalize_stack(normalized, NormConstants())

    @pytest.mark.parametrize("index", range(6))
    def test_roundtrip_gives_back_built_channels(self, index):
        """Zeros come back exact; other values within 1e-5 relative, or within
        1e-6 of the channel's range, the float32 resolution of a normalized value."""
        study = generate_study(f"p{index:03d}", index, cohort_seed=0)
        for built in build_stacks(study, PHANTOM_CFG).values():
            back = denormalize_stack(normalize_stack(built)).channels
            for c in range(4):
                want = built.channels[c]
                assert (back[c][want == 0] == 0).all()
                np.testing.assert_allclose(back[c], want, rtol=1e-5, atol=1e-6 * float(want.max()))

    def test_every_preprocessed_stack_denormalizes(self, tmp_path):
        """Undoing float32 normalization once took a channel minimum of 0 below 0."""
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"spacing": [2.8, 2.8, 12.0], "shape": [32, 32, 8],
                                      "row_window": 16}))
        run = str(tmp_path / "run")
        assert main(["phantom", "--n", "6", "--out", run]) == 0
        manifest = str(tmp_path / "run" / "manifest.csv")
        assert main(["preprocess", "--manifest", manifest, "--config", str(config),
                     "--out", run]) == 0
        paths = sorted((tmp_path / "run" / "stacks").glob("*.mct"))
        assert len(paths) == 12
        for path in paths:
            stack = stack_from_blob(read_blob(path))
            back = denormalize_stack(stack)
            for c, (lo, hi) in enumerate(stack.norm_bounds):
                assert lo <= back.channels[c].min() and back.channels[c].max() <= hi

    def test_custom_constants_validated(self):
        # library callers see the field name, and "> 0" as a half-open range
        with pytest.raises(ValueError, match=r"^stds\[0\] must be in \(0, inf\], got 0\.0$"):
            NormConstants(stds=(0.0, 1.0, 1.0, 1.0))
        with pytest.raises(ValueError):
            NormConstants(means=(0.0, 0.0, 0.0))

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("field", ["means", "stds"])
    def test_non_finite_constants_rejected(self, field, value):
        """An infinite std used to map a whole channel to zeros."""
        with pytest.raises(ValueError, match="finite"):
            NormConstants(**{field: (value, 1.0, 1.0, 1.0)})

    def test_paper_constants_are_default(self):
        nc = NormConstants()
        assert nc.means == (0.2074, 0.1290, 0.1396, 0.1470)
        assert nc.stds == (0.2110, 0.1629, 0.1620, 0.1626)


class TestBuildConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"spacing": (1.0, 1.0)},
            {"spacing": (1.0, 0.0, 1.0)},
            {"spacing": (1.0, float("nan"), 1.0)},
            {"shape": (16, 16)},
            {"shape": (16, -1, 4)},
            {"shape": (16.0, 16, 4)},
            {"spacing": (float("inf"), 1.0, 1.0)},
        ],
    )
    def test_spacing_and_shape_are_three_positive_values(self, kwargs):
        with pytest.raises(ValueError):
            BuildConfig(**kwargs)

    @pytest.mark.parametrize("window", ["x", 0, -5, True, 2.5, None])
    def test_row_window_is_a_positive_integer(self, window):
        with pytest.raises(ValueError, match="row_window"):
            BuildConfig(row_window=window)

    def test_numpy_integer_row_window_accepted(self):
        assert BuildConfig(row_window=np.int64(8)).row_window == 8


class TestStackBlobs:
    def test_roundtrip_through_file(self, tmp_path):
        study = _phantom_study()
        stack = normalize_stack(build_stack(study, "left", SMALL_CFG))
        path = tmp_path / "p0_left.mct"
        write_blob(stack_to_blob(stack), path)
        back = stack_from_blob(read_blob(path))
        assert back.patient_id == "p0"
        assert back.side == "left"
        assert back.normalized is True
        assert back.norm_bounds == stack.norm_bounds
        np.testing.assert_array_equal(back.channels, stack.channels)
        assert back.meta["laterality_convention"] == "low-x-is-right"

    @pytest.mark.parametrize("flag", ["no", 1, 0, None, [True]])
    def test_normalized_must_be_a_json_bool(self, flag):
        """bool("no") is True: a string once loaded as a normalized stack."""
        blob = stack_to_blob(normalize_stack(build_stack(_phantom_study(), "left", SMALL_CFG)))
        blob.meta["normalized"] = flag
        with pytest.raises(ValueError, match=r"^normalized must be true or false, got "):
            stack_from_blob(blob)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("norm_bounds", [["0", True]] * 4),
            ("norm_bounds", [[0.0, 1.0]] * 3),
            ("norm_bounds", [[0.0, 1.0, 2.0]] * 4),
            ("norm_bounds", [[2.0, 1.0]] * 4),
            ("norm_bounds", [[0.0, 10**400]] * 4),
            ("norm_means", "x"),
            ("norm_means", [0.1, 0.1, 0.1]),
            ("norm_stds", [0.0, 1.0, 1.0, 1.0]),
            ("norm_stds", [True, 1.0, 1.0, 1.0]),
        ],
    )
    def test_normalization_metadata_is_checked(self, key, value):
        blob = stack_to_blob(normalize_stack(build_stack(_phantom_study(), "left", SMALL_CFG)))
        blob.meta[key] = value
        with pytest.raises(ValueError, match=f"^{key}"):
            stack_from_blob(blob)

    def test_sidecar_carries_audit_fields(self, tmp_path):
        """The audit fields travel inside the one .mct file; no .json is written."""
        stack = normalize_stack(build_stack(_phantom_study(), "right", SMALL_CFG))
        path = tmp_path / "p0_right.mct"
        write_blob(stack_to_blob(stack), path)
        meta = read_blob(path).meta
        for key in ("channel_order", "norm_bounds", "row_window_start", "norm_means"):
            assert key in meta
        assert [p.name for p in tmp_path.iterdir()] == ["p0_right.mct"]


_CHANNELS = np.ones((4, 2, 2), np.float32)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: MipStack(np.ones((3, 2, 2)), "left", "p0"),
         "stack must be (4, W, H), got (3, 2, 2)"),
        (lambda: MipStack(np.ones((4, 2, 0)), "left", "p0"),
         "stack spatial dims must be >= 1, got (4, 2, 0)"),
        (lambda: denormalize_stack(MipStack(_CHANNELS, "left", "p0")),
         "p0/left: stack is not normalized"),
        (lambda: denormalize_stack(MipStack(_CHANNELS, "left", "p0", normalized=True)),
         "cannot invert: per-channel min/max were not recorded"),
    ],
    ids=["stack_three_channels", "stack_empty_dim", "denormalize_raw", "denormalize_no_bounds"],
)
def test_input_refusals(call, message):
    """Each input refusal's exact type and message."""
    with pytest.raises(ValueError) as refused:
        call()
    assert type(refused.value) is ValueError
    assert str(refused.value) == message
