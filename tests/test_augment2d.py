"""Augmentation tests: identity, determinism, involution, channel
alignment, dropout accounting, interpolation bounds, the warp's and the
blur's bytes against scipy's, and augment's and extract_features' bytes
against their whole-stack versions (tests/augment_reference.py)."""

from unittest import mock

import numpy as np
import pytest
from augment_reference import reference_augment, reference_features
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy_reference import scipy_blur, scipy_warp

from mipclass import augment2d
from mipclass.augment2d import (
    _BLUR_MIN_SIGMA,
    AugmentPolicy,
    _apply_warp,
    _blur,
    _warp_matrix,
    augment,
    default_policy,
    derive_seed,
)
from mipclass.classhead import extract_features
from mipclass.mipbuild import PAPER_MEANS, PAPER_STDS, MipStack, normalize_stack

PROB_FIELDS = (
    "hflip_p",
    "vflip_p",
    "rotate_p",
    "affine_p",
    "brightness_p",
    "contrast_p",
    "noise_p",
    "blur_p",
    "dropout_p",
)


def _stack(seed=0, shape=(32, 32), normalized=False):
    rng = np.random.default_rng(seed)
    channels = rng.random((4, *shape)).astype(np.float32)
    stack = MipStack(channels, side="left", patient_id="p0")
    return normalize_stack(stack) if normalized else stack


class TestPolicy:
    def test_default_policy_valid_and_complete(self):
        policy = default_policy()
        assert policy.rotate_deg == 15.0
        assert policy.scale_range == (0.9, 1.1)
        assert policy.shear_deg == 10.0
        assert policy.translate_frac == 0.05
        assert policy.noise_sigma == 0.05
        assert policy.blur_sigma == 1.5
        assert policy.dropout_max_holes == 8
        assert policy.dropout_max_size == 32
        for name in PROB_FIELDS:
            assert getattr(policy, name) == 0.5

    def test_active_iff_some_probability_is_positive(self):
        assert not AugmentPolicy().active
        assert default_policy().active
        for name in PROB_FIELDS:
            assert AugmentPolicy(**{name: 0.1}).active, name

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            AugmentPolicy(hflip_p=1.5)
        with pytest.raises(ValueError):
            AugmentPolicy(noise_p=-0.1)

    def test_bad_magnitudes_rejected(self):
        with pytest.raises(ValueError):
            AugmentPolicy(noise_sigma=-1.0)
        with pytest.raises(ValueError):
            AugmentPolicy(scale_range=(1.1, 0.9))
        with pytest.raises(ValueError):
            AugmentPolicy(rotate_deg=float("inf"))

    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    @pytest.mark.parametrize("field", ["noise_sigma", "blur_sigma"])
    def test_non_finite_sigmas_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            AugmentPolicy(**{field: value})

    def test_blur_sigma_bounded(self):
        assert AugmentPolicy(blur_sigma=32.0).blur_sigma == 32.0
        with pytest.raises(ValueError, match=r"blur_sigma must be in \[0.0, 32.0\]"):
            AugmentPolicy(blur_sigma=float(np.nextafter(32.0, np.inf)))

    @pytest.mark.parametrize("value", [2.5, 8.0, True, "8"])
    @pytest.mark.parametrize("field", ["dropout_max_holes", "dropout_max_size"])
    def test_dropout_bounds_are_integers(self, field, value):
        with pytest.raises(TypeError, match=f"{field} must be an integer"):
            AugmentPolicy(**{field: value})


class TestAugment:
    def test_identity_policy_returns_input_values(self):
        stack = _stack()
        out = augment(stack, seed=123, policy=AugmentPolicy())
        np.testing.assert_array_equal(out.channels, stack.channels)
        assert out.meta["augment_applied"] == []

    def test_deterministic(self):
        stack = _stack(normalized=True)
        a = augment(stack, seed=42, policy=default_policy())
        b = augment(stack, seed=42, policy=default_policy())
        assert a.channels.tobytes() == b.channels.tobytes()
        assert a.meta["augment_applied"] == b.meta["augment_applied"]

    def test_different_seeds_differ(self):
        stack = _stack(normalized=True)
        outs = {augment(stack, seed=s, policy=default_policy()).channels.tobytes() for s in range(8)}
        assert len(outs) > 1

    @pytest.mark.parametrize("seed", [-1, 2**64, 2**64 + 7, True, 1.0])
    def test_seed_outside_u64_rejected(self, seed):
        """Only the low 64 bits would key the streams, so 2**64 would replay seed 0."""
        with pytest.raises(ValueError, match="seed"):
            augment(_stack(), seed, default_policy())

    def test_u64_seed_bounds_accepted(self):
        for seed in (0, 2**64 - 1, np.uint64(2**64 - 1)):
            assert augment(_stack(), seed, default_policy()).meta["augment_seed"] == seed

    def test_hflip_involution(self):
        stack = _stack()
        policy = AugmentPolicy(hflip_p=1.0)
        twice = augment(augment(stack, 7, policy), 7, policy)
        np.testing.assert_array_equal(twice.channels, stack.channels)

    def test_vflip_involution(self):
        stack = _stack()
        policy = AugmentPolicy(vflip_p=1.0)
        twice = augment(augment(stack, 9, policy), 9, policy)
        np.testing.assert_array_equal(twice.channels, stack.channels)

    def test_flip_is_exact_reversal(self):
        stack = _stack()
        out = augment(stack, 3, AugmentPolicy(hflip_p=1.0))
        np.testing.assert_array_equal(out.channels, stack.channels[:, ::-1, :])

    def test_marker_stays_colocated_across_channels(self):
        """Identical geometric params per channel: a delta placed at the same
        pixel of every channel must land at the same argmax afterwards."""
        policy = AugmentPolicy(rotate_p=1.0, affine_p=1.0, hflip_p=1.0)
        for seed in range(12):
            channels = np.zeros((4, 48, 48), np.float32)
            channels[:, 31, 12] = np.asarray([1.0, 2.0, 3.0, 4.0], np.float32)
            stack = MipStack(channels, side="left", patient_id="p")
            out = augment(stack, seed, policy)
            locations = {
                np.unravel_index(np.argmax(out.channels[c]), out.channels[c].shape)
                for c in range(4)
            }
            assert len(locations) == 1
            assert out.channels[0].max() > 0.1

    def test_shape_preserved(self):
        stack = _stack(shape=(40, 24), normalized=True)
        out = augment(stack, 11, default_policy())
        assert out.channels.shape == (4, 40, 24)

    def test_applied_list_subset_of_families(self):
        stack = _stack(normalized=True)
        out = augment(stack, 5, default_policy())
        families = {
            "hflip", "vflip", "rotate", "affine", "brightness",
            "contrast", "noise", "blur", "dropout",
        }
        assert set(out.meta["augment_applied"]) <= families


class TestDropout:
    def test_unnormalized_fill_is_zero_and_bounded(self):
        policy = AugmentPolicy(dropout_p=1.0, dropout_max_holes=4, dropout_max_size=6)
        for seed in range(10):
            channels = np.full((4, 40, 40), 3.0, np.float32)
            stack = MipStack(channels, side="left", patient_id="p")
            out = augment(stack, seed, policy)
            dropped = out.channels != 3.0
            assert set(np.unique(out.channels[dropped])) <= {np.float32(0.0)}
            # per channel, at most holes * size^2 pixels are touched
            assert dropped[0].sum() <= 4 * 6 * 6
            # holes are channel-aligned
            for c in range(1, 4):
                np.testing.assert_array_equal(dropped[c], dropped[0])

    def test_normalized_fill_is_zero_signal(self):
        policy = AugmentPolicy(dropout_p=1.0, dropout_max_holes=3, dropout_max_size=5)
        base = np.full((4, 30, 30), 5.0, np.float32)
        base[:, 0, 0] = 0.0  # give each channel a range so min-max is nontrivial
        stack = normalize_stack(MipStack(base, side="left", patient_id="p"))
        out = augment(stack, 2, policy)
        for c in range(4):
            fill = np.float32((0.0 - PAPER_MEANS[c]) / PAPER_STDS[c])
            values = set(np.unique(out.channels[c]))
            assert fill in values


class TestBounds:
    def test_geometric_transforms_respect_value_range(self):
        """Bilinear warps stay within [min - eps, max + eps] of the input."""
        policy = AugmentPolicy(rotate_p=1.0, affine_p=1.0, hflip_p=1.0, vflip_p=1.0)
        rng = np.random.default_rng(33)
        for seed in range(15):
            channels = (rng.random((4, 24, 24)) * 200 - 50).astype(np.float32)
            stack = MipStack(channels, side="left", patient_id="p", normalized=True)
            out = augment(stack, seed, policy)
            assert out.channels.min() >= channels.min() - 1e-5
            assert out.channels.max() <= channels.max() + 1e-5

    def test_unnormalized_output_never_negative(self):
        policy = AugmentPolicy(brightness_p=1.0, brightness_delta=5.0, noise_p=1.0, noise_sigma=2.0)
        stack = _stack()
        for seed in range(6):
            out = augment(stack, seed, policy)
            assert out.channels.min() >= 0.0


# the magnitudes augment draws under default_policy, widened, plus shifts that
# move the whole image past every edge so every sample clamps
_DEFAULT = default_policy()
_ANGLES = st.one_of(
    st.floats(-_DEFAULT.rotate_deg, _DEFAULT.rotate_deg), st.floats(-180.0, 180.0)
)
_SCALES = st.one_of(st.floats(*_DEFAULT.scale_range), st.floats(0.25, 4.0))
_SHEARS = st.one_of(st.floats(-_DEFAULT.shear_deg, _DEFAULT.shear_deg), st.floats(-60.0, 60.0))
_SHIFTS = st.one_of(
    st.floats(-_DEFAULT.translate_frac, _DEFAULT.translate_frac),
    st.floats(-3.0, 3.0),
    st.sampled_from([-2.0, -1.0, 1.0, 2.0]),
)


class TestWarp:
    @settings(max_examples=200)
    @given(
        w=st.integers(1, 80),
        h=st.integers(1, 80),
        block=st.sampled_from([1, 5, 32]),
        angle=_ANGLES,
        scale=_SCALES,
        shear=_SHEARS,
        shift=st.tuples(_SHIFTS, _SHIFTS),
        values=st.integers(0, 2**32 - 1),
    )
    def test_bytes_equal_scipy_affine_transform(
        self, w, h, block, angle, scale, shear, shift, values
    ):
        """Compared as uint32, so the sign of every zero counts too."""
        rng = np.random.default_rng(values)
        channels = (rng.standard_normal((4, w, h)) * 100).astype(np.float32)
        signed_zeros = rng.random(channels.shape)
        channels[signed_zeros < 0.15] = -0.0
        channels[signed_zeros > 0.85] = 0.0
        forward = _warp_matrix((w, h), angle, scale, shear, (shift[0] * w, shift[1] * h))
        with mock.patch.object(augment2d, "WARP_BLOCK_ROWS", block):
            out = _apply_warp(channels, forward)
        expected = scipy_warp(channels, forward)
        for c in range(4):
            assert out[c].view(np.uint32).tobytes() == expected[c].view(np.uint32).tobytes()

    @pytest.mark.parametrize(
        "forward",
        [
            _warp_matrix((8, 8), 0.0, 5e-324, 0.0, (0.0, 0.0)),
            np.diag([np.nan, 1.0, 1.0]),
            np.array([[1.0, 0.0, np.inf], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
            np.diag([1e-308, 1e-308, 1.0]),
        ],
        ids=["denormal_scale", "nan", "inf_shift", "coordinates_overflow"],
    )
    def test_non_finite_coordinates_refused(self, forward):
        channels = np.ones((4, 8, 8), np.float32)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match="non-finite"):
            _apply_warp(channels, forward)

    def test_augment_refuses_an_infinite_inverse(self):
        policy = AugmentPolicy(affine_p=1.0, scale_range=(5e-324, 5e-324))
        with pytest.raises(ValueError, match="non-finite source coordinates"):
            augment(_stack(), 0, policy)


# the radius int(4σ + 0.5) steps from 0 to 1 at σ 0.125 and reaches 128 at 31.875
_SIGMAS = st.one_of(
    st.floats(_BLUR_MIN_SIGMA, 0.2, exclude_min=True),
    st.sampled_from([float(np.nextafter(_BLUR_MIN_SIGMA, 1.0)), 0.125, 31.875, 32.0]),
    st.floats(0.2, 3.0),
    st.floats(30.0, 32.0),
)


class TestBlur:
    @settings(max_examples=300)
    @given(
        w=st.one_of(st.integers(1, 3), st.integers(1, 70)),
        h=st.one_of(st.integers(1, 3), st.integers(1, 70)),
        sigma=_SIGMAS,
        block=st.sampled_from([1, 5, 32]),
        layout=st.sampled_from(["C", "F", "flipped"]),
        values=st.integers(0, 2**32 - 1),
        wide=st.booleans(),
    )
    # found by search: summing the pairs in the order j = 1..r changes a byte here
    @example(w=16, h=3, sigma=1.0, block=5, layout="C", values=165, wide=True)
    def test_bytes_equal_scipy_gaussian_filter(self, w, h, sigma, block, layout, values, wide):
        """Compared as uint32, so the sign of every zero counts too."""
        rng = np.random.default_rng(values)
        channels = (rng.standard_normal((4, w, h)) * 100).astype(np.float32)
        if wide:  # magnitudes far apart, so a float64 sum can depend on its order
            far = rng.choice(np.float32([1e20, -1e20, 3e19, -3e19, 2**24]), size=channels.shape)
            channels = np.where(rng.random(channels.shape) < 0.3, far, channels)
        signed_zeros = rng.random(channels.shape)
        channels[signed_zeros < 0.15] = -0.0
        channels[signed_zeros > 0.85] = 0.0
        if layout == "F":
            channels = np.asfortranarray(channels)
        elif layout == "flipped":
            channels = channels[:, ::-1, ::-1]
        with mock.patch.object(augment2d, "BLUR_BLOCK_ROWS", block):
            out = _blur(channels, sigma)
        assert _same_bytes(out, scipy_blur(channels, sigma))


def _same_bytes(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.view(np.uint32).tobytes() == b.view(np.uint32).tobytes()


def _edge_stack(rng, w, h, normalized, order="C"):
    """Random channels with signed zeros and ties; an unnormalized stack's are
    nonnegative (-0.0 included), a normalized one's span both signs."""
    values = rng.random((4, w, h)) * (4.0 if normalized else 2.0) - (2.0 if normalized else 0.0)
    edges = rng.choice(np.array([-0.0, 0.0, 0.5, 1.0]), size=values.shape)
    channels = np.where(rng.random(values.shape) < 0.3, edges, values).astype(np.float32)
    return MipStack(np.asarray(channels, order=order), "left", "p0", normalized=normalized)


class TestMatchesWholeStackReference:
    """augment and extract_features give the bytes of their whole-stack versions."""

    @settings(max_examples=200)
    @given(data=st.data())
    def test_augment_and_features_bytes(self, data):
        w = data.draw(st.sampled_from([1, 2, 3, 7, 16, 33]), label="w")
        h = data.draw(st.sampled_from([1, 2, 5, 16, 31]), label="h")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="values"))
        normalized = data.draw(st.booleans(), label="normalized")
        stack = _edge_stack(rng, w, h, normalized, data.draw(st.sampled_from("CF"), label="order"))
        if data.draw(st.booleans(), label="default_policy"):
            policy = default_policy()
        else:  # a mix of transforms that always fire
            policy = AugmentPolicy(
                **{name: data.draw(st.sampled_from([0.0, 1.0]), label=name) for name in PROB_FIELDS}
            )
        seed = data.draw(st.integers(0, 2**64 - 1), label="seed")
        got, expected = augment(stack, seed, policy), reference_augment(stack, seed, policy)
        assert _same_bytes(got.channels, expected.channels)
        assert got.meta == expected.meta
        if normalized:
            grid = data.draw(st.integers(1, 4), label="grid")
            for s in (stack, got):
                assert _same_bytes(extract_features(s, grid), reference_features(s, grid))

    @pytest.mark.parametrize("normalized", [False, True], ids=["unnormalized", "normalized"])
    def test_vflip_brightness_contrast(self, normalized):
        """With no warp, vflip leaves a negative-stride view for brightness and
        contrast, whose float32 mean depends on the layout it sees."""
        policy = AugmentPolicy(vflip_p=1.0, brightness_p=1.0, contrast_p=1.0)
        rng = np.random.default_rng(5)
        for seed, (w, h) in enumerate([(1, 1), (3, 5), (64, 64), (37, 129), (256, 256)]):
            stack = _edge_stack(rng, w, h, normalized)
            got, expected = augment(stack, seed, policy), reference_augment(stack, seed, policy)
            assert got.meta["augment_applied"] == ["vflip", "brightness", "contrast"]
            assert _same_bytes(got.channels, expected.channels)


class TestDeriveSeed:
    def test_stable_known_value(self):
        """The derivation is part of the reproducibility contract; freeze it."""
        import hashlib

        digest = hashlib.sha256(b"7:patientA:left:3").digest()
        expected = int.from_bytes(digest[:8], "little")
        assert derive_seed(7, "patientA", "left", 3) == expected

    def test_components_all_matter(self):
        base = derive_seed(1, "p", "left", 0)
        assert derive_seed(2, "p", "left", 0) != base
        assert derive_seed(1, "q", "left", 0) != base
        assert derive_seed(1, "p", "right", 0) != base
        assert derive_seed(1, "p", "left", 1) != base

    def test_u64_range(self):
        for s in range(20):
            val = derive_seed(s, f"p{s}", "left", s)
            assert 0 <= val < 2**64
