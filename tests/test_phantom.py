"""Synthetic cohort generator tests.

The generator is the backbone of the end-to-end checks, so its own
contract is pinned here: file inventory, label cycling, lesion kinetics
visible in the built channel stacks, flipped-storage handling, and
byte-identical regeneration.
"""

import gzip
import hashlib
from pathlib import Path

import numpy as np
import pytest

from mipclass import phantom
from mipclass.evalkit import BENIGN, MALIGNANT, NO_LESION
from mipclass.mipbuild import BuildConfig, build_stack

# native-grid standardization: exercises the stack path without resampling
NATIVE_CFG = BuildConfig(
    spacing=phantom.NATIVE_SPACING, shape=phantom.NATIVE_SHAPE, row_window=32
)


def _study_with_labels(right: int, left: int, seed: int = 0):
    """First cohort index whose label cycle matches the request."""
    for index in range(len(phantom._LABEL_CYCLE)):
        if phantom.cycle_labels(index) == (right, left):
            return phantom.generate_study(f"p{index:03d}", index, seed)
    raise AssertionError("label combination not in cycle")


class TestCohortFiles:
    def test_single_study_inventory(self, tmp_path):
        manifest = phantom.write_cohort(1, seed=3, out_dir=tmp_path)
        assert manifest == tmp_path / "manifest.csv"
        files = sorted(p.name for p in (tmp_path / "studies").iterdir())
        assert files == [
            "p000_mask.nii.gz",
            "p000_post1.nii.gz",
            "p000_post2.nii.gz",
            "p000_post3.nii.gz",
            "p000_pre.nii.gz",
        ]
        lines = manifest.read_text().splitlines()
        assert len(lines) == 2  # header + one row
        assert lines[0].startswith("patient_id,")
        assert "no_lesion" in lines[1]

    def test_regeneration_is_byte_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        phantom.write_cohort(4, seed=9, out_dir=a)
        phantom.write_cohort(4, seed=9, out_dir=b)
        files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
        files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
        assert files_a == files_b
        for rel in files_a:
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel

    def test_manifest_bytes_are_pinned(self, tmp_path):
        """The manifest write_cohort(6, 0) wrote when phantom formatted its own rows."""
        manifest = phantom.write_cohort(6, seed=0, out_dir=tmp_path)
        digest = hashlib.sha256(manifest.read_bytes()).hexdigest()
        assert digest == "efcec23b9b1b060e529d307765dc5f830e0214d05b21ef36c8b0d5021480e288"

    def test_different_seed_changes_voxels(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        phantom.write_cohort(1, seed=1, out_dir=a)
        phantom.write_cohort(1, seed=2, out_dir=b)
        raw_a = gzip.decompress((a / "studies" / "p000_pre.nii.gz").read_bytes())
        raw_b = gzip.decompress((b / "studies" / "p000_pre.nii.gz").read_bytes())
        assert raw_a != raw_b

    def test_bad_cohort_size(self, tmp_path):
        with pytest.raises(ValueError):
            phantom.write_cohort(0, seed=0, out_dir=tmp_path)


class TestLabelCycle:
    def test_first_six(self):
        assert [phantom.cycle_labels(i) for i in range(6)] == [
            (NO_LESION, NO_LESION),
            (BENIGN, NO_LESION),
            (NO_LESION, MALIGNANT),
            (BENIGN, BENIGN),
            (MALIGNANT, NO_LESION),
            (MALIGNANT, BENIGN),
        ]

    def test_thirty_patient_distribution(self):
        sides = [label for i in range(30) for label in phantom.cycle_labels(i)]
        assert sides.count(NO_LESION) == 25
        assert sides.count(BENIGN) == 20
        assert sides.count(MALIGNANT) == 15
        strata = [max(phantom.cycle_labels(i)) for i in range(30)]
        assert strata.count(NO_LESION) == 5
        assert strata.count(BENIGN) == 10
        assert strata.count(MALIGNANT) == 15


class TestStudyContents:
    def test_study_shape_and_mask(self):
        study = phantom.generate_study("p000", 0, cohort_seed=0)
        assert study.pre.data.shape == phantom.NATIVE_SHAPE
        assert len(study.posts) == 3
        mask_values = np.unique(study.mask.data)
        assert set(mask_values.tolist()) <= {0.0, 1.0}
        assert study.mask.data.sum() > 0

    def test_malignant_washout_in_channels(self):
        """sub1 peaks above sub_last on the malignant side's stack."""
        study = _study_with_labels(right=MALIGNANT, left=NO_LESION)
        stack = build_stack(study, "right", NATIVE_CFG)
        sub1, sub_last = stack.channels[1], stack.channels[3]
        assert sub1.max() > sub_last.max()

    def test_benign_progressive_in_channels(self):
        study = _study_with_labels(right=BENIGN, left=NO_LESION)
        stack = build_stack(study, "right", NATIVE_CFG)
        sub1, sub_last = stack.channels[1], stack.channels[3]
        assert sub_last.max() >= sub1.max()

    def test_lesion_lands_on_labeled_side(self):
        study = _study_with_labels(right=MALIGNANT, left=NO_LESION)
        lesion_side = build_stack(study, "right", NATIVE_CFG)
        clear_side = build_stack(study, "left", NATIVE_CFG)
        assert lesion_side.channels[1].max() > 5 * clear_side.channels[1].max()

    def test_every_third_study_stored_flipped(self):
        ras = phantom.generate_study("p000", 0, cohort_seed=0)
        flipped = phantom.generate_study("p002", 2, cohort_seed=0)
        assert ras.pre.orientation == "RAS"
        assert flipped.pre.orientation.startswith("LP")

    def test_flipped_storage_keeps_laterality(self):
        """Index 2 is LPS-stored with a malignant LEFT breast; the lesion
        must surface in the left stack after canonical reorientation."""
        study = phantom.generate_study("p002", 2, cohort_seed=0)
        assert (study.label_right, study.label_left) == (NO_LESION, MALIGNANT)
        left = build_stack(study, "left", NATIVE_CFG)
        right = build_stack(study, "right", NATIVE_CFG)
        assert left.channels[1].max() > 5 * right.channels[1].max()

    def test_kinetics_constants_are_washout_and_progressive(self):
        malignant = phantom.KINETICS[MALIGNANT]
        benign = phantom.KINETICS[BENIGN]
        assert malignant[0] == max(malignant) and malignant[-1] < malignant[0]
        assert list(benign) == sorted(benign)

    def test_same_seed_same_study(self):
        a = phantom.generate_study("p001", 1, cohort_seed=5)
        b = phantom.generate_study("p001", 1, cohort_seed=5)
        assert a.pre.data.tobytes() == b.pre.data.tobytes()
        assert a.posts[2].data.tobytes() == b.posts[2].data.tobytes()
