"""CLI orchestrator tests: manifest parsing, config defaulting, every
subcommand end to end on small synthetic cohorts, rerun determinism, and
the training-time label-access audit.
"""

import argparse
import ast
import copy
import dataclasses
import fractions
import gzip
import inspect
import json
import math
import re
import shlex
import shutil
import struct
import tempfile
import typing
import weakref
from collections.abc import Mapping
from pathlib import Path

import numpy as np
import pytest
from capped_process import run_capped
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy_reference import scipy_blur, scipy_warp

from mipclass import phantom
from mipclass.augment2d import AugmentPolicy, augment, default_policy, derive_seed
from mipclass.classhead import (
    ClassWeights,
    HeadParams,
    HeadSpec,
    TrainConfig,
    TrainResult,
    class_weights,
    extract_features,
    feature_dim,
    train_heads,
    uniform_weights,
)
from mipclass.errors import ManifestParse, MipclassError, MissingBlob, SchemaMismatch
from mipclass.evalkit import (
    FoldPlan,
    Prediction,
    max_label,
    plain_file_name,
    read_predictions_csv,
    stratified_kfold,
    write_predictions_csv,
)
from mipclass.mipbuild import (
    POSITIVE,
    SIDES,
    BuildConfig,
    MipStack,
    NormConstants,
    field_specs,
    stack_to_blob,
)
from mipclass.pipeline_cli import (
    Manifest,
    PipelineConfig,
    RunDir,
    _build_parser,
    _read_predictions,
    cmd_ensemble,
    cmd_evaluate,
    cmd_predict,
    cmd_preprocess,
    cmd_split,
    cmd_train,
    load_config,
    main,
)
from mipclass.tensorio import TensorBlob, read_blob, read_nifti, write_blob, write_nifti
from mipclass.volume import Volume

# Native-grid config: no resampling work, tiny train budget.
FAST_CONFIG = {
    "spacing": list(phantom.NATIVE_SPACING),
    "shape": list(phantom.NATIVE_SHAPE),
    "row_window": 32,
    "augment": None,  # augmentation off
    "train": {"epochs": 30, "batch": 8, "lr_max": 0.05, "warmup_epochs": 3},
    "k": 3,
    "seed": 0,
}


def _write_config(tmp_path: Path, **overrides) -> Path:
    raw = dict(FAST_CONFIG)
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.fixture(scope="module")
def cohort(tmp_path_factory) -> Path:
    """12 phantoms, preprocessed and split with the fast config."""
    root = tmp_path_factory.mktemp("cohort12")
    cfg_path = _write_config(root)
    run = root / "run"
    assert main(["phantom", "--n", "12", "--seed", "0", "--out", str(run)]) == 0
    manifest = run / "manifest.csv"
    base = ["--manifest", str(manifest), "--config", str(cfg_path), "--out", str(run)]
    assert main(["preprocess", *base, "--jobs", "2"]) == 0
    assert main(["split", *base]) == 0
    return run


@pytest.fixture(scope="module")
def config() -> PipelineConfig:
    return load_config_from(FAST_CONFIG)


@pytest.fixture(scope="module")
def trained(cohort, config) -> Path:
    rc = cmd_train(cohort / "manifest.csv", config, cohort, weighting="both")
    assert rc == 0
    return cohort


@pytest.fixture(scope="module")
def predicted(trained, config) -> Path:
    rc = cmd_predict(trained, weighting="both")
    assert rc == 0
    return trained


def load_config_from(raw: dict) -> PipelineConfig:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        return load_config(path)


class TestManifest:
    def test_reads_phantom_manifest(self, cohort):
        manifest = Manifest.read(cohort / "manifest.csv")
        assert manifest.patient_ids == [f"p{i:03d}" for i in range(12)]
        row = manifest.rows[1]
        assert row.patient_id == "p001"
        assert len(row.post_paths) == 3
        assert row.mask_path is not None
        assert manifest.labels_for("p001") == {"right": 1, "left": 0}

    def test_header_required(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text("id,pre\nx,y\n")
        with pytest.raises(ManifestParse):
            Manifest.read(bad)

    def test_unknown_label_rejected(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text(
            "patient_id,pre_path,post_paths,mask_path,label_left,label_right\n"
            "p0,pre.nii,a.nii;b.nii,,suspicious,benign\n"
        )
        with pytest.raises(ManifestParse):
            Manifest.read(bad)

    def test_single_post_rejected(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text(
            "patient_id,pre_path,post_paths,mask_path,label_left,label_right\n"
            "p0,pre.nii,only.nii,,benign,benign\n"
        )
        with pytest.raises(ManifestParse):
            Manifest.read(bad)

    def test_duplicate_ids_rejected(self, tmp_path):
        bad = tmp_path / "m.csv"
        bad.write_text(
            "patient_id,pre_path,post_paths,mask_path,label_left,label_right\n"
            "p0,pre.nii,a.nii;b.nii,,benign,benign\n"
            "p0,pre.nii,a.nii;b.nii,,benign,benign\n"
        )
        with pytest.raises(ManifestParse):
            Manifest.read(bad)

    def test_missing_mask_is_none(self, tmp_path):
        good = tmp_path / "m.csv"
        good.write_text(
            "patient_id,pre_path,post_paths,mask_path,label_left,label_right\n"
            "p0,pre.nii,a.nii;b.nii,,no_lesion,malignant\n"
        )
        manifest = Manifest.read(good)
        assert manifest.rows[0].mask_path is None
        assert manifest.rows[0].label_right == 2

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ManifestParse):
            Manifest.read(tmp_path / "absent.csv")

    @pytest.mark.parametrize(
        "patient_id",
        ["../../escaped", "a/b", "/abs", "a\\b", "..\\x", ".", "..", "p\0", "p\t0", "p\x7f"],
        ids=[
            "parent", "slash", "absolute", "backslash", "parent_bs", "dot", "dotdot", "nul",
            "tab", "del",
        ],
    )
    def test_patient_id_must_be_a_plain_file_name(self, tmp_path, patient_id):
        """The id names the stack files, so a path in it would write outside stacks/."""
        bad = tmp_path / "m.csv"
        bad.write_text(
            "patient_id,pre_path,post_paths,mask_path,label_left,label_right\n"
            f"{patient_id},pre.nii,a.nii;b.nii,,benign,benign\n"
        )
        with pytest.raises(ManifestParse, match="^line 2: patient_id .* is not a plain file name$"):
            Manifest.read(bad)

    def test_dotted_patient_ids_accepted(self, tmp_path):
        good = tmp_path / "m.csv"
        good.write_text(
            "patient_id,pre_path,post_paths,mask_path,label_left,label_right\n"
            "p.1,pre.nii,a.nii;b.nii,,benign,benign\n"
            "...,pre.nii,a.nii;b.nii,,benign,benign\n"
        )
        assert Manifest.read(good).patient_ids == ["p.1", "..."]

    def test_escaping_patient_id_exits_two_and_writes_nothing(self, tmp_path, capsys):
        run = tmp_path / "a" / "b" / "run"
        phantom.write_cohort(1, seed=1, out_dir=run)
        manifest = run / "manifest.csv"
        manifest.write_text(manifest.read_text().replace("\np000,", "\n../../escaped,"))
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(["preprocess", "--manifest", str(manifest), "--out", str(run)]) == 2
        err = capsys.readouterr().err
        assert "patient_id '../../escaped' is not a plain file name" in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("command", ["preprocess", "split"])
    def test_carriage_return_in_patient_id_exits_two_at_entry(self, tmp_path, command, capsys):
        """A quoted \\r in an id once passed every stage up to predict, whose CSV
        evaluate and ensemble then refused: csv.writer leaves a lone \\r bare."""
        run = tmp_path / "run"
        phantom.write_cohort(6, seed=1, out_dir=run)
        manifest = run / "manifest.csv"
        manifest.write_text(manifest.read_text().replace("\np000,", '\n"p\r000",'), newline="")
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main([command, "--manifest", str(manifest), "--out", str(run)]) == 2
        err = capsys.readouterr().err
        assert err == "error: line 2: patient_id 'p\\r000' is not a plain file name\n"
        assert sorted(tmp_path.rglob("*")) == before


# values the shared field-spec check refuses at config load:
# (override, command, id, the refusal as it names the config key)
FIELD_SPEC_REFUSALS = [
    ({"train": {"lr_max": 10**400}}, "train", "lr_max_huge_int",
     "train.lr_max must be a finite number, got 100000000000000000...0000000000000000000"),
    ({"augment": {"rotate_deg": 10**400}}, "train", "rotate_deg_huge_int",
     "augment.rotate_deg must be a finite number, got 100000000000000000...0000000000000000000"),
    ({"augment": {"scale_range": [1]}}, "train", "scale_range_short",
     "augment.scale_range must be 2 numbers, got [1]"),
    ({"augment": {"scale_range": [1, 2, 3]}}, "train", "scale_range_long",
     "augment.scale_range must be 2 numbers, got [1, 2, 3]"),
    ({"shape": [True, 512, 32]}, "preprocess", "shape_bool",
     "shape[0] must be an integer, got True"),
    ({"spacing": [True, 0.7, 3.0]}, "preprocess", "spacing_bool",
     "spacing[0] must be a finite number, got True"),
    ({"norm_means": [True, 0.1, 0.1, 0.1]}, "preprocess", "norm_means_bool",
     "norm_means[0] must be a finite number, got True"),
    ({"augment": {"hflip_p": True}}, "train", "hflip_p_bool",
     "augment.hflip_p must be a finite number, got True"),
    ({"train": {"lr_max": True}}, "train", "lr_max_bool",
     "train.lr_max must be a finite number, got True"),
    ({"shape": [10**30, 512, 32]}, "preprocess", "shape_huge",
     "shape (1000000000000000000000000000000, 512, 32) exceeds MAX_RESAMPLE_VOXELS = 1073741824"),
    ({"augment": {"dropout_max_holes": 100000000}}, "train", "dropout_max_holes_huge",
     "augment.dropout_max_holes must be in [0, 1024], got 100000000"),
    ({"augment": {"blur_sigma": 1e12}}, "train", "blur_sigma_huge",
     "augment.blur_sigma must be in [0.0, 32.0], got 1000000000000.0"),
]

# more refusals whose message names the key as the config spells it: (override, id, message)
KEYED_REFUSALS = [
    ({"norm_stds": [0, 1, 1, 1]}, "norm_stds_zero", "norm_stds[0] must be in (0, inf], got 0"),
    ({"train": {"epochs": 2.5}}, "epochs_float", "train.epochs must be an integer, got 2.5"),
    ({"augment": {"hflip_p": 2}}, "hflip_p_two", "augment.hflip_p must be in [0.0, 1.0], got 2"),
    ({"spacing": [0.7, 0, 3]}, "spacing_zero", "spacing[1] must be in (0, inf], got 0"),
    ({"seed": -3}, "seed_negative", "seed must be in [0, 2**128), got -3"),
    # refusals that compare two fields name both as config keys
    ({"train": {"epochs": 5, "warmup_epochs": 5}}, "epochs_not_above_warmup",
     "need train.epochs > train.warmup_epochs, got (5, 5)"),
    ({"train": {"lr_max": 0.1, "lr_min": 0.2}}, "lr_max_not_above_lr_min",
     "need train.lr_max > train.lr_min, got (0.1, 0.2)"),
    ({"augment": {"scale_range": [1.2, 0.8]}}, "scale_range_unordered",
     "augment.scale_range must be ordered, got (1.2, 0.8)"),
]


class TestConfig:
    def test_none_gives_published_defaults(self):
        cfg = load_config(None)
        assert cfg == PipelineConfig()
        assert cfg.build.spacing == (0.7, 0.7, 3.0)
        assert cfg.build.shape == (512, 512, 32)
        assert cfg.build.row_window == 256
        assert cfg.train == TrainConfig()
        assert cfg.policy == default_policy()
        assert cfg.k == 5

    def test_partial_override_keeps_other_defaults(self):
        cfg = load_config_from({"row_window": 64, "train": {"epochs": 10}})
        assert cfg.build.row_window == 64
        assert cfg.build.spacing == (0.7, 0.7, 3.0)
        assert cfg.train.epochs == 10
        assert cfg.train.batch == 10  # untouched default
        assert cfg.norm.means == (0.2074, 0.1290, 0.1396, 0.1470)

    def test_augment_section_overrides_fields(self):
        cfg = load_config_from({"augment": {"hflip_p": 1.0, "noise_sigma": 0.1}})
        assert cfg.policy.hflip_p == 1.0
        assert cfg.policy.noise_sigma == 0.1
        assert cfg.policy.vflip_p == default_policy().vflip_p

    def test_augment_null_disables_augmentation(self):
        cfg = load_config_from({"augment": None})
        assert cfg.policy == AugmentPolicy()
        assert cfg.policy.hflip_p == 0.0

    def test_unknown_top_level_key(self):
        with pytest.raises(SchemaMismatch):
            load_config_from({"spacingg": [1, 1, 1]})

    def test_unknown_nested_key(self):
        with pytest.raises(SchemaMismatch):
            load_config_from({"train": {"learning_rate": 0.1}})

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text("{not json")
        with pytest.raises(SchemaMismatch):
            load_config(path)

    def test_bad_k(self):
        with pytest.raises(SchemaMismatch):
            load_config_from({"k": 1})

    def test_pool_grid_is_an_unknown_key(self, cohort, tmp_path, capsys):
        """Features always pool on a 4x4 grid, so a config naming a grid is refused."""
        config = _write_config(tmp_path, pool_grid=2)
        run = tmp_path / "run"
        argv = ["--manifest", str(cohort / "manifest.csv"), "--config", str(config)]
        capsys.readouterr()
        assert main(["train", *argv, "--out", str(run)]) == 2
        assert capsys.readouterr().err == "error: unknown config keys: ['pool_grid']\n"
        assert not run.exists()

    def test_train_seed_points_to_top_level_seed(self):
        # each head's seed derives from the top-level seed, so a train.seed would be ignored
        with pytest.raises(SchemaMismatch, match="top-level seed"):
            load_config_from({"train": {"seed": 12345}})

    @pytest.mark.parametrize(
        "override, command",
        [
            ({"k": 1}, "split"),
            ({"norm_stds": [0, 1, 1, 1]}, "split"),
            ({"train": {"epochs": 2}}, "train"),
            ({"shape": [128, 128]}, "preprocess"),
            ({"spacing": 1.0}, "preprocess"),
            ({"train": [1]}, "train"),
            ({"augment": 5}, "train"),
            ({"row_window": "x"}, "preprocess"),
            ({"row_window": 0}, "preprocess"),
            ({"row_window": -5}, "preprocess"),
            ({"row_window": True}, "preprocess"),
            ({"train": {"seed": 12345}}, "train"),
            ({"k": 3.0}, "split"),
            ({"seed": "x"}, "split"),
            ({"spacing": [float("inf"), 0.7, 3.0]}, "preprocess"),
            ({"norm_means": [float("nan"), 0.1, 0.1, 0.1]}, "preprocess"),
            ({"norm_stds": [float("inf"), 1, 1, 1]}, "preprocess"),
            ({"train": {"lr_max": float("inf")}}, "train"),
            ({"augment": {"noise_sigma": float("inf")}}, "train"),
            ({"train": {"epochs": 8.5}}, "train"),
            ({"train": {"batch": 2.5}}, "train"),
            ({"train": {"batch": True}}, "train"),
            ({"augment": {"dropout_max_holes": 2.5}}, "train"),
            *[case[:2] for case in FIELD_SPEC_REFUSALS],
        ],
        ids=[
            "k", "norm_stds", "epochs", "shape", "spacing", "train", "augment",
            "row_window_str", "row_window_zero", "row_window_negative", "row_window_bool",
            "train_seed", "k_float", "seed_str",
            "spacing_inf", "norm_means_nan", "norm_stds_inf", "lr_max_inf", "noise_sigma_inf",
            "epochs_float", "batch_float", "batch_bool", "dropout_max_holes_float",
            *[case[2] for case in FIELD_SPEC_REFUSALS],
        ],
    )
    def test_invalid_value_exits_two(self, cohort, tmp_path, override, command, capsys):
        """Each stage runs on a split, preprocessed copy, so only the config can refuse it."""
        raw = dict(FAST_CONFIG)
        raw.update(override)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw))
        run = tmp_path / "run"
        shutil.copytree(cohort, run)
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        argv = [command, "--manifest", str(run / "manifest.csv"), "--config", str(config)]
        capsys.readouterr()
        assert main([*argv, "--out", str(run)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "config" in err
        assert "folds.json" not in err
        assert "Traceback" not in err
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize(
        "override",
        [case[0] for case in FIELD_SPEC_REFUSALS],
        ids=[case[2] for case in FIELD_SPEC_REFUSALS],
    )
    def test_field_spec_refusal_is_an_invalid_value(self, override):
        with pytest.raises(SchemaMismatch, match="invalid value in config"):
            load_config_from(override)

    @pytest.mark.parametrize(
        "override, message",
        [(case[0], case[3]) for case in FIELD_SPEC_REFUSALS]
        + [(override, message) for override, _, message in KEYED_REFUSALS],
        ids=[case[2] for case in FIELD_SPEC_REFUSALS] + [case[1] for case in KEYED_REFUSALS],
    )
    def test_refusal_names_the_config_key(self, override, message):
        with pytest.raises(SchemaMismatch) as refused:
            load_config_from(override)
        assert str(refused.value).endswith(f"config.json: {message}")

    @pytest.mark.parametrize("seed", [-3, 2**128], ids=["negative", "2**128"])
    def test_out_of_range_config_seed_exits_two(self, cohort, tmp_path, seed, capsys):
        """The fold shuffle's Philox key takes [0, 2**128); outside it split used to
        die with a raw ValueError."""
        config = _write_config(tmp_path, seed=seed)
        argv = ["--manifest", str(cohort / "manifest.csv"), "--config", str(config)]
        capsys.readouterr()
        assert main(["split", *argv, "--out", str(tmp_path / "run")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid value in config")
        assert "seed must be in [0, 2**128)" in err
        assert not (tmp_path / "run" / "folds.json").exists()

    @pytest.mark.parametrize("seed", ["-5", str(2**128)], ids=["negative", "2**128"])
    @pytest.mark.parametrize("command", ["split", "train"])
    def test_out_of_range_seed_flag_exits_two(self, cohort, tmp_path, command, seed, capsys):
        run = tmp_path / "run"
        shutil.copytree(cohort, run)
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        config = _write_config(tmp_path)
        argv = ["--manifest", str(run / "manifest.csv"), "--config", str(config), "--out", str(run)]
        capsys.readouterr()
        assert main([command, *argv, "--seed", seed]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --seed: seed must be in [0, 2**128)")
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    def test_preprocess_takes_no_seed_flag(self, cohort, tmp_path, capsys):
        """preprocess uses no seed, so argparse refuses --seed before any work."""
        run = tmp_path / "run"
        shutil.copytree(cohort, run)
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        config = _write_config(tmp_path)
        argv = ["--manifest", str(run / "manifest.csv"), "--config", str(config), "--out", str(run)]
        capsys.readouterr()
        with pytest.raises(SystemExit) as exited:
            main(["preprocess", *argv, "--seed", "0"])
        assert exited.value.code == 2
        assert "unrecognized arguments: --seed 0" in capsys.readouterr().err
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before


class TestPreprocess:
    def test_two_patients_make_four_blobs(self, tmp_path, config):
        run = tmp_path / "run"
        phantom.write_cohort(2, seed=1, out_dir=run)
        rc = cmd_preprocess(run / "manifest.csv", config, run)
        assert rc == 0
        # exactly one file per breast: the metadata is inside the .mct
        blobs = sorted(p.name for p in (run / "stacks").iterdir())
        assert blobs == ["p000_left.mct", "p000_right.mct", "p001_left.mct", "p001_right.mct"]
        report = json.loads((run / "preprocess_report.json").read_text())
        assert report["failed"] == {}
        assert report["succeeded"] == ["p000", "p001"]

    def test_missing_post_skips_study_and_flags_exit(self, tmp_path, config, capsys):
        run = tmp_path / "run"
        phantom.write_cohort(3, seed=1, out_dir=run)
        (run / "studies" / "p001_post2.nii.gz").unlink()
        rc = cmd_preprocess(run / "manifest.csv", config, run)
        assert rc == 1
        report = json.loads((run / "preprocess_report.json").read_text())
        assert sorted(report["failed"]) == ["p001"]
        assert report["succeeded"] == ["p000", "p002"]
        # the healthy studies still produced both sides
        assert (run / "stacks" / "p002_left.mct").exists()
        assert not (run / "stacks" / "p001_left.mct").exists()
        assert "p001" in capsys.readouterr().err

    def test_corrupt_gzip_fails_study(self, tmp_path, capsys):
        """A damaged deflate stream fails its study; the others are still built."""
        run = tmp_path / "run"
        phantom.write_cohort(2, seed=1, out_dir=run)
        damaged = run / "studies" / "p001_post2.nii.gz"
        buf = bytearray(damaged.read_bytes())
        buf[40] ^= 0xFF
        damaged.write_bytes(bytes(buf))
        config = _write_config(tmp_path)
        argv = ["--manifest", str(run / "manifest.csv"), "--config", str(config), "--out", str(run)]
        capsys.readouterr()
        assert main(["preprocess", *argv]) == 1
        report = json.loads((run / "preprocess_report.json").read_text())
        assert sorted(report["failed"]) == ["p001"]
        assert report["failed"]["p001"].startswith("IoFailure: ")
        assert report["succeeded"] == ["p000"]
        assert sorted(p.name for p in (run / "stacks").iterdir()) == [
            "p000_left.mct", "p000_right.mct",
        ]
        assert "Traceback" not in capsys.readouterr().err

    def test_header_image_pairs(self, tmp_path, config, capsys):
        """A pre stored as a .hdr/.img pair builds the stacks its single file
        builds; a .hdr.gz whose .img.gz is missing fails that study alone."""
        clean, run = tmp_path / "clean", tmp_path / "run"
        for cohort_dir in (clean, run):
            phantom.write_cohort(3, seed=1, out_dir=cohort_dir)
        assert cmd_preprocess(clean / "manifest.csv", config, clean) == 0
        manifest = (run / "manifest.csv").read_text()
        for patient_id, suffix in (("p000", ""), ("p001", ".gz")):
            single = run / "studies" / f"{patient_id}_pre.nii.gz"
            buf = bytearray(gzip.decompress(single.read_bytes()))
            assert struct.unpack_from("<f", buf, 108) == (352.0,)
            struct.pack_into("<f", buf, 108, 0.0)
            buf[344:348] = b"ni1\x00"
            pack = gzip.compress if suffix else bytes
            single.with_name(f"{patient_id}_pre.hdr{suffix}").write_bytes(pack(buf[:348]))
            if patient_id == "p000":
                single.with_name(f"{patient_id}_pre.img{suffix}").write_bytes(pack(buf[352:]))
            single.unlink()
            manifest = manifest.replace(single.name, f"{patient_id}_pre.hdr{suffix}")
        (run / "manifest.csv").write_text(manifest)
        capsys.readouterr()
        assert cmd_preprocess(run / "manifest.csv", config, run) == 1
        report = json.loads((run / "preprocess_report.json").read_text())
        assert report["succeeded"] == ["p000", "p002"]
        assert sorted(report["failed"]) == ["p001"]
        assert report["failed"]["p001"].startswith("IoFailure: ")
        assert "p001_pre.img.gz" in report["failed"]["p001"]
        assert sorted(p.name for p in (run / "stacks").iterdir()) == [
            f"{p}_{side}.mct" for p in ("p000", "p002") for side in ("left", "right")
        ]
        for path in (run / "stacks").iterdir():
            assert path.read_bytes() == (clean / "stacks" / path.name).read_bytes()
        assert "FAILED p001: IoFailure" in capsys.readouterr().err

    @staticmethod
    def _set_nan(path: Path, voxels: np.ndarray) -> None:
        volume = read_nifti(path)
        data = volume.data.copy()
        data[tuple(voxels.T)] = np.nan
        write_nifti(Volume(data, volume.spacing, volume.affine), path)

    def test_nan_in_breast_fails_study(self, tmp_path, config, capsys):
        run = tmp_path / "run"
        phantom.write_cohort(3, seed=1, out_dir=run)
        studies = run / "studies"
        breast = np.argwhere(read_nifti(studies / "p001_mask.nii.gz").data >= 0.5)
        # one voxel in each breast: the mask voxels are sorted by x
        self._set_nan(studies / "p001_post1.nii.gz", breast[[0, -1]])
        rc = cmd_preprocess(run / "manifest.csv", config, run)
        assert rc == 1
        report = json.loads((run / "preprocess_report.json").read_text())
        assert sorted(report["failed"]) == ["p001"]
        assert "finite" in report["failed"]["p001"]
        assert report["succeeded"] == ["p000", "p002"]
        assert not (run / "stacks" / "p001_left.mct").exists()
        assert "p001" in capsys.readouterr().err

    def test_nan_in_mask_fails_study(self, tmp_path, capsys):
        """A NaN mask voxel is not binary: its study fails, the others are built."""
        run = tmp_path / "run"
        phantom.write_cohort(3, seed=1, out_dir=run)
        self._set_nan(run / "studies" / "p001_mask.nii.gz", np.array([[0, 0, 0]]))
        config = _write_config(tmp_path)
        argv = ["--manifest", str(run / "manifest.csv"), "--config", str(config), "--out", str(run)]
        capsys.readouterr()
        assert main(["preprocess", *argv]) == 1
        report = json.loads((run / "preprocess_report.json").read_text())
        assert report["succeeded"] == ["p000", "p002"]
        assert sorted(report["failed"]) == ["p001"]
        assert report["failed"]["p001"].startswith("NonBinaryMask: ")
        assert not (run / "stacks" / "p001_left.mct").exists()
        err = capsys.readouterr().err
        assert "FAILED p001: NonBinaryMask" in err and "Traceback" not in err

    def test_pre_off_the_post_grid_fails_study(self, tmp_path, config, capsys):
        """A pre shifted by one voxel in its affine fails its study alone."""
        run = tmp_path / "run"
        phantom.write_cohort(3, seed=1, out_dir=run)
        path = run / "studies" / "p001_pre.nii.gz"
        pre = read_nifti(path)
        affine = pre.affine.copy()
        affine[:3, 3] += affine[:3, 0]
        write_nifti(Volume(pre.data, pre.spacing, affine), path)
        capsys.readouterr()
        assert cmd_preprocess(run / "manifest.csv", config, run) == 1
        report = json.loads((run / "preprocess_report.json").read_text())
        assert report["succeeded"] == ["p000", "p002"]
        failure = report["failed"]["p001"]
        assert failure.startswith("GridMismatch: subtraction needs matching grids: ")
        assert not (run / "stacks" / "p001_left.mct").exists()
        assert "FAILED p001: GridMismatch" in capsys.readouterr().err

    def test_nan_outside_mask_is_zeroed(self, tmp_path, config):
        """A NaN in the background neither fails the study nor moves its row window."""
        clean, dirty = tmp_path / "clean", tmp_path / "dirty"
        for run in (clean, dirty):
            phantom.write_cohort(2, seed=1, out_dir=run)
        studies = dirty / "studies"
        background = np.argwhere(read_nifti(studies / "p001_mask.nii.gz").data < 0.5)
        self._set_nan(studies / "p001_post1.nii.gz", background[[0, len(background) // 2]])
        for run in (clean, dirty):
            assert cmd_preprocess(run / "manifest.csv", config, run) == 0
        for side in ("left", "right"):
            name = f"p001_{side}.mct"
            assert (dirty / "stacks" / name).read_bytes() == (clean / "stacks" / name).read_bytes()

    def test_too_fine_spacing_fails_each_study(self, tmp_path):
        """A grid over MAX_RESAMPLE_VOXELS fails its study with the shape named.

        Runs under a 3 GiB address-space cap: before the refusal, this config
        asked numpy for a 6.84 GiB float64 array."""
        run = tmp_path / "run"
        phantom.write_cohort(2, seed=1, out_dir=run)
        config = _write_config(tmp_path, spacing=[0.0001, 0.7, 3.0])
        argv = ["--manifest", str(run / "manifest.csv"), "--config", str(config), "--out", str(run)]
        proc = run_capped(["-m", "mipclass", "preprocess", *argv], 3 << 30)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr
        report = json.loads((run / "preprocess_report.json").read_text())
        assert report["succeeded"] == []
        assert sorted(report["failed"]) == ["p000", "p001"]
        for message in report["failed"].values():
            assert message.startswith("ValueError: ")
            assert "(896000, 128, 32)" in message
            assert "MAX_RESAMPLE_VOXELS" in message
        assert list((run / "stacks").iterdir()) == []
        assert "FAILED p000" in proc.stderr

    def test_rerun_is_idempotent(self, tmp_path, config):
        run = tmp_path / "run"
        phantom.write_cohort(2, seed=2, out_dir=run)
        cmd_preprocess(run / "manifest.csv", config, run)
        first = {
            p.name: p.read_bytes() for p in (run / "stacks").iterdir()
        }
        cmd_preprocess(run / "manifest.csv", config, run)
        second = {
            p.name: p.read_bytes() for p in (run / "stacks").iterdir()
        }
        assert first == second

    def test_jobs_do_not_change_outputs(self, tmp_path, config):
        run_a = tmp_path / "a"
        run_b = tmp_path / "b"
        for run in (run_a, run_b):
            phantom.write_cohort(3, seed=4, out_dir=run)
        cmd_preprocess(run_a / "manifest.csv", config, run_a, jobs=1)
        cmd_preprocess(run_b / "manifest.csv", config, run_b, jobs=3)
        for path in sorted((run_a / "stacks").iterdir()):
            assert path.read_bytes() == (run_b / "stacks" / path.name).read_bytes()


class TestSplit:
    def test_delegates_to_stratified_kfold(self, cohort, config):
        manifest = Manifest.read(cohort / "manifest.csv")
        strat = [max_label(row.label_left, row.label_right) for row in manifest.rows]
        expected = stratified_kfold(manifest.patient_ids, strat, k=config.k, seed=config.seed)
        stored = json.loads((cohort / "folds.json").read_text())
        assert stored["assignment"] == expected.assignment
        assert stored["k"] == config.k

    def test_rerun_identical_bytes(self, tmp_path, config):
        run = tmp_path / "run"
        phantom.write_cohort(6, seed=0, out_dir=run)
        cmd_split(run / "manifest.csv", config, run)
        first = (run / "folds.json").read_bytes()
        cmd_split(run / "manifest.csv", config, run)
        assert (run / "folds.json").read_bytes() == first

    def test_too_few_patients_exit_code(self, tmp_path):
        run = tmp_path / "run"
        phantom.write_cohort(2, seed=0, out_dir=run)
        cfg = _write_config(tmp_path, k=5)
        rc = main(
            ["split", "--manifest", str(run / "manifest.csv"), "--config", str(cfg), "--out", str(run)]
        )
        assert rc == 2


def _assert_models_match_oracle(tmp_path, monkeypatch, augment: dict, name: str, oracle) -> None:
    """Train on 6 phantom studies with `augment`, then again with `oracle` patched
    in as ``augment2d.<name>``: the model bytes are equal, and the oracle ran
    once per breast and epoch."""
    import mipclass.augment2d as augment2d

    run = tmp_path / "run"
    config = load_config_from(
        {
            "spacing": [2.8, 2.8, 12.0],
            "shape": [32, 32, 8],
            "row_window": 16,
            "augment": augment,
            "train": {"epochs": 3, "batch": 8, "lr_max": 0.05, "warmup_epochs": 1},
            "k": 3,
            "seed": 0,
        }
    )
    phantom.write_cohort(6, seed=0, out_dir=run)
    cmd_preprocess(run / "manifest.csv", config, run)
    cmd_split(run / "manifest.csv", config, run)

    def models() -> dict[str, bytes]:
        assert cmd_train(run / "manifest.csv", config, run, weighting="both") == 0
        return {p.name: p.read_bytes() for p in sorted((run / "models").iterdir())}

    numpy_models = models()
    calls = []

    def reference(channels, *args):
        calls.append(channels.shape)
        return oracle(channels, *args)

    monkeypatch.setattr(augment2d, name, reference)
    assert models() == numpy_models
    assert len(numpy_models) == 2 * config.k
    assert len(calls) == 2 * 6 * config.train.epochs


class TestTrain:
    def test_model_files_per_weighting_and_fold(self, trained, config):
        names = sorted(p.name for p in (trained / "models").glob("*.json"))
        expected = sorted(
            f"{w}_fold{f}.json" for w in ("natural", "inverse") for f in range(config.k)
        )
        assert names == expected

    def test_inverse_weights_from_training_counts_only(self, trained, config):
        """Eq.-style weights must be derived from the logged training-fold
        counts, and those counts must exclude the validation fold."""
        manifest = Manifest.read(trained / "manifest.csv")
        folds = json.loads((trained / "folds.json").read_text())
        for fold in range(config.k):
            record = json.loads((trained / "models" / f"inverse_fold{fold}.json").read_text())
            train_patients = [
                p for p, f in folds["assignment"].items() if f != fold
            ]
            expected_counts = [0, 0, 0]
            for patient in train_patients:
                sides = manifest.labels_for(patient)
                expected_counts[sides["right"]] += 1
                expected_counts[sides["left"]] += 1
            assert record["train_class_counts"] == expected_counts
            expected = class_weights(expected_counts)
            np.testing.assert_allclose(record["class_weights"], expected.w, atol=1e-15)

    def test_natural_weights_are_uniform(self, trained):
        record = json.loads((trained / "models" / "natural_fold0.json").read_text())
        np.testing.assert_allclose(record["class_weights"], [1 / 3] * 3, atol=1e-15)

    def test_loss_decreases(self, trained):
        record = json.loads((trained / "models" / "natural_fold0.json").read_text())
        trace = record["loss_trace"]
        assert trace[-1] < trace[0]

    def test_rerun_identical_bytes(self, trained, config):
        before = (trained / "models" / "natural_fold1.json").read_bytes()
        cmd_train(trained / "manifest.csv", config, trained, weighting="natural", fold=1)
        assert (trained / "models" / "natural_fold1.json").read_bytes() == before

    def test_missing_folds_is_typed_error(self, tmp_path, config):
        run = tmp_path / "run"
        phantom.write_cohort(2, seed=0, out_dir=run)
        cmd_preprocess(run / "manifest.csv", config, run)
        with pytest.raises(MissingBlob):
            cmd_train(run / "manifest.csv", config, run, weighting="natural")

    def test_missing_stack_is_typed_error(self, tmp_path, config):
        run = tmp_path / "run"
        phantom.write_cohort(6, seed=0, out_dir=run)
        cmd_preprocess(run / "manifest.csv", config, run)
        cmd_split(run / "manifest.csv", config, run)
        (run / "stacks" / "p003_left.mct").unlink()
        with pytest.raises(MissingBlob):
            cmd_train(run / "manifest.csv", config, run, weighting="natural")

    def test_augmented_training_runs_and_is_deterministic(self, tmp_path):
        run = tmp_path / "run"
        cfg_raw = dict(FAST_CONFIG)
        cfg_raw["augment"] = {"hflip_p": 0.5, "noise_p": 0.5, "noise_sigma": 0.02}
        cfg_raw["train"] = {"epochs": 6, "batch": 8, "lr_max": 0.05, "warmup_epochs": 2}
        config = load_config_from(cfg_raw)
        phantom.write_cohort(6, seed=0, out_dir=run)
        cmd_preprocess(run / "manifest.csv", config, run)
        cmd_split(run / "manifest.csv", config, run)
        cmd_train(run / "manifest.csv", config, run, weighting="natural", fold=0)
        record = json.loads((run / "models" / "natural_fold0.json").read_text())
        assert record["augmented"] is True
        first = (run / "models" / "natural_fold0.json").read_bytes()
        cmd_train(run / "manifest.csv", config, run, weighting="natural", fold=0)
        assert (run / "models" / "natural_fold0.json").read_bytes() == first

    @pytest.mark.parametrize(
        "augment",
        [
            {"brightness_p": 1.0, "brightness_delta": 1e308},
            {"affine_p": 1.0, "scale_range": [5e-324, 5e-324]},
        ],
        ids=["brightness_overflow", "infinite_inverse"],
    )
    def test_augment_magnitude_failure_exits_two(self, cohort, tmp_path, augment, capsys):
        """Magnitudes that load but cannot be drawn or warped name the breast and
        epoch in one line, instead of a traceback."""
        run = tmp_path / "run"
        shutil.copytree(cohort, run)
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        config = _write_config(tmp_path, augment=augment, train={"epochs": 6})
        argv = ["--manifest", str(run / "manifest.csv"), "--config", str(config), "--out", str(run)]
        capsys.readouterr()
        assert main(["train", *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: augmenting patient p000 side right at epoch 0 failed (")
        assert err.endswith("; the config's augment magnitudes are out of range\n")
        assert err.count("\n") == 1
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    @pytest.mark.parametrize(
        "transform, magnitude",
        [
            ("noise", "noise_sigma"),
            ("contrast", "contrast_delta"),
            ("brightness", "brightness_delta"),
        ],
    )
    def test_augment_overflow_prints_one_line(self, cohort, tmp_path, transform, magnitude):
        """A magnitude that overflows float32 gives a non-finite stack: the CLI's
        stderr is the one error line, with no numpy warning ahead of it."""
        run = tmp_path / "run"
        shutil.copytree(cohort, run)
        augment = {f"{transform}_p": 1.0, magnitude: 1e300}
        config = _write_config(tmp_path, augment=augment, train={"epochs": 6})
        argv = ["--manifest", str(run / "manifest.csv"), "--config", str(config), "--out", str(run)]
        proc = run_capped(["-m", "mipclass", "train", *argv], 3 << 30)
        assert proc.returncode == 2
        err = proc.stderr
        assert err.startswith("error: augmenting patient p000 side right at epoch 0 failed (")
        assert err.endswith("must be finite); the config's augment magnitudes are out of range\n")
        assert err.count("\n") == 1

    def test_augmented_models_match_scipy_warp(self, tmp_path, monkeypatch):
        """Every breast warps in every epoch; the model bytes equal those trained
        with scipy's order-1, edge-clamped affine transform as the warp."""
        augment = {"rotate_p": 1.0, "affine_p": 1.0}
        _assert_models_match_oracle(tmp_path, monkeypatch, augment, "_apply_warp", scipy_warp)

    def test_augmented_models_match_scipy_blur(self, tmp_path, monkeypatch):
        """Every breast blurs in every epoch; the model bytes equal those trained
        with scipy's edge-clamped Gaussian filter as the blur."""
        _assert_models_match_oracle(tmp_path, monkeypatch, {"blur_p": 1.0}, "_blur", scipy_blur)

    def test_diverged_head_exits_two(self, cohort, tmp_path, capsys):
        """A finite but far too high lr_max drives the params out of the finite
        range: one error line names the epoch and train.lr_max, and no model
        file is written."""
        run = tmp_path / "run"
        shutil.copytree(cohort, run)
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        train = {"epochs": 30, "batch": 8, "lr_max": 1.7e308, "warmup_epochs": 3}
        config = _write_config(tmp_path, train=train)
        argv = ["--manifest", str(run / "manifest.csv"), "--config", str(config), "--out", str(run)]
        capsys.readouterr()
        assert main(["train", *argv]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: training diverged at epoch \d+: .*train\.lr_max.*\n", err)
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    def test_patient_missing_from_manifest_exits_two(self, cohort, tmp_path, capsys):
        """folds.json names p006 but this manifest lacks it: one error line that
        names the patient, and no model is written (it was a raw KeyError)."""
        run = tmp_path / "run"
        shutil.copytree(cohort, run, ignore=shutil.ignore_patterns("models"))
        manifest = tmp_path / "manifest.csv"
        lines = (run / "manifest.csv").read_text().splitlines(True)
        manifest.write_text("".join(line for line in lines if not line.startswith("p006,")))
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        argv = ["--manifest", str(manifest), "--config", str(_write_config(tmp_path))]
        capsys.readouterr()
        assert main(["train", *argv, "--out", str(run)]) == 2
        assert capsys.readouterr().err == (
            "error: patient 'p006' is not in the manifest; rerun split with this manifest\n"
        )
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before

    def test_patient_missing_from_manifest_is_reported_before_any_stack_is_read(
        self, cohort, config, tmp_path, monkeypatch
    ):
        """Every training label is looked up before the first stack is read, so a
        patient the manifest lacks, here the last in row order, costs no stack read."""
        manifest = tmp_path / "manifest.csv"
        lines = (cohort / "manifest.csv").read_text().splitlines(True)
        manifest.write_text("".join(line for line in lines if not line.startswith("p011,")))
        reads = []
        read_stack = RunDir.read_stack

        def tracking_read(self, patient_id, side):
            reads.append((patient_id, side))
            return read_stack(self, patient_id, side)

        monkeypatch.setattr(RunDir, "read_stack", tracking_read)
        with pytest.raises(SchemaMismatch, match="patient 'p011' is not in the manifest"):
            cmd_train(manifest, config, cohort)  # refused before anything is written
        assert reads == []

    def test_inverse_head_lacking_a_class_exits_two(self, tmp_path, capsys):
        """With malignant in one patient only and k=2, the inverse head of that
        patient's fold trains on no malignant breast: one error line names the
        head and the class and points to the remedies, and no model is written."""
        run = tmp_path / "run"
        phantom.write_cohort(6, seed=1, out_dir=run)
        manifest = run / "manifest.csv"
        # p002 keeps its malignant left side; every other malignant side turns benign
        lines = manifest.read_text().splitlines(True)
        lines[1:] = [line if line.startswith("p002,") else line.replace("malignant", "benign")
                     for line in lines[1:]]
        manifest.write_text("".join(lines))
        config = _write_config(tmp_path, k=2)
        argv = ["--manifest", str(manifest), "--config", str(config), "--out", str(run)]
        assert main(["preprocess", *argv]) == 0
        assert main(["split", *argv]) == 0
        fold = json.loads((run / "folds.json").read_text())["assignment"]["p002"]
        before = {p: p.read_bytes() for p in run.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert main(["train", *argv]) == 2
        assert re.fullmatch(
            rf"error: head inverse_fold{fold} has no malignant breast in its training folds,"
            r" so inverse weighting is undefined \(every class needs >= 1 sample, got counts"
            r" \(\d+, \d+, 0\)\); train with --weighting natural or split the cohort again"
            r" with another seed or k\n",
            capsys.readouterr().err,
        )
        assert {p: p.read_bytes() for p in run.rglob("*") if p.is_file()} == before
        assert main(["train", *argv, "--weighting", "natural"]) == 0

    @pytest.mark.parametrize("n_studies", [12, 7], ids=["one_group", "two_groups"])
    def test_selected_head_matches_all_heads(self, tmp_path, n_studies):
        """Which other heads train alongside it does not change a head's bytes,
        whether all heads have one row count or (n % k != 0) two."""
        run = tmp_path / "run"
        config = _write_config(
            tmp_path, spacing=[2.8, 2.8, 12.0], shape=[32, 32, 8], row_window=16
        )
        argv = ["--manifest", str(run / "manifest.csv"), "--config", str(config), "--out", str(run)]
        assert main(["phantom", "--n", str(n_studies), "--seed", "0", "--out", str(run)]) == 0
        assert main(["preprocess", *argv]) == 0
        assert main(["split", *argv]) == 0
        assert main(["train", *argv]) == 0
        together = {p.name: p.read_bytes() for p in (run / "models").glob("*.json")}
        assert len(together) == 2 * FAST_CONFIG["k"]
        sizes = {json.loads(raw)["n_train_samples"] for raw in together.values()}
        assert len(sizes) == (1 if n_studies % FAST_CONFIG["k"] == 0 else 2)
        (run / "models" / "natural_fold1.json").unlink()
        assert main(["train", *argv, "--weighting", "natural", "--fold", "1"]) == 0
        assert (run / "models" / "natural_fold1.json").read_bytes() == together["natural_fold1.json"]

    def test_all_heads_in_one_pass_match_single_head_runs(self, tmp_path, monkeypatch):
        """All heads train in one pass: every breast is read once and augmented
        once per epoch for all 2·k heads, and each model's bytes equal those of
        training that head alone."""
        import mipclass.pipeline_cli as cli

        run = tmp_path / "run"
        cfg_raw = dict(FAST_CONFIG)
        cfg_raw["augment"] = {"hflip_p": 0.5, "noise_p": 0.5, "noise_sigma": 0.02}
        cfg_raw["train"] = {"epochs": 4, "batch": 8, "lr_max": 0.05, "warmup_epochs": 1}
        config = load_config_from(cfg_raw)
        phantom.write_cohort(6, seed=0, out_dir=run)
        cmd_preprocess(run / "manifest.csv", config, run)
        cmd_split(run / "manifest.csv", config, run)

        augments: list[tuple[str, str]] = []
        reads: list[str] = []
        real_augment, real_read = cli.augment, cli.read_blob

        def counting_augment(stack, seed, policy):
            augments.append((stack.patient_id, stack.side))
            return real_augment(stack, seed, policy)

        def counting_read(path):
            reads.append(Path(path).name)
            return real_read(path)

        monkeypatch.setattr(cli, "augment", counting_augment)
        monkeypatch.setattr(cli, "read_blob", counting_read)
        cmd_train(run / "manifest.csv", config, run, weighting="both")
        n_patients = 6  # every patient trains some fold's heads
        assert len(augments) == 2 * n_patients * config.train.epochs
        assert sorted(reads) == sorted(p.name for p in (run / "stacks").glob("*.mct"))
        together = {p.name: p.read_bytes() for p in (run / "models").glob("*.json")}
        assert len(together) == 2 * config.k

        for weighting in ("natural", "inverse"):
            for fold in range(config.k):
                cmd_train(run / "manifest.csv", config, run, weighting=weighting, fold=fold)
                name = f"{weighting}_fold{fold}.json"
                assert (run / "models" / name).read_bytes() == together[name]

    def test_breast_major_features_match_epoch_major(self, tmp_path, monkeypatch):
        """Each training breast is loaded once, in row order, and freed before
        the next is loaded; the models' bytes equal those of an epoch-major
        loop that holds every stack and augments all breasts epoch by epoch."""
        run = tmp_path / "run"
        cfg_raw = dict(FAST_CONFIG)
        cfg_raw["augment"] = {"hflip_p": 0.5, "noise_p": 0.5, "noise_sigma": 0.02, "rotate_p": 0.5}
        cfg_raw["train"] = {"epochs": 4, "batch": 8, "lr_max": 0.05, "warmup_epochs": 1}
        config = load_config_from(cfg_raw)
        phantom.write_cohort(7, seed=0, out_dir=run)
        cmd_preprocess(run / "manifest.csv", config, run)
        cmd_split(run / "manifest.csv", config, run)

        loaded: list[tuple[str, str]] = []
        freed: list[bool] = []
        previous = None

        read_stack = RunDir.read_stack

        def tracking_load(self, patient_id, side):
            nonlocal previous
            freed.append(previous is None or previous() is None)
            stack = read_stack(self, patient_id, side)
            loaded.append((patient_id, side))
            previous = weakref.ref(stack)
            return stack

        monkeypatch.setattr(RunDir, "read_stack", tracking_load)
        cmd_train(run / "manifest.csv", config, run, weighting="both")
        plan = RunDir(run).read_folds()
        breasts = [(p, side) for p in sorted(plan.assignment) for side in SIDES]
        assert loaded == breasts
        assert all(freed)

        # the reference: every stack held, features built one epoch at a time
        manifest = Manifest.read(run / "manifest.csv")
        stacks = [read_stack(RunDir(run), p, side) for p, side in breasts]

        def epoch_features(epoch):
            seeds = [derive_seed(config.seed, p, side, epoch) for p, side in breasts]
            return np.stack(
                [extract_features(augment(s, seed, config.policy)) for s, seed in zip(stacks, seeds)]
            )

        names, specs = [], []
        for weighting in ("natural", "inverse"):
            for fold in range(config.k):
                head = [(p, side) for p in plan.training_patients(fold) for side in SIDES]
                labels = np.array([manifest.labels_for(p)[side] for p, side in head])
                counts = np.bincount(labels, minlength=3).tolist()
                weights = uniform_weights() if weighting == "natural" else class_weights(counts)
                seed = derive_seed(config.seed, f"fold{fold}", weighting, 0)
                specs.append(HeadSpec([breasts.index(b) for b in head], labels, weights, seed))
                names.append(f"{weighting}_fold{fold}.json")
        feats = np.stack([epoch_features(epoch) for epoch in range(config.train.epochs)])
        for name, result in zip(names, train_heads(feats, specs, config.train)):
            record = json.loads((run / "models" / name).read_text())
            assert record["W"] == result.params.W.tolist()
            assert record["b"] == result.params.b.tolist()
            assert record["loss_trace"] == result.loss_trace.tolist()


class TestLeakageAudit:
    def test_train_never_reads_validation_labels(self, cohort, config, monkeypatch):
        """Wrap the single label access point and record who gets queried."""
        queried: list[str] = []
        real = Manifest.labels_for

        def spy(self, patient_id):
            queried.append(patient_id)
            return real(self, patient_id)

        monkeypatch.setattr(Manifest, "labels_for", spy)
        fold = 1
        cmd_train(cohort / "manifest.csv", config, cohort, weighting="inverse", fold=fold)
        folds = json.loads((cohort / "folds.json").read_text())
        validation = {p for p, f in folds["assignment"].items() if f == fold}
        training = {p for p, f in folds["assignment"].items() if f != fold}
        assert queried, "audit saw no label accesses at all"
        assert set(queried) == training
        assert not set(queried) & validation

    def test_predict_reads_no_labels(self, cohort, config, monkeypatch):
        cmd_train(cohort / "manifest.csv", config, cohort, weighting="natural", fold=0)

        def forbidden(self, patient_id):
            raise AssertionError(f"labels_for({patient_id!r}) called during predict")

        monkeypatch.setattr(Manifest, "labels_for", forbidden)
        rc = cmd_predict(cohort, weighting="natural", fold=0)
        assert rc == 0


class TestPredictEvaluateEnsemble:
    def test_csv_rows_cover_validation_fold(self, predicted, config):
        folds = json.loads((predicted / "folds.json").read_text())
        for fold in range(config.k):
            preds = read_predictions_csv(predicted / "predictions" / f"natural_fold{fold}.csv")
            expected = {p for p, f in folds["assignment"].items() if f == fold}
            assert {p.patient_id for p in preds} == expected
            assert len(preds) == 2 * len(expected)
            assert {p.model_id for p in preds} == {f"natural_fold{fold}"}
            for p in preds:
                assert abs(p.probs.sum() - 1.0) < 1e-6

    def test_evaluate_writes_metrics(self, predicted):
        csv_path = predicted / "predictions" / "natural_fold0.csv"
        rc = cmd_evaluate(predicted / "manifest.csv", predicted, [csv_path])
        assert rc == 0
        metrics = json.loads((predicted / "metrics" / "natural_fold0.json").read_text())
        assert set(metrics) >= {"auc", "sens_at_90spec", "spec_at_90sens", "score", "confusion"}
        assert metrics["source"] == "natural_fold0.csv"
        assert np.asarray(metrics["confusion"]).sum() == metrics["n"]

    def test_evaluate_matches_direct_metric_call(self, predicted):
        from mipclass.evalkit import evaluate as evaluate_direct

        csv_path = predicted / "predictions" / "inverse_fold1.csv"
        cmd_evaluate(predicted / "manifest.csv", predicted, [csv_path])
        stored = json.loads((predicted / "metrics" / "inverse_fold1.json").read_text())

        manifest = Manifest.read(predicted / "manifest.csv")
        preds = read_predictions_csv(csv_path)
        probs = np.stack([p.probs for p in preds])
        truths = np.array(
            [
                manifest.labels_for(p.patient_id)[p.side]
                for p in preds
            ]
        )
        direct = evaluate_direct(probs, truths)
        assert stored["auc"] == direct.auc
        assert stored["score"] == direct.score

    def test_self_ensemble_keeps_metrics(self, predicted):
        """Averaging a model with itself must not move any metric."""
        csv_path = predicted / "predictions" / "natural_fold0.csv"
        cmd_evaluate(predicted / "manifest.csv", predicted, [csv_path])
        single = json.loads((predicted / "metrics" / "natural_fold0.json").read_text())
        rc = cmd_ensemble(predicted / "manifest.csv", predicted, [csv_path, csv_path])
        assert rc == 0
        combined = json.loads((predicted / "metrics" / "ensemble.json").read_text())
        for key in ("auc", "sens_at_90spec", "spec_at_90sens", "score"):
            assert combined[key] == single[key]

    def test_full_ensemble_covers_all_breasts(self, predicted, config):
        csvs = sorted((predicted / "predictions").glob("*_fold*.csv"))
        assert len(csvs) == 2 * config.k
        cmd_ensemble(predicted / "manifest.csv", predicted, csvs)
        merged = read_predictions_csv(predicted / "predictions" / "ensemble.csv")
        assert len(merged) == 24  # 12 patients x 2 sides
        assert {p.model_id for p in merged} == {"ensemble"}

    def test_unknown_patient_in_csv_is_schema_error(self, predicted, tmp_path, capsys):
        rogue = [Prediction("zz9", "left", np.array([1.0, 0.0, 0.0]), "m")]
        csv_path = tmp_path / "rogue.csv"
        write_predictions_csv(rogue, csv_path)
        with pytest.raises(SchemaMismatch):
            _read_predictions(Manifest.read(predicted / "manifest.csv"), csv_path)
        capsys.readouterr()
        assert cmd_evaluate(predicted / "manifest.csv", predicted, [csv_path]) == 2
        assert capsys.readouterr().err == (
            f"error: {csv_path}: patient 'zz9' in {csv_path} is not in the manifest\n"
        )

    def test_evaluate_scores_every_csv_and_names_each_failure(self, predicted, tmp_path, capsys):
        """A CSV that cannot be scored does not stop the others; each failure names its file."""
        run = tmp_path / "run"
        shutil.copytree(predicted, run)
        shutil.rmtree(run / "metrics", ignore_errors=True)
        good = sorted((run / "predictions").glob("*_fold*.csv"))
        # a single breast holds one class only, so the malignant-vs-rest AUC is undefined
        one_class = tmp_path / "one_class.csv"
        one_class.write_text("".join(good[0].read_text().splitlines(True)[:2]))
        missing = tmp_path / "absent.csv"
        argv = ["evaluate", "--manifest", str(run / "manifest.csv"), "--out", str(run)]
        capsys.readouterr()
        assert main([*argv, str(missing), *map(str, good[:2]), str(one_class), str(good[2])]) == 2
        err = capsys.readouterr().err.splitlines()
        assert [line.split(": ")[:2] for line in err] == [
            ["error", str(missing)],
            ["error", str(one_class)],
        ]
        written = sorted(p.name for p in (run / "metrics").iterdir())
        assert written == sorted(f"{p.stem}.json" for p in good[:3])

    def test_evaluate_refuses_a_breast_scored_twice(self, predicted, tmp_path, capsys):
        """A fold CSV with its rows repeated once scored 2n breasts; it is refused,
        pointing to ensemble, and the other listed CSVs are still scored."""
        run = tmp_path / "run"
        shutil.copytree(predicted, run)
        shutil.rmtree(run / "metrics", ignore_errors=True)
        good = run / "predictions" / "natural_fold1.csv"
        header, *rows = (run / "predictions" / "natural_fold0.csv").read_text().splitlines(True)
        twice = tmp_path / "twice.csv"
        twice.write_text("".join([header, *rows, *rows]))
        first = rows[0].split(",")[:2]
        argv = ["evaluate", "--manifest", str(run / "manifest.csv"), "--out", str(run)]
        capsys.readouterr()
        assert main([*argv, str(twice), str(good)]) == 2
        assert capsys.readouterr().err == (
            f"error: {twice}: {twice} scores patient/side {tuple(first)} twice;"
            " ensemble averages repeated rows\n"
        )
        assert sorted(p.name for p in (run / "metrics").iterdir()) == ["natural_fold1.json"]

    def test_predict_without_model_is_typed_error(self, cohort, tmp_path):
        run = tmp_path / "run"
        shutil.copytree(cohort, run)
        shutil.rmtree(run / "models", ignore_errors=True)
        with pytest.raises(MissingBlob):
            cmd_predict(run, weighting="natural", fold=0)


def _truncate(path: Path) -> None:
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def _meta_span(buf: bytes) -> tuple[int, int]:
    """Offsets of the u32 metadata length and of the metadata's end in an MCT2 file."""
    start = 5 + 4 * buf[4]  # magic, ndim, dims
    (length,) = struct.unpack_from("<I", buf, start)
    return start, start + 4 + length


def _set_stack_meta(path: Path, meta) -> None:
    """Replace the JSON metadata embedded in a stack file, keeping its pixels."""
    buf = path.read_bytes()
    start, end = _meta_span(buf)
    text = json.dumps(meta).encode("utf-8")
    path.write_bytes(buf[:start] + struct.pack("<I", len(text)) + text + buf[end:])


def _tree(root: Path) -> dict[Path, bytes | None]:
    """Every file under `root` with its bytes, and every directory (None)."""
    return {p: p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


class TestCorruptRunDirectory:
    """A missing or corrupt run-directory artifact is a typed error, exit 2."""

    @pytest.mark.parametrize(
        "case, command",
        [
            ("missing_config", "train"),
            ("config_is_directory", "train"),
            ("truncated_folds", "predict"),
            ("fold_out_of_range", "predict"),
            ("truncated_model", "predict"),
            ("truncated_sidecar", "train"),
            ("sidecar_not_object", "train"),
            ("sidecar_is_directory", "train"),
            ("sidecar_missing", "train"),
            ("sidecar_wrong_side", "train"),
            ("sidecar_bad_bounds", "train"),
            ("stale_mct1", "train"),
            ("model_wrong_feature_dim", "predict"),
            ("model_id_mismatch", "predict"),
            ("model_wrong_fold", "predict"),
            ("model_wrong_weighting", "predict"),
            ("model_w_bool", "predict"),
            ("model_w_string", "predict"),
            ("model_b_bool", "predict"),
            ("nan_stack", "train"),
            ("unnormalized_stack", "train"),
            ("unnormalized_stack", "predict"),
            ("normalized_not_bool", "train"),
            ("stack_bounds_not_numbers", "train"),
            ("stack_bounds_three_pairs", "train"),
            ("stack_means_string", "train"),
            ("empty_fold", "train"),
            ("empty_fold", "predict"),
            ("fold_is_true", "predict"),
            ("k_is_true", "predict"),
            ("folds_as_pairs", "predict"),
            ("fold_id_escapes", "predict"),
            ("fold_id_escapes", "train"),
        ],
    )
    def test_exits_two_without_traceback(self, trained, tmp_path, case, command, capsys):
        """The ``sidecar_*`` cases corrupt each stack's embedded metadata or its file."""
        run = tmp_path / "run"
        shutil.copytree(trained, run)
        stacks = sorted((run / "stacks").glob("*.mct"))
        config = _write_config(tmp_path)
        if case == "missing_config":
            config = tmp_path / "missing.json"
        elif case == "config_is_directory":
            config = tmp_path
        elif case == "truncated_folds":
            _truncate(run / "folds.json")
        elif case == "fold_out_of_range":
            folds = json.loads((run / "folds.json").read_text())
            folds["assignment"]["p000"] = 99
            (run / "folds.json").write_text(json.dumps(folds))
        elif case in ("fold_is_true", "k_is_true"):
            # a JSON true is not the integer 1, as a fold index or as k
            folds = json.loads((run / "folds.json").read_text())
            if case == "k_is_true":
                folds["k"] = True
            else:
                folds["assignment"]["p000"] = True
            (run / "folds.json").write_text(json.dumps(folds))
        elif case == "folds_as_pairs":
            # dict() reads a list of [id, value] pairs as the object split writes
            folds = json.loads((run / "folds.json").read_text())
            for key in ("assignment", "strat_labels"):
                folds[key] = sorted(folds[key].items())
            (run / "folds.json").write_text(json.dumps(folds))
        elif case == "fold_id_escapes":
            # its stacks would be opened outside stacks/, at run/escape_<side>.mct
            folds = json.loads((run / "folds.json").read_text())
            for key in ("assignment", "strat_labels"):
                folds[key]["../escape"] = folds[key].pop("p000")
            (run / "folds.json").write_text(json.dumps(folds))
        elif case == "empty_fold":
            # a plan written before fold dealing carried its offset across classes
            folds = json.loads((run / "folds.json").read_text())
            folds["assignment"] = {p: f % 2 for p, f in folds["assignment"].items()}
            (run / "folds.json").write_text(json.dumps(folds))
        elif case == "truncated_model":
            _truncate(run / "models" / "natural_fold0.json")
        elif case == "model_wrong_feature_dim":
            # a head for a 2x2 grid's 20 features, as a bigger pool_grid once wrote
            model = run / "models" / "natural_fold0.json"
            record = json.loads(model.read_text())
            record["W"] = record["W"][:20]
            model.write_text(json.dumps(record))
        elif case == "model_id_mismatch":
            # naming the CSV after this field would write outside the run directory
            model = run / "models" / "natural_fold0.json"
            record = json.loads(model.read_text())
            record["model_id"] = "../../escaped"
            model.write_text(json.dumps(record))
        elif case in ("model_wrong_fold", "model_wrong_weighting"):
            model = run / "models" / "natural_fold0.json"
            record = json.loads(model.read_text())
            if case == "model_wrong_fold":
                record["fold"] = "x"
            else:
                record["weighting"] = "inverse"
            model.write_text(json.dumps(record))
        elif case in ("model_w_bool", "model_w_string", "model_b_bool"):
            # np.asarray reads true as 1.0 and "1.5" as 1.5
            model = run / "models" / "natural_fold0.json"
            record = json.loads(model.read_text())
            if case == "model_b_bool":
                record["b"][0] = True
            else:
                record["W"][0][0] = True if case == "model_w_bool" else "1.5"
            model.write_text(json.dumps(record))
        elif case in ("stack_bounds_not_numbers", "stack_bounds_three_pairs", "stack_means_string"):
            for stack in stacks:
                meta = read_blob(stack).meta
                if case == "stack_bounds_not_numbers":
                    meta["norm_bounds"] = [["0", True]] * 4
                elif case == "stack_bounds_three_pairs":
                    meta["norm_bounds"] = meta["norm_bounds"][:3]
                else:
                    # dropout fills with these, so train once failed only when it fired
                    meta["norm_means"] = "x"
                _set_stack_meta(stack, meta)
        elif case == "nan_stack":
            for stack in stacks:
                blob = read_blob(stack)
                blob.data[0, 0, 0] = np.nan
                write_blob(blob, stack)
        elif case == "unnormalized_stack":
            # nonnegative channels whose metadata says normalize_stack never ran
            for stack in stacks:
                blob = read_blob(stack)
                blob.data[:] = np.abs(blob.data)
                blob.meta["normalized"] = False
                write_blob(blob, stack)
        elif case == "normalized_not_bool":
            # bool("no") is True: this once loaded as a normalized stack
            for stack in stacks:
                meta = read_blob(stack).meta
                meta["normalized"] = "no"
                _set_stack_meta(stack, meta)
        elif case == "truncated_sidecar":
            for stack in stacks:
                _truncate(stack)
        elif case == "sidecar_not_object":
            for stack in stacks:
                _set_stack_meta(stack, [1, 2])
        elif case == "sidecar_is_directory":
            for stack in stacks:
                stack.unlink()
                stack.mkdir()
        elif case == "sidecar_missing":
            for stack in stacks:
                _set_stack_meta(stack, {})
        elif case == "sidecar_wrong_side":
            # each breast's file holds the other breast's stack
            for right in (run / "stacks").glob("*_right.mct"):
                left = right.with_name(right.name.replace("_right", "_left"))
                swap = right.with_suffix(".swap")
                right.rename(swap)
                left.rename(right)
                swap.rename(left)
        elif case == "sidecar_bad_bounds":
            for stack in stacks:
                meta = read_blob(stack).meta
                meta["norm_bounds"] = 5
                _set_stack_meta(stack, meta)
        elif case == "stale_mct1":
            # the previous layout: dtype code, no embedded metadata
            for stack in stacks:
                buf = stack.read_bytes()
                start, end = _meta_span(buf)
                stack.write_bytes(b"MCT1" + bytes([1, buf[4]]) + buf[5:start] + buf[end:])
        argv = [command, "--out", str(run), "--weighting", "natural", "--fold", "0"]
        if command == "train":
            argv += ["--manifest", str(run / "manifest.csv"), "--config", str(config)]
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        if case in ("model_wrong_fold", "model_wrong_weighting"):
            assert f"natural_fold0.json: {case.removeprefix('model_wrong_')} is " in err
        if case == "unnormalized_stack":
            assert re.fullmatch(r"error: stack \S+\.mct is not normalized; rerun preprocess\n", err)
        if case == "normalized_not_bool":
            assert err.endswith(".mct: normalized must be true or false, got 'no'\n")
        if case == "stack_means_string":
            assert re.fullmatch(
                r"error: malformed stack \S+\.mct: norm_means must be 4 numbers, got 'x'\n", err
            )
        if case == "folds_as_pairs":
            assert err == (
                "error: malformed folds.json: assignment and strat_labels must be JSON objects\n"
            )
        if case == "fold_id_escapes":
            assert err == (
                "error: malformed folds.json: patient ids ['../escape'] are not plain file names\n"
            )
        if case == "model_w_string":
            assert err == (
                f"error: malformed model file {run}/models/natural_fold0.json: "
                "W must hold finite numbers only, got '1.5'\n"
            )
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize(
        "what, command",
        [("config", "split"), ("fold plan", "train"), ("model", "predict")],
    )
    def test_deep_json_exits_two(self, trained, tmp_path, what, command, capsys):
        """JSON nested past the decoder's recursion limit is invalid JSON: one
        error line naming the file, exit 2, nothing written."""
        run = tmp_path / "run"
        shutil.copytree(trained, run)
        deep = '{"k": ' + "[" * 100_000 + "]" * 100_000 + "}"
        config = _write_config(tmp_path)
        path = {
            "config": config,
            "fold plan": run / "folds.json",
            "model": run / "models" / "natural_fold0.json",
        }[what]
        path.write_text(deep)
        argv = [command, "--out", str(run)]
        if command != "predict":
            argv += ["--manifest", str(run / "manifest.csv"), "--config", str(config)]
        if command != "split":
            argv += ["--weighting", "natural", "--fold", "0"]
        before = _tree(tmp_path)
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {what} {path} is not valid JSON: maximum recursion depth")
        assert err.count("\n") == 1
        assert _tree(tmp_path) == before


_PREDICTION_HEADER = "patient_id,side,p_nolesion,p_benign,p_malignant,model_id\n"

# the whole error output of TestBadInput cases whose refusal nothing else pins
_BAD_INPUT_ERRORS = {
    "evaluate_header_only": "{tmp}/bad.csv: no prediction rows in {tmp}/bad.csv",
    "ensemble_header_only": "no predictions to ensemble",
    "manifest_five_fields": "line 2: expected 6 fields, got 5",
    "config_is_a_list": "config {tmp}/list.json must hold a JSON object",
    "evaluate_same_stem": (
        "{tmp}/run/predictions/natural_fold0.csv and {tmp}/other/natural_fold0.csv"
        " would write the same metrics file"
    ),
    # every manifest id is a plain name, so the member is refused before the writer sees it
    "ensemble_carriage_return_id": (
        "{tmp}/bad.csv: patient 'p\\r000' in {tmp}/bad.csv is not in the manifest"
    ),
    "evaluate_unknown_patient": (
        "{tmp}/bad.csv: patient 'zzz' in {tmp}/bad.csv is not in the manifest"
    ),
    # ensemble once wrote predictions/ensemble.csv before refusing this member
    "ensemble_unknown_patient": (
        "{tmp}/bad.csv: patient 'zzz' in {tmp}/bad.csv is not in the manifest"
    ),
    # ensemble once wrote predictions/ensemble.csv before scoring it
    "ensemble_no_malignant": "malignant-vs-rest requires both classes present",
    # ensemble once left the member's name out
    "side_not_a_side": (
        "{tmp}/bad.csv: invalid prediction row ['p000', 'middle', '1', '0', '0', 'm']:"
        " side must be one of ('right', 'left'), got 'middle'"
    ),
}


class TestBadInput:
    """Out-of-range CLI values and unreadable CSVs are typed errors: exit 2, nothing written."""

    @pytest.mark.parametrize(
        "case",
        [
            "train_fold_too_high",
            "train_fold_negative",
            "predict_fold_too_high",
            "predict_fold_negative",
            "evaluate_missing_csv",
            "ensemble_directory",
            "csv_not_utf8",
            "manifest_not_utf8",
            "probs_sum_to_1_1",
            "side_not_a_side",
            "evaluate_nan_row",
            "ensemble_nan_row",
            "phantom_zero_studies",
            "preprocess_jobs_zero",
            "preprocess_jobs_negative",
            "evaluate_header_only",
            "ensemble_header_only",
            "manifest_five_fields",
            "config_is_a_list",
            "evaluate_same_stem",
            "ensemble_carriage_return_id",
            "evaluate_unknown_patient",
            "ensemble_unknown_patient",
            "ensemble_no_malignant",
        ],
    )
    def test_exits_two_without_traceback(self, predicted, tmp_path, case, capsys):
        run = tmp_path / "run"
        shutil.copytree(predicted, run)
        (run / "predictions" / "ensemble.csv").unlink(missing_ok=True)  # so none is left behind
        manifest = run / "manifest.csv"
        bad_csv = tmp_path / "bad.csv"
        base = ["--manifest", str(manifest), "--out", str(run)]
        fold = "7" if case.endswith("too_high") else "-1"
        if case.startswith("train_fold"):
            config = _write_config(tmp_path)
            argv = ["train", *base, "--config", str(config), "--fold", fold]
        elif case.startswith("predict_fold"):
            # models an unchecked `train --fold` would have written
            for w in ("natural", "inverse"):
                model = run / "models" / f"{w}_fold0.json"
                shutil.copy(model, model.with_name(f"{w}_fold{fold}.json"))
            argv = ["predict", "--out", str(run), "--fold", fold]
        elif case == "evaluate_missing_csv":
            argv = ["evaluate", *base, str(tmp_path / "absent.csv")]
        elif case == "ensemble_directory":
            argv = ["ensemble", *base, str(run / "predictions")]
        elif case == "csv_not_utf8":
            bad_csv.write_bytes(_PREDICTION_HEADER.encode() + b"p000,left,1,0,0,m\xff\n")
            argv = ["evaluate", *base, str(bad_csv)]
        elif case == "manifest_not_utf8":
            manifest.write_bytes(manifest.read_bytes() + b"p\xe9,a,b;c,,benign,benign\n")
            argv = ["evaluate", *base, str(run / "predictions" / "natural_fold0.csv")]
        elif case == "probs_sum_to_1_1":
            bad_csv.write_text(_PREDICTION_HEADER + "p000,left,0.5,0.3,0.3,m\n")
            argv = ["evaluate", *base, str(bad_csv)]
        elif case == "side_not_a_side":
            bad_csv.write_text(_PREDICTION_HEADER + "p000,middle,1,0,0,m\n")
            argv = ["ensemble", *base, str(bad_csv)]
        elif case.endswith("nan_row"):
            # a fold's real predictions with one row's probabilities made NaN
            rows = (run / "predictions" / "natural_fold0.csv").read_text().splitlines(True)
            fields = rows[1].split(",")
            fields[2:5] = ["nan"] * 3
            bad_csv.write_text(rows[0] + ",".join(fields) + "".join(rows[2:]))
            argv = [case.split("_")[0], *base, str(bad_csv)]
        elif case == "phantom_zero_studies":
            argv = ["phantom", "--n", "0", "--out", str(run)]
        elif case.startswith("preprocess_jobs"):
            jobs = "0" if case.endswith("zero") else "-3"
            argv = ["preprocess", *base, "--config", str(_write_config(tmp_path)), "--jobs", jobs]
        elif case.endswith("header_only"):
            bad_csv.write_text(_PREDICTION_HEADER)
            csvs = [str(bad_csv)] * (2 if case.startswith("ensemble") else 1)
            argv = [case.split("_")[0], *base, *csvs]
        elif case == "manifest_five_fields":
            lines = manifest.read_text().splitlines(True)
            lines[1] = lines[1].rsplit(",", 1)[0] + "\n"
            manifest.write_text("".join(lines))
            argv = ["evaluate", *base, str(run / "predictions" / "natural_fold0.csv")]
        elif case == "config_is_a_list":
            config = tmp_path / "list.json"
            config.write_text("[1, 2]")
            argv = ["train", *base, "--config", str(config)]
        elif case == "evaluate_same_stem":
            # both would score into metrics/natural_fold0.json, the second over the first
            first = run / "predictions" / "natural_fold0.csv"
            (tmp_path / "other").mkdir()
            second = tmp_path / "other" / first.name
            shutil.copy(run / "predictions" / "inverse_fold0.csv", second)
            argv = ["evaluate", *base, str(first), str(second)]
        elif case == "ensemble_carriage_return_id":
            # the reader gives back a quoted \r; the writer would leave it bare
            bad_csv.write_text(_PREDICTION_HEADER + '"p\r000",left,1,0,0,m\n', newline="")
            argv = ["ensemble", *base, str(bad_csv)]
            shutil.rmtree(run / "predictions")  # a refused write must not make it
        elif case == "ensemble_no_malignant":
            # p000 has no lesion on either side, so the average cannot be scored
            bad_csv.write_text(_PREDICTION_HEADER + "p000,left,1,0,0,m\np000,right,1,0,0,m\n")
            argv = ["ensemble", *base, str(bad_csv)]
        elif case.endswith("unknown_patient"):
            bad_csv.write_text(_PREDICTION_HEADER + "zzz,left,1,0,0,m\n")
            command = case.split("_")[0]
            # an ensemble member after a good one, whose rows ensemble.csv would hold
            good = [str(run / "predictions" / "natural_fold0.csv")] * (command == "ensemble")
            argv = [command, *base, *good, str(bad_csv)]
        # nothing written: no file and no directory
        before = sorted(run.rglob("*"))
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err
        if case in _BAD_INPUT_ERRORS:
            assert err == f"error: {_BAD_INPUT_ERRORS[case].format(tmp=tmp_path)}\n"
        assert sorted(run.rglob("*")) == before
        assert not (run / "predictions" / "ensemble.csv").exists()


@pytest.mark.parametrize(
    "command",
    [
        "phantom", "preprocess", "split", "train", "predict", "evaluate", "ensemble",
        "augment-preview",
    ],
)
def test_out_naming_a_file_exits_two(predicted, tmp_path, command, capsys):
    """Every stage that makes a directory under --out reports a file there as a typed error."""
    afile = tmp_path / "afile"
    afile.write_text("not a directory")
    manifest = ["--manifest", str(predicted / "manifest.csv")]
    config = ["--config", str(_write_config(tmp_path))]
    csv_path = str(predicted / "predictions" / "natural_fold0.csv")
    argv = {
        "phantom": ["--n", "1"],
        "preprocess": [*manifest, *config],
        "split": [*manifest, *config],
        "train": [*manifest, *config],
        "predict": config,
        "evaluate": [*manifest, csv_path],
        "ensemble": [*manifest, csv_path],
        "augment-preview": ["--stack", str(predicted / "stacks" / "p000_left.mct")],
    }[command]
    capsys.readouterr()
    assert main([command, *argv, "--out", str(afile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "Traceback" not in err
    assert afile.read_text() == "not a directory"


def _mutated(base: bytes, rng, end: int) -> bytes:
    """base with 1–8 random bytes of base[:end] replaced; a quarter of the time, also truncated."""
    buf = bytearray(base)
    for _ in range(rng.integers(1, 9)):
        buf[int(rng.integers(0, end))] = int(rng.integers(0, 256))
    if rng.random() < 0.25:
        buf = buf[: int(rng.integers(0, len(buf)))]
    return bytes(buf)


class TestStackFuzz:
    def test_fuzzed_stacks_never_crash(self, cohort, tmp_path):
        """Mutated headers/metadata and truncations give a MipStack or a typed error."""
        rng = np.random.default_rng(4321)
        base = (cohort / "stacks" / "p000_left.mct").read_bytes()
        _, meta_end = _meta_span(base)
        (tmp_path / "stacks").mkdir()
        path = tmp_path / "stacks" / "p000_left.mct"
        outcomes = {"ok": 0, "err": 0}
        for _ in range(1500):
            path.write_bytes(_mutated(base, rng, meta_end))
            try:
                assert isinstance(RunDir(tmp_path).read_stack("p000", "left"), MipStack)
                outcomes["ok"] += 1
            except MipclassError:
                outcomes["err"] += 1
        assert outcomes["ok"] + outcomes["err"] == 1500
        assert outcomes["ok"] > 0 and outcomes["err"] > 0


# values a damaged or hand-edited run file may hold where a number, list or object
# belongs; 10**6 stands for a huge k, small enough that code which allocates
# by it (a range(k) set) cannot exhaust memory
_ODD_VALUES = (
    None, True, -1, 0, 7, 10**6, 1e308, float("nan"), float("inf"), "x",
    [], [1, "a"], [[1.0], [1.0, 2.0]], {}, {"p000": 0},
)


def _odd_json(doc, rng):
    """A copy of a parsed JSON document with 1–3 values at any depth replaced or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(rng.integers(1, 4)):
        node = doc
        while True:
            keys = list(node) if isinstance(node, dict) else list(range(len(node)))
            key = keys[int(rng.integers(0, len(keys)))]
            child = node[key]
            if isinstance(child, (dict, list)) and child and rng.random() < 0.7:
                node = child
                continue
            if isinstance(node, dict) and rng.random() < 0.1:
                del node[key]
            else:
                node[key] = copy.deepcopy(_ODD_VALUES[int(rng.integers(0, len(_ODD_VALUES)))])
            break
    return doc


class TestRunFileFuzz:
    """Mutated folds.json and model files load as a valid object or fail typed;
    whatever loads, predict then finishes or exits 2 with an error line.

    Half the rounds mutate bytes and truncate as TestStackFuzz does, which
    rarely leaves valid JSON; the other half replace values in the parsed
    document, which reaches the checks behind the JSON parser.
    """

    ROUNDS = 600

    def _fuzz(self, trained, tmp_path, capsys, name: str, load, seed: int) -> None:
        run = tmp_path / "run"
        shutil.copytree(trained, run, ignore=shutil.ignore_patterns("predictions", "metrics"))
        path = run / name
        base = path.read_bytes()
        doc = json.loads(base)
        rng = np.random.default_rng(seed)
        outcomes = {"ok": 0, "err": 0}
        argv = ["predict", "--out", str(run), "--weighting", "natural", "--fold", "0"]
        for _ in range(self.ROUNDS):
            if rng.random() < 0.5:
                path.write_bytes(_mutated(base, rng, len(base)))
            else:
                path.write_bytes(json.dumps(_odd_json(doc, rng)).encode("utf-8"))
            try:
                load(run)
            except MipclassError:
                outcomes["err"] += 1
                continue
            outcomes["ok"] += 1
            capsys.readouterr()
            if main(argv) != 0:
                err = capsys.readouterr().err
                assert err.startswith("error: ")
                assert "Traceback" not in err
        assert outcomes["ok"] + outcomes["err"] == self.ROUNDS
        assert outcomes["ok"] > 0 and outcomes["err"] > 0

    def test_fuzzed_folds_never_crash(self, trained, tmp_path, capsys):
        def load(run):
            assert isinstance(RunDir(run).read_folds(), FoldPlan)

        self._fuzz(trained, tmp_path, capsys, "folds.json", load, seed=8765)

    def test_fuzzed_models_never_crash(self, trained, tmp_path, capsys):
        def load(run):
            assert isinstance(RunDir(run).read_model("natural", 0), HeadParams)

        self._fuzz(trained, tmp_path, capsys, "models/natural_fold0.json", load, seed=5678)


class TestAugmentPreview:
    def test_stack_without_metadata_exits_two(self, cohort, tmp_path, capsys):
        stack_path = tmp_path / "p000_left.mct"
        blob = read_blob(cohort / "stacks" / "p000_left.mct")
        write_blob(TensorBlob(blob.data, meta={}), stack_path)
        capsys.readouterr()
        rc = main(["augment-preview", "--stack", str(stack_path), "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_u64_exits_two(self, cohort, tmp_path, seed, capsys):
        stack_path = cohort / "stacks" / "p000_left.mct"
        out = tmp_path / "o"
        capsys.readouterr()
        argv = ["augment-preview", "--stack", str(stack_path), "--seed", seed, "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --seed: seed must be in [0, ") and err.count("\n") == 1
        assert not out.exists()

    def test_writes_augmented_blob(self, cohort, tmp_path):
        stack_path = cohort / "stacks" / "p000_left.mct"
        rc = main(
            ["augment-preview", "--stack", str(stack_path), "--seed", "7", "--out", str(tmp_path)]
        )
        assert rc == 0
        out = tmp_path / "p000_left_aug7.mct"
        assert out.exists()
        from mipclass.mipbuild import stack_from_blob

        stack = stack_from_blob(read_blob(out))
        assert stack.meta["augment_seed"] == 7
        assert "augment_applied" in stack.meta


class TestMainDispatch:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_seed_flag_overrides_config_seed(self, tmp_path):
        run = tmp_path / "run"
        phantom.write_cohort(6, seed=0, out_dir=run)
        cfg = _write_config(tmp_path, k=2, seed=0)
        base = ["--manifest", str(run / "manifest.csv"), "--config", str(cfg), "--out", str(run)]
        assert main(["split", *base]) == 0
        first = json.loads((run / "folds.json").read_text())
        assert main(["split", *base, "--seed", "99"]) == 0
        second = json.loads((run / "folds.json").read_text())
        assert first["seed"] == 0
        assert second["seed"] == 99

    def test_runtime_is_numpy_only(self):
        """No CLI process imports scipy, and the package's runtime dependencies
        name numpy only: scipy is the tests' oracle, not the program's."""
        for argv in (["-c", "import mipclass"], ["-m", "mipclass", "--help"]):
            proc = run_capped(["-X", "importtime", *argv], 3 << 30)
            assert proc.returncode == 0, proc.stderr
            imported = {
                line.rsplit("|", 1)[1].strip()
                for line in proc.stderr.splitlines()
                if line.startswith("import time:")
            }
            assert {"numpy", "mipclass.pipeline_cli", "mipclass.augment2d"} <= imported
            assert not {m for m in imported if m == "scipy" or m.startswith("scipy.")}
        tomllib = pytest.importorskip("tomllib")
        pyproject = tomllib.loads((Path(__file__).parents[1] / "pyproject.toml").read_text())
        names = [re.match(r"[\w.-]+", dep).group() for dep in pyproject["project"]["dependencies"]]
        assert names == ["numpy"]

    def test_readme_quickstart_parses(self):
        """Every ``mipclass`` line of the README's quickstart is a command the parser takes."""
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command-line quickstart", 1)[1].split("```bash\n", 1)[1]
        lines = [line for line in block.split("```", 1)[0].splitlines() if line]
        assert len(lines) == 8 and all(line.startswith("mipclass ") for line in lines)
        for line in lines:
            argv = shlex.split(line, comments=True)[1:]
            assert _build_parser().parse_args(argv).command == argv[0]

    def test_each_subcommand_takes_its_own_flags(self):
        """The option strings, and positionals by name, of every subcommand."""
        sub = next(
            a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        taken = {
            name: [s for a in p._actions for s in a.option_strings or [a.dest]]
            for name, p in sub.choices.items()
        }
        run = ["--config", "--out"]
        heads = ["--weighting", "--fold"]
        assert taken == {
            "phantom": ["-h", "--help", "--n", "--seed", "--out"],
            "preprocess": ["-h", "--help", "--manifest", *run, "--jobs"],
            "split": ["-h", "--help", "--manifest", *run, "--seed"],
            "train": ["-h", "--help", "--manifest", *run, "--seed", *heads],
            "predict": ["-h", "--help", *run, *heads],
            "evaluate": ["-h", "--help", "--manifest", "--out", "csvs"],
            "ensemble": ["-h", "--help", "--manifest", "--out", "csvs"],
            "augment-preview": ["-h", "--help", "--stack", "--seed", "--out"],
        }

    def test_error_exit_code_is_two(self, tmp_path):
        rc = main(
            [
                "preprocess",
                "--manifest",
                str(tmp_path / "absent.csv"),
                "--out",
                str(tmp_path),
            ]
        )
        assert rc == 2


# any JSON value: null, bools, ints up to 400 digits, floats with NaN, infinities
# and 1e308, short strings, and lists (of any length up to 5) and objects of them
_JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.just(10**400),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 1e308]),
    st.text(max_size=3),
)
_JSON_VALUES = st.one_of(
    st.recursive(
        _JSON_SCALARS,
        lambda inner: st.lists(inner, max_size=5)
        | st.dictionaries(st.text(max_size=3), inner, max_size=3),
        max_leaves=6,
    ),
    # lists of plain numbers, so valid and near-valid shapes and ranges are drawn too
    st.lists(st.integers(-2, 600) | st.floats(-2.0, 600.0), max_size=5),
)

_CONFIG_PATHS = [
    *[(key,) for key in ("spacing", "shape", "row_window", "norm_means", "norm_stds")],
    *[(key,) for key in ("augment", "train", "k", "seed")],
    *[("augment", f.name) for f in dataclasses.fields(AugmentPolicy)],
    *[("train", f.name) for f in dataclasses.fields(TrainConfig)],
]

_FOLDS = {"k": 2, "assignment": {"a": 0, "b": 1}, "strat_labels": {"a": 0, "b": 2}}
_FOLD_PATHS = [
    ("k",), ("assignment",), ("strat_labels",),
    ("assignment", "a"), ("assignment", "c"), ("strat_labels", "b"),
]


def _with_value(doc: dict, path: tuple, value) -> dict:
    """A copy of `doc` with the value at `path` set, making objects on the way."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node.setdefault(key, {})
    node[path[-1]] = value
    return doc


def _assert_declared_kinds(obj) -> None:
    """Every field of a dataclass holds what its annotation declares: an int or a
    finite float (never a bool), a tuple of exactly its length, a mapping of them."""

    def number(value, kind) -> None:
        assert not isinstance(value, bool)
        assert isinstance(value, int) if kind is int else math.isfinite(float(value))

    hints = typing.get_type_hints(type(obj))
    for f in dataclasses.fields(obj):
        kind, value = hints[f.name], getattr(obj, f.name)
        origin, args = typing.get_origin(kind), typing.get_args(kind)
        if dataclasses.is_dataclass(kind):
            _assert_declared_kinds(value)
        elif origin is tuple:
            assert isinstance(value, tuple) and len(value) == len(args)
            for item, item_kind in zip(value, args):
                number(item, item_kind)
        elif origin is Mapping:
            for item in value.values():
                number(item, args[1])
        else:
            number(value, kind)


# the spec tables each config class was checked against before its ranges moved
# onto its fields, row for row; AugmentPolicy's listed its probabilities first
_SPEC_TABLES = {
    NormConstants: {
        "means": (float, 4, -math.inf, math.inf),
        "stds": (float, 4, POSITIVE, math.inf),
    },
    BuildConfig: {
        "spacing": (float, 3, POSITIVE, math.inf),
        "shape": (int, 3, 1, math.inf),
        "row_window": (int, 0, 1, math.inf),
    },
    AugmentPolicy: {
        **dict.fromkeys(
            ("hflip_p", "vflip_p", "rotate_p", "affine_p", "brightness_p", "contrast_p",
             "noise_p", "blur_p", "dropout_p"),
            (float, 0, 0.0, 1.0),
        ),
        **dict.fromkeys(
            ("rotate_deg", "shear_deg", "translate_frac", "brightness_delta", "contrast_delta"),
            (float, 0, -math.inf, math.inf),
        ),
        "scale_range": (float, 2, POSITIVE, math.inf),
        "noise_sigma": (float, 0, 0.0, math.inf),
        "blur_sigma": (float, 0, 0.0, 32.0),
        "dropout_max_holes": (int, 0, 0, 1024),
        "dropout_max_size": (int, 0, 0, math.inf),
    },
    TrainConfig: {
        "epochs": (int, 0, 1, math.inf),
        "batch": (int, 0, 1, math.inf),
        "lr_max": (float, 0, 0.0, math.inf),
        "warmup_epochs": (int, 0, 0, math.inf),
        "lr_min": (float, 0, 0.0, math.inf),
        "momentum": (float, 0, 0.0, math.nextafter(1.0, 0.0)),
    },
    PipelineConfig: {
        "k": (int, 0, 2, math.inf),
        "seed": (int, 0, 0, 2**128 - 1),
    },
}


class TestFieldSpecs:
    """Each config field's kind, length and range are declared once, on the field."""

    @pytest.mark.parametrize("cls", list(_SPEC_TABLES), ids=lambda cls: cls.__name__)
    def test_specs_match_the_tables(self, cls):
        # by repr, so a bound of 0 is not taken for 0.0: messages print them apart
        specs = {name: repr(spec) for name, spec in field_specs(cls).items()}
        assert specs == {name: repr(spec) for name, spec in _SPEC_TABLES[cls].items()}
        # fields are checked, and the first bad one named, in declaration order
        assert list(field_specs(cls)) == [f.name for f in dataclasses.fields(cls) if f.name in specs]

    @pytest.mark.parametrize("cls", list(_SPEC_TABLES), ids=lambda cls: cls.__name__)
    def test_every_number_field_has_a_spec(self, cls):
        hints = typing.get_type_hints(cls)
        numbers = [
            f.name for f in dataclasses.fields(cls)
            if hints[f.name] in (int, float) or typing.get_origin(hints[f.name]) is tuple
        ]
        assert numbers and set(field_specs(cls)) == set(numbers)


class TestSchemaProperties:
    """Whatever one JSON value a config or folds.json holds at one key, loading
    gives fields of their declared kinds or raises SchemaMismatch, nothing else."""

    @settings(max_examples=200)
    @given(path=st.sampled_from(_CONFIG_PATHS), value=_JSON_VALUES)
    # valid lists, which must come back as tuples, and edges of each rule
    @example(path=("spacing",), value=[0.5, 0.5, 2])
    @example(path=("shape",), value=[8, 8, 4])
    @example(path=("norm_means",), value=[0, 0, 0, 0])
    @example(path=("augment", "scale_range"), value=[0.8, 1.2])
    @example(path=("shape",), value=[True, 8, 4])
    @example(path=("train", "lr_max"), value=10**400)
    def test_load_config(self, tmp_path_factory, path, value):
        config = tmp_path_factory.getbasetemp() / "property_config.json"
        config.write_text(json.dumps(_with_value({}, path, value)))
        try:
            loaded = load_config(config)
        except SchemaMismatch:
            return
        _assert_declared_kinds(loaded)

    @settings(max_examples=150)
    @given(path=st.sampled_from(_FOLD_PATHS), value=_JSON_VALUES, patient=st.just("a"))
    @example(path=("assignment", "a"), value=2, patient="a")  # fold k
    @example(path=("assignment", "a"), value=True, patient="a")
    @example(path=("k",), value=True, patient="a")
    @example(path=("strat_labels", "b"), value=1.5, patient="a")
    @example(path=("strat_labels", "b"), value=3, patient="a")
    # the maps as lists of [id, value] pairs, which dict() once read as objects
    @example(path=("assignment",), value=[["a", 0], ["b", 1]], patient="a")
    @example(path=("strat_labels",), value=[["a", 0], ["b", 2]], patient="a")
    # patient "a" renamed, in both maps, to an id that is no plain file name
    @example(path=("k",), value=2, patient="../escape")
    @example(path=("k",), value=2, patient="p\r0")
    def test_read_folds(self, tmp_path_factory, path, value, patient):
        out = tmp_path_factory.getbasetemp()
        folds = copy.deepcopy(_FOLDS)
        for key in ("assignment", "strat_labels"):
            folds[key][patient] = folds[key].pop("a")
        doc = _with_value(folds, path, value)
        (out / "folds.json").write_text(json.dumps(doc))
        try:
            plan = RunDir(out).read_folds()
        except SchemaMismatch:
            return
        _assert_declared_kinds(plan)
        assert all(0 <= fold < plan.k for fold in plan.assignment.values())
        # a plan loads only from the objects split writes, keyed by plain file names
        assert (plan.assignment, plan.strat_labels) == (doc["assignment"], doc["strat_labels"])
        assert all(plain_file_name(p) for p in plan.assignment)


# names of run-directory artifacts, and the calls that read or write a file,
# which only RunDir may use in pipeline_cli's stages
_RUN_DIR_NAMES = {"stacks", "models", "predictions", "metrics", "folds.json", "preprocess_report.json"}
_FILE_CALLS = {
    "_make_dir", "_write_file", "_write_text", "_read_json", "read_blob", "write_blob",
    "write_predictions_csv",
}


_STAGE_HELPERS = ("_preprocess_one", "_features", "_read_predictions", "_score", "_write_score")


def test_stages_leave_the_run_directory_to_run_dir():
    """No stage function builds a run-directory path or opens a file there itself:
    every cmd_* but augment-preview (whose --out is no run directory) and the
    helpers they featurize, read and score with name artifacts to RunDir."""
    stages = [
        node for node in ast.parse(Path(inspect.getfile(RunDir)).read_text()).body
        if isinstance(node, ast.FunctionDef) and node.name != "cmd_augment_preview"
        and (node.name.startswith("cmd_") or node.name in _STAGE_HELPERS)
    ]
    assert len(stages) == 12  # seven stages' cmd_* and five helpers
    leaks = []
    for node in stages:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                if sub.value in _RUN_DIR_NAMES or sub.value.endswith((".json", ".mct")):
                    leaks.append(f"{node.name}: {sub.value!r}")
            elif isinstance(sub, ast.Call):
                func = sub.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in _FILE_CALLS:
                    leaks.append(f"{node.name}: {name}()")
    assert leaks == []


def test_one_feature_path():
    """train and predict featurize breasts only through _features: no other
    function of pipeline_cli reads a stack or extracts features."""
    callers = set()
    for node in ast.parse(Path(inspect.getfile(RunDir)).read_text()).body:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                func = sub.func
                if (isinstance(func, ast.Name) and func.id == "extract_features") or (
                    isinstance(func, ast.Attribute) and func.attr == "read_stack"
                ):
                    callers.add(node.name)
    assert callers == {"_features"}


# text for a patient id, weighted toward what no plain file name holds
_ID_TEXT = st.sampled_from(["p0", "p.1"]) | st.text(
    st.sampled_from("p0./\\\r\n\0\x7f") | st.characters(blacklist_categories=("Cs",)), max_size=4
)
_META_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-5, 5) | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.tuples(inner)
    | st.dictionaries(st.text(max_size=3), inner, max_size=2),
    max_leaves=4,
)
# metadata keys, those stack_to_blob writes beside the metadata included
_META_KEYS = st.sampled_from(
    ["channel_order", "norm_means", "norm_stds", "patient_id", "side", "normalized", "norm_bounds"]
) | st.text(max_size=3)
_FLOAT_PAIRS = st.tuples(st.floats(), st.floats())


@st.composite
def _stacks(draw) -> MipStack:
    """A MipStack whose metadata, bounds and id may or may not survive a write."""
    values = draw(st.lists(st.floats(0, 10, width=32), min_size=1, max_size=4))
    meta = draw(st.sampled_from([{}, {"norm_means": [0.1, 0.2, 0.3, 0.4], "norm_stds": [1, 2, 3, 4]}]))
    meta.update(draw(st.dictionaries(_META_KEYS, _META_VALUES, max_size=2)))
    ordered = st.lists(st.floats(-10, 10), min_size=8, max_size=8).map(
        lambda v: tuple(tuple(sorted(v[i : i + 2])) for i in range(0, 8, 2))
    )
    return MipStack(
        channels=np.resize(np.array(values, np.float32), (4, 2, 3)),
        side=draw(st.sampled_from(SIDES)),
        patient_id=draw(_ID_TEXT),
        normalized=draw(st.booleans()),
        norm_bounds=draw(st.none() | ordered | st.lists(_FLOAT_PAIRS, min_size=3, max_size=5)),
        meta=meta,
    )


def _stack_fields(s: MipStack) -> tuple:
    return (
        s.channels.tobytes(), s.channels.shape, s.patient_id, s.side, s.normalized, s.norm_bounds,
        s.meta,
    )


@st.composite
def _fold_plans(draw) -> FoldPlan:
    ids = draw(st.lists(_ID_TEXT, min_size=2, max_size=5, unique=True))
    k = draw(st.integers(2, len(ids)))
    labels = {p: draw(st.integers(0, 2)) for p in ids}
    return FoldPlan(k, {p: i % k for i, p in enumerate(ids)}, labels)


def _paths_besides(root: Path, skip: Path) -> list[Path]:
    """Every file and directory under `root` but `skip` and what it holds."""
    return [p for p in root.rglob("*") if p != skip and skip not in p.parents]


class TestRunDirFormats:
    """Each RunDir writer writes what its reader gives back unchanged, and refuses,
    writing nothing, whatever its reader would refuse or read back otherwise.

    The oracle is the file a writer that checks nothing leaves, read back by
    the reader, as in the manifest's TestManifestFormat.
    """

    @settings(max_examples=300, deadline=None)
    @given(stack=_stacks())
    def test_stack(self, stack):
        breast = (stack.patient_id, stack.side)
        with tempfile.TemporaryDirectory() as tmp:
            unchecked, run = RunDir(Path(tmp) / "unchecked"), RunDir(Path(tmp) / "run")
            faithful = plain_file_name(stack.patient_id)  # else the reader refuses its path
            if faithful:
                path = unchecked.root / "stacks" / f"{stack.patient_id}_{stack.side}.mct"
                path.parent.mkdir(parents=True)
                write_blob(stack_to_blob(stack), path)
                try:
                    faithful = _stack_fields(unchecked.read_stack(*breast)) == _stack_fields(stack)
                except SchemaMismatch:
                    faithful = False
            if faithful:
                run.write_stack(stack)
                assert (run.root / "stacks" / path.name).read_bytes() == path.read_bytes()
                assert _stack_fields(run.read_stack(*breast)) == _stack_fields(stack)
            else:
                with pytest.raises(SchemaMismatch, match="not a plain file name|cannot write"):
                    run.write_stack(stack)
                assert _paths_besides(Path(tmp), unchecked.root) == []

    @settings(max_examples=300, deadline=None)
    @given(plan=_fold_plans(), seed=st.integers(0, 2**128 - 1))
    def test_folds(self, plan, seed):
        with tempfile.TemporaryDirectory() as tmp:
            unchecked, run = RunDir(Path(tmp) / "unchecked"), RunDir(Path(tmp) / "run")
            unchecked.root.mkdir()
            text = json.dumps({**dataclasses.asdict(plan), "seed": seed}, indent=2, sort_keys=True)
            (unchecked.root / "folds.json").write_text(text + "\n")
            try:
                faithful = unchecked.read_folds() == plan
            except SchemaMismatch:
                faithful = False
            if faithful:
                run.write_folds(plan, seed)
                assert (run.root / "folds.json").read_text() == text + "\n"
                assert run.read_folds() == plan
            else:
                with pytest.raises(SchemaMismatch, match="cannot write"):
                    run.write_folds(plan, seed)
                assert _paths_besides(Path(tmp), unchecked.root) == []

    @settings(max_examples=100, deadline=None)
    @given(
        weighting=st.sampled_from(["natural", "inverse", "x"]),
        fold=st.integers(-1, 9),
        dim=st.sampled_from([feature_dim(), feature_dim() - 1, 1]),
        values=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=4),
    )
    def test_model(self, weighting, fold, dim, values):
        params = HeadParams(W=np.resize(values, (dim, 3)), b=np.resize(values[::-1], 3))
        fields = (params.W.tolist(), params.b.tolist())
        model_id = f"{weighting}_fold{fold}"
        record = {"model_id": model_id, "weighting": weighting, "fold": fold}
        record.update(W=fields[0], b=fields[1])
        with tempfile.TemporaryDirectory() as tmp:
            unchecked, run = RunDir(Path(tmp) / "unchecked"), RunDir(Path(tmp) / "run")
            (unchecked.root / "models").mkdir(parents=True)
            # the reader looks at no other key of the record
            (unchecked.root / "models" / f"{model_id}.json").write_text(json.dumps(record))
            try:
                back = unchecked.read_model(weighting, fold)
                faithful = (back.W.tolist(), back.b.tolist()) == fields
            except SchemaMismatch:
                faithful = False
            spec = HeadSpec(rows=[0], labels=[0], weights=uniform_weights(), seed=0)

            def write():
                result = TrainResult(params, np.array([0.5]))
                return run.write_model(weighting, fold, spec, result, PipelineConfig())

            if faithful:
                write()
                back = run.read_model(weighting, fold)
                assert (back.W.tolist(), back.b.tolist()) == fields
            else:
                with pytest.raises(SchemaMismatch, match="cannot write"):
                    write()
                assert _paths_besides(Path(tmp), unchecked.root) == []


def _write_exact_weights_model(run: RunDir) -> None:
    """A head whose class weights are exact fractions, which JSON cannot hold."""
    third = fractions.Fraction(1, 3)
    spec = HeadSpec(rows=[0], labels=[0], weights=ClassWeights((third,) * 3, (1, 1, 1)), seed=0)
    params = HeadParams(np.zeros((feature_dim(), 3)), np.zeros(3))
    run.write_model("natural", 0, spec, TrainResult(params, np.array([0.5])), PipelineConfig())


def _write_set_meta_stack(run: RunDir) -> None:
    run.write_stack(MipStack(np.ones((4, 2, 2), np.float32), "left", "p0", meta={"ids": {1}}))


@pytest.mark.parametrize(
    "write, path, message",
    [
        (_write_exact_weights_model, "models/natural_fold0.json",
         "Object of type Fraction is not JSON serializable"),
        (_write_set_meta_stack, "stacks/p0_left.mct",
         "Object of type set is not JSON serializable"),
    ],
    ids=["model_fraction_weights", "stack_set_meta"],
)
def test_run_dir_refuses_what_json_cannot_hold(tmp_path, write, path, message):
    """A record JSON cannot serialize is refused by name, and nothing is made."""
    with pytest.raises(SchemaMismatch) as refused:
        write(RunDir(tmp_path / "run"))
    assert str(refused.value) == f"cannot write {tmp_path}/run/{path}: {message}"
    assert list(tmp_path.iterdir()) == []
