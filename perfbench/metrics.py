"""Every metric the benchmark reports, with its unit, direction and purpose.

END_TO_END metrics come from untraced repetitions (``--trace 0``);
PER_LAYER metrics from traced ones (``--trace 1``).  ``moves`` names the
end-to-end metric and workload a change to that layer should move: the
prediction an optimisation is checked against.  BENCHMARK.json lists the
same names, units and directions; run.py refuses to start if they differ.

Per-layer ``.s`` is total busy seconds summed over calls (and over
threads, were preprocess run with more than one job); ``.self_s``
excludes time covered by child spans.  ``_mb``, ``voxels_out`` and ``_ratio`` values are computed from
shapes, file sizes and call arguments, not measured bandwidth.  A ratio
over zero calls is reported as 1.0: nothing was wasted.
"""

from __future__ import annotations

from typing import NamedTuple


class Metric(NamedTuple):
    name: str
    unit: str
    better: str  # "lower" or "higher"
    moves: str  # per-layer: what a change here should move; end-to-end: what it covers
    bound: float | None = None  # end-to-end only: allowed worsening, share of median


# Bounds: on a shared 2-core machine, wall times of one run drift by about
# 10% from run to run (interquartile range over ten seeds), whatever the
# number of repetitions in a run, so times get the widest bound allowed.
# Peak memory repeats within 1%.
END_TO_END = (
    Metric("setup_s", "s", "lower",
           "phantom stage (NIfTI writes) plus imports, per fresh process", 0.25),
    Metric("preprocess_s", "s", "lower", "standardize + MIP stacks + blob writes", 0.25),
    Metric("train_s", "s", "lower", "every (weighting, fold) head", 0.25),
    Metric("pipeline_s", "s", "lower",
           "start of preprocess to end of evaluate: time to a cross-validated result", 0.25),
    Metric("peak_rss_mb", "MB", "lower", "peak resident memory of the run's process", 0.1),
)

LAYERS = ("tensorio", "volume", "geometry", "mipbuild", "augment2d", "classhead",
          "evalkit", "pipeline_cli")
STAGES = ("phantom", "preprocess", "split", "train", "predict", "ensemble", "evaluate")

_PREPROCESS_ALL = "preprocess_s on every workload"
_PREPROCESS_BIG = "preprocess_s on accept30 and publish10aug"
_TRAIN_DENSE = "train_s on accept30"
_GUARD = "pipeline_s on every workload (guard: under 1%)"


def _calls_s(layer: str, moves: str) -> tuple[Metric, Metric]:
    return (
        Metric(f"{layer}.calls", "count", "lower", moves),
        Metric(f"{layer}.s", "s", "lower", moves),
    )


PER_LAYER = (
    # tensorio
    *_calls_s("tensorio.read_nifti", _PREPROCESS_ALL),
    *_calls_s("tensorio.write_blob", _PREPROCESS_ALL),
    *_calls_s("tensorio.write_nifti", "setup_s on every workload, most on accept30"),
    Metric("tensorio.write_nifti.raw_mb", "MB", "lower", "setup_s (computed payload size)"),
    Metric("tensorio.write_nifti.gz_mb", "MB", "lower", "setup_s (file size on disk)"),
    *_calls_s("tensorio.read_blob", "train_s on accept30"),
    Metric("tensorio.read_blob.unique_ratio", "ratio", "higher", "train_s on accept30"),
    Metric("tensorio.self_s", "s", "lower", "setup_s and preprocess_s"),
    # volume
    Metric("volume.dominant_axes.calls", "count", "lower",
           "preprocess_s on accept30 (one call per Volume construction)"),
    Metric("volume.self_s", "s", "lower", "preprocess_s on accept30"),
    # geometry
    *_calls_s("geometry.reorient_canonical", _PREPROCESS_BIG),
    *_calls_s("geometry.resample", _PREPROCESS_BIG),
    *_calls_s("geometry.crop_or_pad", f"{_PREPROCESS_BIG}; peak_rss_mb on publish10aug"),
    *_calls_s("geometry.localize_rows", _PREPROCESS_BIG),
    *_calls_s("geometry.extract_rows", _PREPROCESS_BIG),
    *_calls_s("geometry.split_lr", _PREPROCESS_BIG),
    Metric("geometry.resample.voxels_out", "count", "lower", _PREPROCESS_BIG),
    Metric("geometry.crop_or_pad.mb_out", "MB", "lower", "peak_rss_mb on publish10aug"),
    Metric("geometry.standardize.useful_ratio", "ratio", "higher",
           "preprocess_s on both workloads (distinct resample inputs / calls)"),
    Metric("geometry.self_s", "s", "lower", _PREPROCESS_BIG),
    # mipbuild
    *_calls_s("mipbuild.build_stack", _PREPROCESS_ALL),
    Metric("mipbuild.build_stack.p50_ms", "ms", "lower", _PREPROCESS_ALL),
    Metric("mipbuild.build_stack.tail_ms", "ms", "lower",
           "preprocess_s on accept30 (the slowest studies)"),
    Metric("mipbuild.apply_mask.s", "s", "lower", _PREPROCESS_BIG),
    Metric("mipbuild.subtract_clamped.s", "s", "lower", _PREPROCESS_BIG),
    Metric("mipbuild.mip_z.s", "s", "lower", _PREPROCESS_BIG),
    Metric("mipbuild.normalize_stack.s", "s", "lower", _PREPROCESS_ALL),
    Metric("mipbuild.self_s", "s", "lower", _PREPROCESS_ALL),
    # augment2d
    *_calls_s("augment2d.augment", "train_s on publish10aug; 0 calls on accept30"),
    Metric("augment2d.augment.unique_ratio", "ratio", "higher",
           "train_s on publish10aug (distinct (patient, side, epoch) / calls)"),
    Metric("augment2d.self_s", "s", "lower", "train_s on publish10aug"),
    # classhead
    *_calls_s("classhead.extract_features", "train_s on both workloads"),
    Metric("classhead.extract_features.unique_ratio", "ratio", "higher",
           "train_s on both workloads (distinct stacks / calls)"),
    *_calls_s("classhead.train_head", _TRAIN_DENSE),
    *_calls_s("classhead.sgd_epoch", _TRAIN_DENSE),
    *_calls_s("classhead.forward", _TRAIN_DENSE),
    Metric("classhead.self_s", "s", "lower", "train_s on every workload"),
    # evalkit
    Metric("evalkit.stratified_kfold.s", "s", "lower", _GUARD),
    *_calls_s("evalkit.evaluate", _GUARD),
    Metric("evalkit.ensemble_all.s", "s", "lower", _GUARD),
    Metric("evalkit.read_predictions_csv.s", "s", "lower", _GUARD),
    Metric("evalkit.write_predictions_csv.s", "s", "lower", _GUARD),
    Metric("evalkit.self_s", "s", "lower", _GUARD),
    # pipeline_cli: a stage's self time is its argument parsing, JSON
    # writes and loops, outside every traced call
    *(
        Metric(f"pipeline_cli.{stage}.self_s", "s", "lower",
               "setup_s on every workload" if stage == "phantom" else "pipeline_s on every workload")
        for stage in STAGES
    ),
    Metric("pipeline_cli.preprocess.failed_studies", "count", "lower", "correctness guard"),
    Metric("pipeline_cli.train.heads", "count", "higher", "train_s (2 weightings x k folds)"),
    Metric("pipeline_cli.self_s", "s", "lower", "pipeline_s on every workload"),
    # the benchmark's own cost
    Metric("trace.pipeline_s", "s", "lower", "none: pipeline_s with tracing on"),
    Metric("trace.overhead_s", "s", "lower", "none: traced minus untraced pipeline_s"),
    Metric("trace.counts_repeat", "bool", "higher",
           "none: 1 when every count repeats exactly across the two traced repetitions"),
)

