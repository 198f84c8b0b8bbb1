"""Mask-guided multi-channel MIP pipeline for breast DCE-MRI classification."""

from .augment2d import (
    AugmentPolicy,
    augment,
    default_policy,
    derive_seed,
)
from .classhead import (
    ClassWeights,
    HeadParams,
    HeadSpec,
    TrainConfig,
    TrainResult,
    class_weights,
    extract_features,
    feature_dim,
    forward,
    grad_weighted_ce,
    lr_schedule,
    train_heads,
    uniform_weights,
    weighted_ce,
)
from .errors import MipclassError
from .evalkit import (
    BENIGN,
    MALIGNANT,
    NO_LESION,
    FoldPlan,
    MetricsReport,
    Prediction,
    confusion,
    ensemble,
    ensemble_all,
    evaluate,
    max_label,
    overall_score,
    read_predictions_csv,
    roc_auc_micro,
    sens_at_spec,
    spec_at_sens,
    stratified_kfold,
    write_predictions_csv,
)
from .geometry import (
    Interp,
    RowWindow,
    crop_or_pad,
    cut_halves,
    localize_rows,
    reorient_canonical,
    resample,
)
from .mipbuild import (
    CHANNEL_NAMES,
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
    stack_from_blob,
    stack_to_blob,
    subtract_clamped,
)
from .pipeline_cli import Manifest, PipelineConfig, load_config, main
from .tensorio import TensorBlob, read_blob, read_nifti, write_blob, write_nifti
from .volume import Volume

__version__ = "0.1.0"
