"""Command-line pipeline: manifest in, metrics out.

Stages are separate subcommands sharing one run directory::

    phantom -> preprocess -> split -> train -> predict -> ensemble/evaluate

Every stage is deterministic given its inputs and seed, writes atomically,
and can be rerun to byte-identical outputs.  Per-study problems during
preprocessing are collected and reported rather than aborting the run;
the exit code is 0 only when nothing failed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

import numpy as np

from . import phantom
from .augment2d import AugmentPolicy, augment, default_policy, derive_seed
from .classhead import (
    DEFAULT_POOL_GRID,
    HeadParams,
    HeadSpec,
    TrainConfig,
    TrainResult,
    class_weights,
    extract_features,
    feature_dim,
    forward,
    train_heads,
    uniform_weights,
)
from .errors import (
    BadArgument,
    EmptyClass,
    IoFailure,
    MipclassError,
    MissingBlob,
    SchemaMismatch,
)
from .evalkit import (
    CLASS_NAMES,
    N_CLASSES,
    FoldPlan,
    ManifestRow,
    MetricsReport,
    Prediction,
    ensemble_all,
    evaluate,
    max_label,
    plain_file_name,
    read_manifest,
    read_predictions_csv,
    stratified_kfold,
    write_predictions_csv,
)
from .mipbuild import (
    PHILOX_MAX,
    SIDES,
    BuildConfig,
    MipStack,
    NormConstants,
    Study,
    _FieldError,
    bounded,
    build_stacks,
    check_fields,
    field_specs,
    json_numbers,
    normalize_stack,
    stack_from_blob,
    stack_to_blob,
)
from .tensorio import TensorBlob, _check_read_back, _make_dir, _write_text, read_blob, read_nifti
from .tensorio import write_blob

WEIGHTINGS = ("natural", "inverse")


# ---------------------------------------------------------------------------
# manifest


class Manifest:
    """Study table plus the directory its relative paths resolve against."""

    def __init__(self, rows: Sequence[ManifestRow], base_dir: Path):
        self.rows = tuple(rows)
        self.base_dir = Path(base_dir)
        self._by_id = {r.patient_id: r for r in rows}

    @classmethod
    def read(cls, path: str | Path) -> "Manifest":
        return cls(read_manifest(path), Path(path).parent)

    @property
    def patient_ids(self) -> list[str]:
        return [r.patient_id for r in self.rows]

    def labels_for(self, patient_id: str) -> dict[str, int]:
        """Per-side labels, keyed by ``SIDES``.

        The single label access point: training-time leakage audits wrap
        this method and assert it is never called for validation patients.
        """
        row = self._by_id.get(patient_id)
        if row is None:
            raise SchemaMismatch(
                f"patient {patient_id!r} is not in the manifest; rerun split with this manifest"
            )
        return {side: getattr(row, f"label_{side}") for side in SIDES}

    def load_study(self, patient_id: str) -> Study:
        row = self._by_id[patient_id]
        base = self.base_dir
        mask = read_nifti(base / row.mask_path) if row.mask_path else None
        return Study(
            patient_id=patient_id,
            pre=read_nifti(base / row.pre_path),
            posts=tuple(read_nifti(base / p) for p in row.post_paths),
            mask=mask,
            label_left=row.label_left,
            label_right=row.label_right,
        )


# ---------------------------------------------------------------------------
# config


@dataclass(frozen=True)
class PipelineConfig:
    """One bag of knobs for a whole run; defaults reproduce the published setup."""

    build: BuildConfig = BuildConfig()
    norm: NormConstants = NormConstants()
    policy: AugmentPolicy = default_policy()
    train: TrainConfig = TrainConfig()
    k: int = bounded(5, 2)
    # the fold shuffle keys np.random.Philox with it, which takes [0, 2**128)
    seed: int = bounded(0, 0, PHILOX_MAX)

    def __post_init__(self) -> None:
        check_fields(self, field_specs(type(self)))


# what a config key puts before the name of the field it sets, by the field's class
_KEY_PREFIX = {NormConstants: "norm_", AugmentPolicy: "augment.", TrainConfig: "train."}


def _replace_from(cls, defaults, overrides: Mapping[str, Any], section: str):
    if not isinstance(overrides, dict):
        raise SchemaMismatch(f"config section {section!r} must be a JSON object")
    known = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise SchemaMismatch(f"unknown {section} keys in config: {unknown}")
    return dataclasses.replace(defaults, **overrides)


def load_config(path: str | Path | None) -> PipelineConfig:
    """Config file (JSON) with full defaulting; None means all defaults."""
    defaults = PipelineConfig()
    if path is None:
        return defaults
    raw = _read_json(Path(path), "config")
    # the number fields of these classes are set by top-level keys; the other
    # keys are the "augment" and "train" sections
    flat = {
        cls: {_KEY_PREFIX.get(cls, "") + name: name for name in field_specs(cls)}
        for cls in (BuildConfig, NormConstants, PipelineConfig)
    }
    unknown = sorted(set(raw).difference({"augment", "train"}, *flat.values()))
    if unknown:
        raise SchemaMismatch(f"unknown config keys: {unknown}")

    def top(cls) -> dict[str, Any]:
        return {name: raw[key] for key, name in flat[cls].items() if key in raw}

    try:
        build = BuildConfig(**top(BuildConfig))
        norm = NormConstants(**top(NormConstants))
        # "augment": null switches augmentation off entirely; an empty or
        # partial section keeps the published defaults for unnamed fields
        augment_raw = raw.get("augment", {})
        if augment_raw is None:
            policy = AugmentPolicy()
        else:
            policy = _replace_from(AugmentPolicy, defaults.policy, augment_raw, "augment")
        train_raw = raw.get("train", {})
        if isinstance(train_raw, dict) and "seed" in train_raw:
            raise SchemaMismatch(
                f"config {path}: train.seed is not a config key; "
                "each head's seed derives from the top-level seed"
            )
        train = _replace_from(TrainConfig, defaults.train, train_raw, "train")
        return PipelineConfig(
            build=build, norm=norm, policy=policy, train=train, **top(PipelineConfig)
        )
    except _FieldError as exc:
        prefix = _KEY_PREFIX.get(exc.owner, "")
        raise SchemaMismatch(f"invalid value in config {path}: {exc.keyed(prefix)}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaMismatch(f"invalid value in config {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# the run directory


def _stack_of(blob: TensorBlob, path: Path, breast: tuple[str, str] | None = None) -> MipStack:
    """The stack a blob holds; metadata that does not describe a stack is a typed
    error.  A run directory's stack must also be normalized and be `breast`'s."""
    try:
        stack = stack_from_blob(blob)
    except (TypeError, ValueError) as exc:
        raise SchemaMismatch(f"malformed stack {path}: {exc}") from exc
    if breast is None:
        return stack
    # augmentation is seeded from these fields, so they must name this file's breast
    found = (stack.patient_id, stack.side)
    if found != breast:
        raise SchemaMismatch(f"stack {path} holds patient/side {found}, not {breast}")
    if not stack.normalized:
        raise SchemaMismatch(f"stack {path} is not normalized; rerun preprocess")
    return stack


def _read_json(path: Path, what: str, hint: str = "") -> dict:
    """Parse a JSON object file; every way it can be unreadable is a typed error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError as exc:
        raise MissingBlob(f"no {what} at {path}{hint}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaMismatch(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise SchemaMismatch(f"{what} {path} must hold a JSON object")
    return raw


def _folds_of(raw: dict) -> FoldPlan:
    """The fold plan in a parsed folds.json, which holds what split writes or is refused."""
    try:
        maps = raw["assignment"], raw["strat_labels"]
        if not all(isinstance(m, dict) for m in maps):
            raise TypeError("assignment and strat_labels must be JSON objects")
        # each id names stack files
        odd = sorted(p for p in maps[0] if not plain_file_name(p))
        if odd:
            raise ValueError(f"patient ids {odd} are not plain file names")
        return FoldPlan(raw["k"], *maps)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaMismatch(f"malformed folds.json: {exc}") from exc


def _params_of(raw: dict, path: Path, weighting: str, fold: int) -> HeadParams:
    """The head in a parsed model file, which must be `weighting`'s for `fold`."""
    model_id = _model_id(weighting, fold)
    missing = {"W", "b", "fold", "model_id", "weighting"} - raw.keys()
    if missing:
        raise SchemaMismatch(f"model file {path} lacks keys {sorted(missing)}")
    if raw["model_id"] != model_id:
        raise SchemaMismatch(f"model file {path} names model {raw['model_id']!r}, not {model_id!r}")
    for key, want in (("weighting", weighting), ("fold", fold)):
        # by type too: JSON true == 1 and 1.0 == 1 in Python
        if type(raw[key]) is not type(want) or raw[key] != want:
            raise SchemaMismatch(f"model file {path}: {key} is {raw[key]!r}, not {want!r}")
    try:
        params = HeadParams(W=json_numbers(raw["W"], "W"), b=json_numbers(raw["b"], "b"))
    except (TypeError, ValueError) as exc:
        raise SchemaMismatch(f"malformed model file {path}: {exc}") from exc
    if params.dim != feature_dim():
        raise SchemaMismatch(f"model file {path}: W has {params.dim} rows, not {feature_dim()}")
    return params


def _json_text(payload: dict, path: Path, indent: int | None = None) -> str:
    """`payload` as sorted-key JSON text; a value JSON cannot hold is a typed error."""
    try:
        return json.dumps(payload, indent=indent, sort_keys=True)
    except (TypeError, ValueError, RecursionError) as exc:
        raise SchemaMismatch(f"cannot write {path}: {exc}") from None


def _model_id(weighting: str, fold: int) -> str:
    return f"{weighting}_fold{fold}"


@dataclass(frozen=True)
class RunDir:
    """The run directory under ``--out``: its methods are the one path, writer and
    reader of each artifact there.  Each writer makes the directory it writes
    into, and refuses, writing nothing, what its reader would refuse or read back
    as something else."""

    root: Path

    def _write_json(self, path: Path, payload: dict, value: Any, read: Callable) -> Path:
        text = _json_text(payload, path, indent=2) + "\n"
        _write_text(path, text, value, lambda back: read(json.loads(back)))
        return path

    def _stack_path(self, patient_id: str, side: str) -> Path:
        if not plain_file_name(patient_id):
            raise SchemaMismatch(f"patient id {patient_id!r} is not a plain file name")
        return self.root / "stacks" / f"{patient_id}_{side}.mct"

    def _model_path(self, weighting: str, fold: int) -> Path:
        return self.root / "models" / f"{_model_id(weighting, fold)}.json"

    def make_stacks_dir(self) -> Path:
        """Make stacks/ before any study is built, so a bad --out is refused first."""
        _make_dir(self.root / "stacks")
        return self.root / "stacks"

    def write_stack(self, stack: MipStack) -> None:
        breast = (stack.patient_id, stack.side)
        path = self._stack_path(*breast)
        blob = stack_to_blob(stack)
        text = _json_text(blob.meta, path)  # as write_blob writes it; the channels go as they are
        fields = attrgetter("patient_id", "side", "normalized", "norm_bounds", "meta")
        _check_read_back(
            path, fields(stack),
            lambda: fields(_stack_of(TensorBlob(blob.data, json.loads(text)), path, breast)),
        )
        _make_dir(path.parent)
        write_blob(blob, path)

    def read_stack(self, patient_id: str, side: str) -> MipStack:
        path = self._stack_path(patient_id, side)
        if not path.exists():
            raise MissingBlob(f"no preprocessed stack at {path}; run preprocess first")
        return _stack_of(read_blob(path), path, (patient_id, side))

    def write_report(self, ids: Sequence[str], failures: dict[str, str]) -> None:
        succeeded = sorted(set(ids) - set(failures))
        report = {"n_studies": len(ids), "succeeded": succeeded, "failed": failures}
        self._write_json(self.root / "preprocess_report.json", report, report, dict)

    def write_folds(self, plan: FoldPlan, seed: int) -> Path:
        payload = {**dataclasses.asdict(plan), "seed": seed}
        return self._write_json(self.root / "folds.json", payload, plan, _folds_of)

    def read_folds(self) -> FoldPlan:
        return _folds_of(_read_json(self.root / "folds.json", "fold plan", "; run split first"))

    def write_model(
        self, weighting: str, fold: int, spec: HeadSpec, result: TrainResult, config: PipelineConfig
    ) -> Path:
        params, trace = result.params, result.loss_trace
        record = {
            "model_id": _model_id(weighting, fold),
            "weighting": weighting,
            "fold": fold,
            "pool_grid": DEFAULT_POOL_GRID,
            "feature_dim": params.dim,
            "n_train_samples": int(spec.labels.shape[0]),
            "train_class_counts": np.bincount(spec.labels, minlength=N_CLASSES).tolist(),
            "class_weights": list(spec.weights.w),
            "train_config": {**dataclasses.asdict(config.train), "seed": spec.seed},
            "augmented": config.policy.active,
            "final_loss": float(trace[-1]),
            "loss_trace": [float(v) for v in trace],
            "W": [[float(v) for v in row] for row in params.W],
            "b": [float(v) for v in params.b],
        }
        path = self._model_path(weighting, fold)

        def fields(p: HeadParams) -> tuple:
            return p.W.tolist(), p.b.tolist()

        return self._write_json(
            path, record, fields(params), lambda raw: fields(_params_of(raw, path, weighting, fold))
        )

    def read_model(self, weighting: str, fold: int) -> HeadParams:
        path = self._model_path(weighting, fold)
        return _params_of(_read_json(path, "model", "; run train first"), path, weighting, fold)

    def predictions_path(self, model_id: str) -> Path:
        return self.root / "predictions" / f"{model_id}.csv"

    def write_predictions(self, model_id: str, predictions: Sequence[Prediction]) -> Path:
        path = self.predictions_path(model_id)
        write_predictions_csv(predictions, path)
        return path

    def write_metrics(self, report: MetricsReport, source: Path) -> None:
        payload = {**report.to_dict(), "source": source.name}
        self._write_json(self.root / "metrics" / f"{source.stem}.json", payload, payload, dict)


def _selected_heads(
    plan: FoldPlan, weighting: str, fold: int | None
) -> tuple[Sequence[str], Sequence[int]]:
    """The weightings and folds that ``--weighting`` and ``--fold`` select."""
    if fold is not None and not 0 <= fold < plan.k:
        raise BadArgument(f"--fold {fold} is outside [0, {plan.k}) of folds.json")
    weightings = WEIGHTINGS if weighting == "both" else (weighting,)
    return weightings, range(plan.k) if fold is None else (fold,)


# ---------------------------------------------------------------------------
# commands


def cmd_phantom(n: int, seed: int, out_dir: str | Path) -> int:
    try:
        manifest = phantom.write_cohort(n, seed, out_dir)
    except ValueError as exc:
        raise BadArgument(f"phantom: {exc}") from exc
    print(f"wrote {n} synthetic studies and {manifest}")
    return 0


def _preprocess_one(manifest: Manifest, patient_id: str, config: PipelineConfig, run: RunDir):
    study = manifest.load_study(patient_id)
    for stack in build_stacks(study, config.build).values():
        run.write_stack(normalize_stack(stack, config.norm))


def cmd_preprocess(
    manifest_path: str | Path, config: PipelineConfig, out_dir: str | Path, jobs: int = 1
) -> int:
    if jobs < 1:
        raise BadArgument(f"--jobs must be >= 1, got {jobs}")
    manifest = Manifest.read(manifest_path)
    run = RunDir(Path(out_dir))
    stacks = run.make_stacks_dir()

    failures: dict[str, str] = {}

    def one(patient_id: str) -> None:
        try:
            _preprocess_one(manifest, patient_id, config, run)
        except (MipclassError, OSError, ValueError) as exc:
            failures[patient_id] = f"{type(exc).__name__}: {exc}"

    ids = manifest.patient_ids
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        list(pool.map(one, ids))

    run.write_report(ids, failures)
    for patient_id in sorted(failures):
        print(f"FAILED {patient_id}: {failures[patient_id]}", file=sys.stderr)
    print(f"preprocessed {len(ids) - len(failures)}/{len(ids)} studies -> {stacks}")
    return 0 if not failures else 1


def cmd_split(manifest_path: str | Path, config: PipelineConfig, out_dir: str | Path) -> int:
    manifest = Manifest.read(manifest_path)
    patients = manifest.patient_ids
    strat = [max_label(**manifest.labels_for(p)) for p in patients]
    plan = stratified_kfold(patients, strat, k=config.k, seed=config.seed)
    path = RunDir(Path(out_dir)).write_folds(plan, config.seed)
    sizes = [len(plan.patients_in_fold(f)) for f in range(plan.k)]
    print(f"split {len(patients)} patients into folds of sizes {sizes} -> {path}")
    return 0


def _features(
    run: RunDir, breasts: Sequence[tuple[str, str]], config: PipelineConfig | None = None
) -> np.ndarray:
    """The ``(E, len(breasts), D)`` float32 features of ``(patient, side)`` breasts,
    reading each stack once and dropping it before the next is read.  Under a
    config whose policy is active, each breast is augmented afresh for each of
    the config's train epochs; otherwise E = 1 and nothing is augmented."""
    augmenting = config is not None and config.policy.active
    epochs = config.train.epochs if augmenting else 1
    feats = np.empty((epochs, len(breasts), feature_dim()), dtype=np.float32)
    for row, (patient_id, side) in enumerate(breasts):
        stack = run.read_stack(patient_id, side)
        for epoch in range(epochs):
            view = stack
            if augmenting:
                # augmentations are redrawn every epoch, seeded per breast
                seed = derive_seed(config.seed, patient_id, side, epoch)
                try:
                    view = augment(stack, seed, config.policy)
                except (ValueError, OverflowError) as exc:
                    raise SchemaMismatch(
                        f"augmenting patient {patient_id} side {side} at epoch {epoch}"
                        f" failed ({exc}); the config's augment magnitudes are out of range"
                    ) from exc
            feats[epoch, row] = extract_features(view)
        del stack, view  # freed before the next breast is read
    return feats


def cmd_train(
    manifest_path: str | Path,
    config: PipelineConfig,
    out_dir: str | Path,
    weighting: str = "both",
    fold: int | None = None,
) -> int:
    """Train every selected (weighting, fold) head on one breast-major feature array.

    Labels are looked up per training breast through Manifest.labels_for,
    before any stack is read, so validation-fold labels are never touched.
    """
    manifest = Manifest.read(manifest_path)
    run = RunDir(Path(out_dir))
    plan = run.read_folds()
    weightings, folds = _selected_heads(plan, weighting, fold)
    # every breast a selected head trains on, once, in row order
    patients = sorted({p for f in folds for p in plan.training_patients(f)})
    breasts = [(p, side) for p in patients for side in SIDES]
    labels = np.asarray([manifest.labels_for(p)[side] for p, side in breasts], dtype=np.int64)

    heads: list[tuple[str, int, HeadSpec]] = []
    for w in weightings:
        for f in folds:
            # a head's rows are its training breasts, in training order as both are sorted
            rows = [row for row, (p, _) in enumerate(breasts) if plan.assignment[p] != f]
            # counts/weights come from the training folds only, by construction
            counts = np.bincount(labels[rows], minlength=N_CLASSES)
            try:
                weights = uniform_weights() if w == "natural" else class_weights(counts)
            except EmptyClass as exc:
                missing = " or ".join(c for c, n in zip(CLASS_NAMES, counts) if n == 0)
                raise EmptyClass(
                    f"head {_model_id(w, f)} has no {missing} breast in its training folds, so"
                    f" inverse weighting is undefined ({exc}); train with --weighting natural"
                    " or split the cohort again with another seed or k"
                ) from exc
            seed = derive_seed(config.seed, f"fold{f}", w, 0)
            heads.append((w, f, HeadSpec(rows, labels[rows], weights, seed)))

    specs = [spec for _, _, spec in heads]
    results = train_heads(_features(run, breasts, config), specs, config.train)
    for (w, f, spec), result in zip(heads, results):
        path = run.write_model(w, f, spec, result, config)
        print(f"trained {path.stem} -> {path}")
    return 0


def cmd_predict(
    out_dir: str | Path, weighting: str = "both", fold: int | None = None
) -> int:
    run = RunDir(Path(out_dir))
    plan = run.read_folds()
    weightings, folds = _selected_heads(plan, weighting, fold)
    for f in folds:
        models = {_model_id(w, f): run.read_model(w, f) for w in weightings}
        # each validation stack is read and featurized once for every model of the fold
        breasts = [(p, side) for p in plan.patients_in_fold(f) for side in SIDES]
        features = _features(run, breasts)[0]
        for model_id, params in models.items():
            predictions = [
                Prediction(patient_id, side, forward(x, params), model_id)
                for (patient_id, side), x in zip(breasts, features)
            ]
            csv_path = run.write_predictions(model_id, predictions)
            print(f"predicted {len(predictions)} breasts -> {csv_path}")
    return 0


def _read_predictions(manifest: Manifest, csv_path: Path) -> list[Prediction]:
    """The predictions in a CSV, each of a patient the manifest holds."""
    predictions = read_predictions_csv(csv_path)
    known = set(manifest.patient_ids)
    for p in predictions:
        if p.patient_id not in known:
            raise SchemaMismatch(f"patient {p.patient_id!r} in {csv_path} is not in the manifest")
    return predictions


def _score(manifest: Manifest, predictions: list[Prediction], source: Path) -> MetricsReport:
    """`source`'s predictions scored against the manifest."""
    if not predictions:
        raise SchemaMismatch(f"no prediction rows in {source}")
    seen: set[tuple[str, str]] = set()
    for breast in ((p.patient_id, p.side) for p in predictions):
        if breast in seen:
            raise SchemaMismatch(
                f"{source} scores patient/side {breast} twice; ensemble averages repeated rows"
            )
        seen.add(breast)
    probs = np.stack([p.probs for p in predictions])
    truths = np.asarray([manifest.labels_for(p.patient_id)[p.side] for p in predictions], np.int64)
    return evaluate(probs, truths)


def _write_score(run: RunDir, report: MetricsReport, source: Path) -> None:
    """Write `source`'s metrics file and print its headline numbers."""
    run.write_metrics(report, source)
    print(
        f"{source.stem}: auc={report.auc:.4f} sens@90spec={report.sens_at_90spec:.4f} "
        f"spec@90sens={report.spec_at_90sens:.4f} score={report.score:.4f}"
    )


def cmd_evaluate(
    manifest_path: str | Path, out_dir: str | Path, csv_paths: Sequence[str | Path]
) -> int:
    """Score each listed CSV on its own: one that cannot be scored prints an
    ``error: <csv>: <reason>`` line and the rest still write their metrics;
    the exit code is 2 if any failed.  Two CSVs of one name, whose metrics
    would overwrite each other's, are refused before any is scored."""
    first: dict[str, str | Path] = {}
    for csv_path in csv_paths:
        stem = Path(csv_path).stem
        if stem in first:
            raise BadArgument(f"{first[stem]} and {csv_path} would write the same metrics file")
        first[stem] = csv_path
    manifest = Manifest.read(manifest_path)
    run = RunDir(Path(out_dir))
    failed = 0
    for csv_path in csv_paths:
        try:
            predictions = _read_predictions(manifest, Path(csv_path))
            _write_score(run, _score(manifest, predictions, Path(csv_path)), Path(csv_path))
        except MipclassError as exc:
            print(f"error: {csv_path}: {exc}", file=sys.stderr)
            failed += 1
    return 2 if failed else 0


def cmd_ensemble(
    manifest_path: str | Path, out_dir: str | Path, csv_paths: Sequence[str | Path]
) -> int:
    """Average the listed prediction files per breast, then score the average.  The
    average is scored before anything is written, so a failure leaves no file."""
    manifest = Manifest.read(manifest_path)
    run = RunDir(Path(out_dir))
    members: list[Prediction] = []
    # every member is read and checked before anything is written
    for csv_path in csv_paths:
        try:
            members.extend(_read_predictions(manifest, Path(csv_path)))
        except MipclassError as exc:
            print(f"error: {csv_path}: {exc}", file=sys.stderr)
            return 2
    if not members:
        raise SchemaMismatch("no predictions to ensemble")
    merged = ensemble_all(members)
    report = _score(manifest, merged, run.predictions_path("ensemble"))
    csv_path = run.write_predictions("ensemble", merged)
    print(f"ensembled {len(csv_paths)} files over {len(merged)} breasts -> {csv_path}")
    _write_score(run, report, csv_path)
    return 0


def cmd_augment_preview(stack_path: str | Path, seed: int, out_dir: str | Path) -> int:
    stack_path = Path(stack_path)
    out = Path(out_dir)
    stack = _stack_of(read_blob(stack_path), stack_path)
    try:
        augmented = augment(stack, seed, default_policy())
    except ValueError as exc:  # only the seed is left unchecked: stack and policy are
        raise BadArgument(f"--seed: {exc}") from exc
    _make_dir(out)
    preview = out / f"{stack_path.stem}_aug{seed}.mct"
    write_blob(stack_to_blob(augmented), preview)
    applied = augmented.meta.get("augment_applied", [])
    print(f"applied {applied or ['nothing']} -> {preview}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mipclass",
        description="Mask-guided MIP classification pipeline for multi-phase breast MRI.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def flag(*names: str, **kwargs: Any) -> argparse.ArgumentParser:
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*names, **kwargs)
        return parent

    # each flag that several subcommands share, declared once as a parent parser
    manifest = flag("--manifest", required=True, help="manifest CSV path")
    config = flag("--config", default=None, help="config JSON (defaults if omitted)")
    out = flag("--out", required=True, help="run directory")
    seed = flag("--seed", type=int, default=None, help="override config seed")
    weighting = flag(
        "--weighting", choices=WEIGHTINGS + ("both",), default="both",
        help="class weighting strategy (default: both)",
    )
    fold = flag("--fold", type=int, default=None, help="restrict to one fold")

    p = sub.add_parser("phantom", help="generate a synthetic cohort + manifest")
    p.add_argument("--n", type=int, required=True, help="number of studies")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda a: cmd_phantom(a.n, a.seed, a.out))

    p = sub.add_parser("preprocess", parents=[manifest, config, out],
                       help="standardize studies into stack blobs")
    p.add_argument("--jobs", type=int, default=1, help="parallel studies (default 1)")
    p.set_defaults(run=lambda a: cmd_preprocess(a.manifest, _config_from_args(a), a.out, a.jobs))

    p = sub.add_parser("split", parents=[manifest, config, out, seed],
                       help="write a stratified patient-level fold plan")
    p.set_defaults(run=lambda a: cmd_split(a.manifest, _config_from_args(a), a.out))

    p = sub.add_parser("train", parents=[manifest, config, out, seed, weighting, fold],
                       help="train linear heads per fold and weighting")
    p.set_defaults(
        run=lambda a: cmd_train(a.manifest, _config_from_args(a), a.out, a.weighting, a.fold)
    )

    p = sub.add_parser("predict", parents=[config, out, weighting, fold],
                       help="predict each fold's validation patients")
    p.set_defaults(run=lambda a: cmd_predict(a.out, a.weighting, a.fold))

    p = sub.add_parser("evaluate", parents=[manifest, out],
                       help="score prediction CSVs against the manifest")
    p.add_argument("csvs", nargs="+", help="prediction CSV files")
    p.set_defaults(run=lambda a: cmd_evaluate(a.manifest, a.out, a.csvs))

    p = sub.add_parser("ensemble", parents=[manifest, out],
                       help="average prediction CSVs and re-evaluate")
    p.add_argument("csvs", nargs="+", help="prediction CSV files to average")
    p.set_defaults(run=lambda a: cmd_ensemble(a.manifest, a.out, a.csvs))

    p = sub.add_parser("augment-preview", help="write one augmented copy of a stack blob")
    p.add_argument("--stack", required=True, help="stack blob (.mct) path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(run=lambda a: cmd_augment_preview(a.stack, a.seed, a.out))

    return parser


def _config_from_args(args: argparse.Namespace) -> PipelineConfig:
    config = load_config(getattr(args, "config", None))
    seed = getattr(args, "seed", None)
    if seed is not None:
        try:
            config = dataclasses.replace(config, seed=seed)
        except ValueError as exc:
            raise BadArgument(f"--seed: {exc}") from exc
    return config


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except MipclassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
