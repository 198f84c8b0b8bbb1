"""The manifest, stratified patient-level folds, challenge metrics, and ensembling.

`read_manifest` and `write_manifest` are the manifest CSV's one reader and writer,
and `read_predictions_csv` and `write_predictions_csv` the prediction CSV's.

Metrics: micro-averaged one-vs-rest ROC AUC (Mann–Whitney U, ties
counting one half), sensitivity at 90% specificity and specificity at 90%
sensitivity on the Malignant-vs-rest task (per-class variants also
reported), their arithmetic mean as the overall score, and argmax
confusion matrices.

Thresholds are never interpolated: one sweep over the sorted distinct
scores counts positives and negatives exactly at every threshold they
induce, plus the all-negative one, so results are exactly reproducible
by brute force.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    DegenerateLabels,
    EmptyGroup,
    IoFailure,
    ManifestParse,
    MissingBlob,
    SchemaMismatch,
    TooFewPatients,
)
from .mipbuild import SIDES, check_fields
from .tensorio import _write_text

NO_LESION, BENIGN, MALIGNANT = 0, 1, 2
CLASS_NAMES = ("nolesion", "benign", "malignant")
# Spelled-out forms used in manifest files; index = class integer.
LABEL_STRINGS = ("no_lesion", "benign", "malignant")
MANIFEST_HEADER = ("patient_id", "pre_path", "post_paths", "mask_path", "label_left", "label_right")
N_CLASSES = 3


@dataclass(frozen=True)
class ManifestRow:
    patient_id: str
    pre_path: str
    post_paths: tuple[str, ...]
    mask_path: str | None
    label_left: int
    label_right: int


def read_manifest(path) -> list[ManifestRow]:
    """Parse a manifest CSV; every way it can be unreadable is a ManifestParse."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            return _parse_manifest(fh.read())
    except (OSError, UnicodeDecodeError) as exc:
        raise ManifestParse(f"cannot read manifest {path}: {exc}") from exc


def _csv_rows(text: str, error: type[Exception]) -> Iterator[list[str]]:
    """The records of CSV text read as from a file; text csv cannot split is an `error`."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        yield from reader
    except csv.Error as exc:
        raise error(f"line {reader.line_num}: {exc}") from exc


def plain_file_name(name: str) -> bool:
    """Whether `name` is one plain file-name component: not empty, not ``.`` or
    ``..``, and holding no path separator and no ASCII control character.

    A patient id names its stack files, so it must be one.
    """
    return name not in ("", ".", "..") and not any(c in "/\\\x7f" or c < " " for c in name)


def _parse_manifest(text: str) -> list[ManifestRow]:
    reader = _csv_rows(text, ManifestParse)
    if tuple(next(reader, ())) != MANIFEST_HEADER:
        raise ManifestParse(f"manifest header must be {','.join(MANIFEST_HEADER)}")
    rows = [_parse_manifest_row(row, n) for n, row in enumerate(reader, start=2)]
    ids = [r.patient_id for r in rows]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ManifestParse(f"duplicate patient ids: {dupes}")
    return rows


def _parse_manifest_row(row: list[str], line: int) -> ManifestRow:
    if len(row) != len(MANIFEST_HEADER):
        raise ManifestParse(f"line {line}: expected {len(MANIFEST_HEADER)} fields, got {len(row)}")
    patient_id, pre_path, posts, mask, left, right = (cell.strip() for cell in row)
    if not patient_id or not pre_path:
        raise ManifestParse(f"line {line}: patient_id and pre_path are required")
    if not plain_file_name(patient_id):
        raise ManifestParse(f"line {line}: patient_id {patient_id!r} is not a plain file name")
    post_paths = tuple(p.strip() for p in posts.split(";") if p.strip())
    if len(post_paths) < 2:
        raise ManifestParse(f"line {line}: need >= 2 post paths, got {posts!r}")
    for key, value in (("label_left", left), ("label_right", right)):
        if value not in LABEL_STRINGS:
            raise ManifestParse(f"line {line}: {key} must be one of {LABEL_STRINGS}, got {value!r}")
    labels = (LABEL_STRINGS.index(left), LABEL_STRINGS.index(right))
    return ManifestRow(patient_id, pre_path, post_paths, mask or None, *labels)


def _csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """CSV text of a header and rows, each line ending in a bare newline."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buffer.getvalue()


def write_manifest(rows: Iterable[ManifestRow], path) -> None:
    """Write rows in the format `read_manifest` parses, one atomic write.

    The text is parsed back first: rows the reader would refuse, or read
    back as other rows, are a SchemaMismatch and nothing is written.
    """
    rows = list(rows)
    words = dict(enumerate(LABEL_STRINGS))  # any other label is written as its repr, refused
    cells = (
        [r.patient_id, r.pre_path, ";".join(r.post_paths), r.mask_path or ""]
        + [words.get(v, repr(v)) for v in (r.label_left, r.label_right)]
        for r in rows
    )
    _write_text(path, _csv_text(MANIFEST_HEADER, cells), rows, _parse_manifest)


def max_label(left: int, right: int) -> int:
    """Patient-level stratification label: the ordinal max of the two sides."""
    for value in (left, right):
        if value not in (NO_LESION, BENIGN, MALIGNANT):
            raise ValueError(f"labels must be 0, 1 or 2, got {value}")
    return max(left, right)


@dataclass(frozen=True)
class FoldPlan:
    """Patient → fold assignment with the stratification label per patient."""

    k: int
    assignment: Mapping[str, int]
    strat_labels: Mapping[str, int]

    def __post_init__(self) -> None:
        check_fields(self, {"k": (int, 0, 2, math.inf)})
        # each patient's fold and label, checked under the patient's id
        check_fields(self.assignment, dict.fromkeys(self.assignment, (int, 0, 0, self.k - 1)))
        labels = dict.fromkeys(self.strat_labels, (int, 0, 0, N_CLASSES - 1))
        check_fields(self.strat_labels, labels)
        if set(self.assignment) != set(self.strat_labels):
            raise ValueError("assignment and stratification labels disagree on patients")
        # every fold is in [0, k), so counting the distinct ones finds an empty
        # fold without building range(k), whatever k a folds.json declares
        empty = self.k - len(set(self.assignment.values()))
        if empty:
            raise ValueError(f"{empty} of {self.k} folds hold no patients")

    def patients_in_fold(self, fold: int) -> list[str]:
        return sorted(p for p, f in self.assignment.items() if f == fold)

    def training_patients(self, fold: int) -> list[str]:
        return sorted(p for p, f in self.assignment.items() if f != fold)


def stratified_kfold(
    patients: Sequence[str], labels: Sequence[int], k: int = 5, seed: int = 0
) -> FoldPlan:
    """Shuffle each label class (seeded) and deal its patients round-robin.

    Each class's dealing starts where the previous class's stopped, so fold
    sizes differ by at most one overall as well as per class.  Both breasts
    of a patient share the patient's fold by construction, so the split
    never leaks a patient across training and validation.
    """
    patients = list(patients)
    labels = [int(v) for v in labels]
    if len(patients) != len(labels):
        raise ValueError(f"{len(patients)} patients vs {len(labels)} labels")
    if len(set(patients)) != len(patients):
        raise ValueError("duplicate patient ids")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    if len(patients) < k:
        raise TooFewPatients(f"need >= {k} patients for {k} folds, got {len(patients)}")

    rng = np.random.Generator(np.random.Philox(key=seed))
    assignment: dict[str, int] = {}
    for cls in sorted(set(labels)):
        members = sorted(p for p, lab in zip(patients, labels) if lab == cls)
        order = rng.permutation(len(members))
        dealt = len(assignment)
        for i, j in enumerate(order):
            assignment[members[j]] = (dealt + i) % k
    return FoldPlan(
        k=k,
        assignment=assignment,
        strat_labels=dict(zip(patients, labels)),
    )


def _sweep(scores: np.ndarray, positives: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """(sensitivity, specificity, AUC) from exact counts at every distinct score.

    The thresholds are every distinct score plus +inf, and positive
    prediction means score >= threshold.  The counts of positives and
    negatives below each threshold are integer prefix sums, so every rate
    is an exact integer ratio.  The AUC is the Mann–Whitney U (ties count
    one half), kept as the integer 2U and divided once by n_pos·n_neg.
    """
    scores = np.asarray(scores, dtype=np.float64)
    positives = np.asarray(positives, dtype=bool)
    if not np.isfinite(scores).all():
        raise ValueError("scores must be finite")
    n_pos = int(np.count_nonzero(positives))
    n_neg = positives.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DegenerateLabels(f"need both classes, got {n_pos} pos / {n_neg} neg")
    values, index = np.unique(scores, return_inverse=True)
    pos = np.bincount(index[positives], minlength=values.size)
    neg = np.bincount(index[~positives], minlength=values.size)
    pos_below = np.concatenate([[0], np.cumsum(pos)])
    neg_below = np.concatenate([[0], np.cumsum(neg)])
    u2 = int(pos @ (2 * neg_below[:-1] + neg))
    return (n_pos - pos_below) / n_pos, neg_below / n_neg, u2 / 2 / (n_pos * n_neg)


def roc_auc_micro(probs: np.ndarray, truths: np.ndarray) -> float:
    """One-vs-rest micro AUC: flatten all (sample, class) pairs to one
    binary problem scored by the class probabilities."""
    probs = np.asarray(probs, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.int64)
    if probs.ndim != 2 or probs.shape[1] != N_CLASSES:
        raise ValueError(f"probs must be (N, 3), got {probs.shape}")
    if truths.shape != (probs.shape[0],):
        raise ValueError(f"truths shape {truths.shape} does not match probs")
    if ((truths < 0) | (truths >= N_CLASSES)).any():
        raise ValueError(f"truths must be class indices 0..{N_CLASSES - 1}")
    onehot = np.zeros_like(probs, dtype=bool)
    onehot[np.arange(truths.size), truths] = True
    return _sweep(probs.ravel(), onehot.ravel())[2]


def _best(rates: np.ndarray, other: np.ndarray, floor: float) -> float:
    """Max of ``rates`` over the thresholds where ``other`` >= floor, else 0."""
    qualified = other >= floor
    return float(rates[qualified].max()) if qualified.any() else 0.0


def sens_at_spec(scores: np.ndarray, positives: np.ndarray, spec_floor: float = 0.9) -> float:
    """Max sensitivity over thresholds whose specificity >= spec_floor."""
    sens, spec, _ = _sweep(scores, positives)
    return _best(sens, spec, spec_floor)


def spec_at_sens(scores: np.ndarray, positives: np.ndarray, sens_floor: float = 0.9) -> float:
    """Max specificity over thresholds whose sensitivity >= sens_floor."""
    sens, spec, _ = _sweep(scores, positives)
    return _best(spec, sens, sens_floor)


def overall_score(auc: float, sens: float, spec: float) -> float:
    """Arithmetic mean of the three challenge metrics."""
    for v in (auc, sens, spec):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"metrics must be in [0, 1], got {v}")
    return (auc + sens + spec) / 3.0


def confusion(probs: np.ndarray, truths: np.ndarray) -> np.ndarray:
    """3×3 counts[truth][argmax]; argmax ties go to the lower class index."""
    probs = np.asarray(probs, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.int64)
    cells = truths * N_CLASSES + probs.argmax(axis=1)
    return np.bincount(cells, minlength=N_CLASSES * N_CLASSES).reshape(N_CLASSES, N_CLASSES)


@dataclass(frozen=True)
class Prediction:
    """One model's class probabilities for one (patient, side)."""

    patient_id: str
    side: str
    probs: np.ndarray
    model_id: str = ""

    def __post_init__(self) -> None:
        if self.side not in SIDES:
            raise ValueError(f"side must be one of {SIDES}, got {self.side!r}")
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (N_CLASSES,):
            raise ValueError(f"probs must be length {N_CLASSES}, got shape {probs.shape}")
        if not (np.isfinite(probs).all() and probs.min() >= 0):
            raise ValueError(f"probs must be finite and >= 0, got {probs}")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise ValueError(f"probs must sum to 1 within 1e-9, got sum {probs.sum()!r}")
        object.__setattr__(self, "probs", probs)


def ensemble(group: Sequence[Prediction]) -> Prediction:
    """Mean of the member probabilities for one (patient, side) group."""
    members = list(group)
    if not members:
        raise EmptyGroup("cannot ensemble an empty prediction group")
    keys = {(p.patient_id, p.side) for p in members}
    if len(keys) != 1:
        raise ValueError(f"mixed (patient, side) in one ensemble group: {sorted(keys)}")
    stacked = np.stack([p.probs for p in members])
    if (stacked == stacked[0]).all():
        mean = stacked[0]  # unanimous members pass through bit-for-bit
    else:
        mean = stacked.mean(axis=0)
    return Prediction(
        patient_id=members[0].patient_id,
        side=members[0].side,
        probs=mean,  # convexity keeps it on the simplex within member tolerance
        model_id="ensemble",
    )


def ensemble_all(predictions: Iterable[Prediction]) -> list[Prediction]:
    """Group by (patient, side), ensemble each group, sort by key."""
    groups: dict[tuple[str, str], list[Prediction]] = {}
    for pred in predictions:
        groups.setdefault((pred.patient_id, pred.side), []).append(pred)
    return [ensemble(groups[key]) for key in sorted(groups)]


# MetricsReport's headline metrics, each in [0, 1], in their metrics-JSON order
_METRIC_NAMES = ("auc", "sens_at_90spec", "spec_at_90sens", "score")


@dataclass(frozen=True)
class MetricsReport:
    auc: float
    sens_at_90spec: float
    spec_at_90sens: float
    score: float
    confusion: np.ndarray
    n: int
    extras: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in _METRIC_NAMES:
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name}={v} outside [0, 1]")
        if int(self.confusion.sum()) != self.n:
            raise ValueError(
                f"confusion total {int(self.confusion.sum())} != n={self.n}"
            )

    def to_dict(self) -> dict[str, Any]:
        return {
            **{name: getattr(self, name) for name in _METRIC_NAMES},
            "confusion": self.confusion.tolist(),
            "n": self.n,
            **self.extras,
        }


def evaluate(probs: np.ndarray, truths: np.ndarray) -> MetricsReport:
    """All challenge metrics for a batch of simplex rows and true labels.

    The headline sensitivity/specificity pair uses Malignant vs rest; the
    same pair for every class lands in ``extras`` for transparency.
    """
    probs = np.asarray(probs, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.int64)
    auc = roc_auc_micro(probs, truths)

    per_class: dict[str, Any] = {}
    for cls, name in enumerate(CLASS_NAMES):
        positives = truths == cls
        if positives.any() and not positives.all():
            sens, spec, _ = _sweep(probs[:, cls], positives)
            per_class[f"sens_at_90spec_{name}"] = _best(sens, spec, 0.9)
            per_class[f"spec_at_90sens_{name}"] = _best(spec, sens, 0.9)
    headline = CLASS_NAMES[MALIGNANT]
    if f"sens_at_90spec_{headline}" not in per_class:
        raise DegenerateLabels("malignant-vs-rest requires both classes present")

    sens, spec = per_class[f"sens_at_90spec_{headline}"], per_class[f"spec_at_90sens_{headline}"]
    return MetricsReport(
        auc=auc,
        sens_at_90spec=sens,
        spec_at_90sens=spec,
        score=overall_score(auc, sens, spec),
        confusion=confusion(probs, truths),
        n=int(truths.size),
        extras=per_class,
    )


CSV_HEADER = ("patient_id", "side", *(f"p_{name}" for name in CLASS_NAMES), "model_id")


def write_predictions_csv(predictions: Sequence[Prediction], path) -> None:
    """Deterministic CSV: sorted by (patient, side, model), 17-digit floats.

    The text is parsed back first: predictions the reader would refuse, or
    read back as others, are a SchemaMismatch and not even the directory is made.
    """
    rows = sorted(predictions, key=lambda p: (p.patient_id, p.side, p.model_id))
    cells = ([p.patient_id, p.side] + [f"{v:.17g}" for v in p.probs] + [p.model_id] for p in rows)
    text = _csv_text(CSV_HEADER, cells)

    def fields(predictions: Iterable[Prediction]) -> list[tuple]:
        return [(p.patient_id, p.side, p.probs.tolist(), p.model_id) for p in predictions]

    _write_text(path, text, fields(rows), lambda back: fields(_parse_predictions(back)))


def _parse_predictions(text: str) -> list[Prediction]:
    reader = _csv_rows(text, SchemaMismatch)
    header = next(reader, None)
    if header is None or tuple(header) != CSV_HEADER:
        raise SchemaMismatch(f"unexpected prediction CSV header: {header}")
    out = []
    for row in reader:
        if len(row) != len(CSV_HEADER):
            raise SchemaMismatch(f"malformed prediction row: {row}")
        try:
            probs = np.array([float(v) for v in row[2:-1]])
            out.append(Prediction(row[0], row[1], probs, row[-1]))
        except ValueError as exc:
            raise SchemaMismatch(f"invalid prediction row {row}: {exc}") from exc
    return out


def read_predictions_csv(path) -> list[Prediction]:
    """Parse a prediction CSV; every way it can be unreadable is a typed error."""
    try:
        with open(path, "r", newline="", encoding="utf-8") as fh:
            return _parse_predictions(fh.read())
    except FileNotFoundError as exc:
        raise MissingBlob(f"no prediction CSV at {path}") from exc
    except OSError as exc:
        raise IoFailure(f"cannot read prediction CSV {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaMismatch(f"unreadable prediction CSV {path}: {exc}") from exc
