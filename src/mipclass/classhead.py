"""Linear classification head with imbalance-aware weighted cross-entropy.

Class weights follow w_c = (1/N_c) / Σ_i (1/N_i), so each class's total
weight-mass is equal (w_c·N_c is constant).  The loss is

    L = −(1/N) Σ_i Σ_c w_c · y_{i,c} · log(ŷ_{i,c})

with the log floored at 1e-12.  Features come from a fixed pooled-means
extractor (global mean + g×g grid-cell means per channel); the head is a
single linear layer trained by momentum SGD under a cosine-annealed
learning rate with linear warm-up.  Everything runs in float64 and is
bit-deterministic given the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DimMismatch, Diverged, EmptyClass
from .evalkit import N_CLASSES
from .mipbuild import PHILOX_MAX, MipStack, _FieldError, bounded, check_fields, field_specs

LOG_FLOOR = 1e-12
DEFAULT_POOL_GRID = 4


@dataclass(frozen=True)
class ClassWeights:
    """Per-class weights and the counts they were derived from."""

    w: tuple[float, float, float]
    counts: tuple[int, int, int]

    def __post_init__(self) -> None:
        if len(self.w) != N_CLASSES or len(self.counts) != N_CLASSES:
            raise ValueError(f"weights and counts must have {N_CLASSES} classes")
        if any(wc <= 0 for wc in self.w):
            raise ValueError(f"weights must be positive, got {self.w}")
        if abs(sum(self.w) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got sum {sum(self.w)}")
        masses = [wc * nc for wc, nc in zip(self.w, self.counts)]
        ref = masses[0]
        if any(abs(m - ref) > 1e-9 * max(abs(ref), 1e-300) for m in masses):
            raise ValueError(f"w_c * N_c must be constant across classes, got {masses}")


def class_weights(counts) -> ClassWeights:
    """Inverse-frequency weights: w_c = (1/N_c) / Σ_i (1/N_i)."""
    counts = tuple(int(n) for n in counts)
    if len(counts) != N_CLASSES:
        raise DimMismatch(f"need {N_CLASSES} class counts, got {len(counts)}")
    if any(n < 1 for n in counts):
        raise EmptyClass(f"every class needs >= 1 sample, got counts {counts}")
    inv = [1.0 / n for n in counts]
    total = math.fsum(inv)
    return ClassWeights(w=tuple(v / total for v in inv), counts=counts)


def uniform_weights() -> ClassWeights:
    """Natural weighting: plain cross-entropy, w_c = 1/3."""
    return class_weights((1,) * N_CLASSES)


@dataclass(frozen=True)
class HeadParams:
    """Linear head: logits = f @ W + b."""

    W: np.ndarray  # (D, 3)
    b: np.ndarray  # (3,)

    def __post_init__(self) -> None:
        W = np.asarray(self.W, dtype=np.float64)
        b = np.asarray(self.b, dtype=np.float64)
        if W.ndim != 2 or W.shape[1] != N_CLASSES:
            raise DimMismatch(f"W must be (D, {N_CLASSES}), got {W.shape}")
        if b.shape != (N_CLASSES,):
            raise DimMismatch(f"b must be ({N_CLASSES},), got {b.shape}")
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise ValueError("head parameters must be finite")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class LossValue:
    value: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value) or self.value < 0:
            raise ValueError(f"loss must be finite and >= 0, got {self.value}")


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = bounded(300, 1)
    batch: int = bounded(10, 1)
    lr_max: float = bounded(1e-4, 0.0)
    warmup_epochs: int = bounded(5, 0)
    lr_min: float = bounded(0.0, 0.0)
    momentum: float = bounded(0.9, 0.0, math.nextafter(1.0, 0.0))

    def __post_init__(self) -> None:
        check_fields(self, field_specs(type(self)))
        if not self.epochs > self.warmup_epochs:
            raise _FieldError(
                type(self), "need epochs > warmup_epochs", (self.epochs, self.warmup_epochs)
            )
        if not self.lr_max > self.lr_min:
            raise _FieldError(type(self), "need lr_max > lr_min", (self.lr_max, self.lr_min))


def feature_dim(grid: int = DEFAULT_POOL_GRID) -> int:
    return 4 * (1 + grid * grid)


def extract_features(stack: MipStack, grid: int = DEFAULT_POOL_GRID) -> np.ndarray:
    """Pooled-means feature vector, length 4·(1 + g²), channel-major.

    Per channel: the global mean, then the g×g grid-cell means in cell
    row-major order.  Cells split each axis into g near-equal parts with
    the remainder pixels going to the last cell.
    """
    if not stack.normalized:
        raise ValueError("features are extracted from normalized stacks")
    if grid < 1:
        raise ValueError(f"grid must be >= 1, got {grid}")
    _, w, h = stack.channels.shape
    x_edges = [0] + [(w // grid) * (i + 1) for i in range(grid - 1)] + [w]
    y_edges = [0] + [(h // grid) * (i + 1) for i in range(grid - 1)] + [h]
    features = np.empty(feature_dim(grid), dtype=np.float64)
    pos = 0
    for c in range(4):
        channel = stack.channels[c].astype(np.float64)  # widened a channel at a time
        features[pos] = channel.mean()
        pos += 1
        for xi in range(grid):
            for yi in range(grid):
                cell = channel[x_edges[xi] : x_edges[xi + 1], y_edges[yi] : y_edges[yi + 1]]
                features[pos] = cell.mean() if cell.size else 0.0
                pos += 1
    return features.astype(np.float32)


def _as_batch(features: np.ndarray, params: HeadParams) -> np.ndarray:
    arr = np.asarray(features, dtype=np.float64)
    if arr.ndim not in (1, 2):
        raise DimMismatch(f"features must be (D,) or (N, D), got shape {arr.shape}")
    if arr.shape[-1] != params.dim:
        raise DimMismatch(f"feature dim {arr.shape[-1]} != head dim {params.dim}")
    return np.atleast_2d(arr)


def _check_labels(labels: np.ndarray, n: int) -> np.ndarray:
    labels = np.asarray(labels)
    if labels.shape != (n,):
        raise DimMismatch(f"labels shape {labels.shape} != ({n},)")
    if labels.size and not (labels.min() >= 0 and labels.max() < N_CLASSES):  # NaN fails too
        raise ValueError(f"labels must be in 0..2, got range {labels.min()}..{labels.max()}")
    whole = labels.astype(np.int64)
    if not np.array_equal(whole, labels):
        raise ValueError(f"labels must be whole numbers, got {labels[whole != labels][0]}")
    return whole


# Unchecked kernels over a stack of heads: X (..., n, D), W (..., D, 3), b (..., 3),
# labels and their class weights wl (..., n).  np.matmul runs each head's slice
# as its own product, so every head in a stack keeps the bytes it has alone.
def _probs(X: np.ndarray, W: np.ndarray, b: np.ndarray) -> np.ndarray:
    logits = np.matmul(X, W) + b[..., None, :]
    logits = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(logits)
    return exp / exp.sum(axis=-1, keepdims=True)


def _loss(probs: np.ndarray, labels: np.ndarray, wl: np.ndarray) -> np.ndarray:
    true_probs = np.maximum(np.take_along_axis(probs, labels[..., None], -1)[..., 0], LOG_FLOOR)
    return -(wl * np.log(true_probs)).sum(axis=-1) / labels.shape[-1]


def _grad(X: np.ndarray, labels: np.ndarray, wl: np.ndarray, W: np.ndarray, b: np.ndarray):
    dz = _probs(X, W, b)
    dz -= labels[..., None] == np.arange(N_CLASSES)  # subtracting 0.0 keeps a value's bytes
    dz *= (wl / X.shape[-2])[..., None]
    return np.matmul(np.swapaxes(X, -1, -2), dz), dz.sum(axis=-2)


def forward(features: np.ndarray, params: HeadParams) -> np.ndarray:
    """Softmax probabilities for one feature vector or a batch of them."""
    probs = _probs(_as_batch(features, params), params.W, params.b)
    return probs[0] if np.ndim(features) == 1 else probs


def weighted_ce(probs: np.ndarray, labels: np.ndarray, weights: ClassWeights) -> LossValue:
    """Eq.-style weighted cross-entropy over a batch of simplex rows."""
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 2 or probs.shape[1] != N_CLASSES:
        raise DimMismatch(f"probs must be (N, 3), got {probs.shape}")
    labels = _check_labels(labels, probs.shape[0])
    if not labels.size:
        raise DimMismatch("empty batch")
    return LossValue(float(_loss(probs, labels, np.asarray(weights.w)[labels])))


def grad_weighted_ce(
    features: np.ndarray, labels: np.ndarray, params: HeadParams, weights: ClassWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Analytic (dW, db): per sample dz_i = w_{y_i}·(ŷ_i − e_{y_i})/N."""
    batch = _as_batch(features, params)
    labels = _check_labels(labels, batch.shape[0])
    return _grad(batch, labels, np.asarray(weights.w)[labels], params.W, params.b)


def lr_schedule(t: int, cfg: TrainConfig) -> float:
    """Linear warm-up to lr_max, then cosine annealing down to lr_min."""
    if not 0 <= t < cfg.epochs:
        raise ValueError(f"epoch {t} outside [0, {cfg.epochs})")
    w = cfg.warmup_epochs
    if t < w:
        return cfg.lr_max * (t + 1) / w
    span = cfg.epochs - w - 1
    if span == 0:
        return cfg.lr_max
    phase = math.pi * (t - w) / span
    return cfg.lr_min + 0.5 * (cfg.lr_max - cfg.lr_min) * (1.0 + math.cos(phase))


@dataclass(frozen=True)
class TrainResult:
    params: HeadParams
    loss_trace: np.ndarray  # per-epoch full-data loss, f64


@dataclass(frozen=True)
class HeadSpec:
    """One head to train: its feature rows, their labels, its weights and shuffle seed."""

    rows: np.ndarray  # (n,) row indices, in training order; n >= 1
    labels: np.ndarray  # (n,) int64 in 0..2, one per row
    weights: ClassWeights
    seed: int

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.intp)
        if rows.ndim != 1 or not rows.size:
            raise DimMismatch(f"rows must be a non-empty (n,) index array, got shape {rows.shape}")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "labels", _check_labels(self.labels, rows.size))
        # it keys np.random.Philox, which takes [0, 2**128)
        check_fields(self, {"seed": (int, 0, 0, PHILOX_MAX)})


def train_heads(
    features: np.ndarray, heads: Sequence[HeadSpec], cfg: TrainConfig
) -> list[TrainResult]:
    """Momentum SGD for several heads over one ``(E, N, D)`` feature array.

    Epoch ``e`` of ``cfg`` trains every head on ``features[e % E]``, widened
    to float64: E matrices of freshly augmented inputs, or E = 1 for one fixed
    matrix.  Each head trains on its own rows, from zero-initialized params,
    with its own momentum and a Philox permutation stream keyed by its
    ``seed``.  Heads with equal row counts step together as one (G, ...)
    stack, running the float64 operations of training each alone in the same
    order, so every head's result has the bytes of training it alone.  Raises
    ``Diverged`` at the end of the first epoch that leaves a param or loss
    non-finite.
    """
    features = np.asarray(features)
    if features.ndim != 3 or not len(features):
        raise DimMismatch(f"features must be (E, N, D) with E >= 1, got shape {features.shape}")
    n_rows, dim = features.shape[1:]
    # heads sorted by row count, so each group of equal counts is a slice of the stacks
    order = sorted(range(len(heads)), key=lambda i: heads[i].rows.size)
    specs = [heads[i] for i in order]
    sizes = [head.rows.size for head in specs]
    rngs = [np.random.Generator(np.random.Philox(key=head.seed)) for head in specs]
    W, vW = np.zeros((2, len(specs), dim, N_CLASSES))
    b, vb = np.zeros((2, len(specs), N_CLASSES))
    traces = np.empty((len(specs), cfg.epochs))
    groups = []  # (slice of specs, rows, labels, their class weights), each (G, n)
    for n in sorted(set(sizes)):
        at = slice(sizes.index(n), sizes.index(n) + sizes.count(n))
        rows = np.stack([head.rows for head in specs[at]])
        if not 0 <= rows.min() <= rows.max() < n_rows:
            raise DimMismatch(f"head rows outside the {n_rows} feature rows")
        labels = np.stack([head.labels for head in specs[at]])
        w = np.array([head.weights.w for head in specs[at]])
        groups.append((at, rows, labels, np.take_along_axis(w, labels, axis=1)))
    for epoch in range(cfg.epochs):
        feats = np.asarray(features[epoch % len(features)], dtype=np.float64)
        lr = lr_schedule(epoch, cfg)
        # a diverging head is reported by the check below, not by numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            for at, rows, labels, wl in groups:
                Wg, bg, vWg, vbg = W[at], b[at], vW[at], vb[at]
                perm = np.stack([rng.permutation(rows.shape[1]) for rng in rngs[at]])
                prows, plabels, pwl = (np.take_along_axis(a, perm, 1) for a in (rows, labels, wl))
                for start in range(0, rows.shape[1], cfg.batch):
                    batch = np.s_[:, start : start + cfg.batch]
                    dW, db = _grad(feats[prows[batch]], plabels[batch], pwl[batch], Wg, bg)
                    vWg[...] = cfg.momentum * vWg - lr * dW
                    vbg[...] = cfg.momentum * vbg - lr * db
                    Wg += vWg
                    bg += vbg
                traces[at, epoch] = _loss(_probs(feats[rows], Wg, bg), labels, wl)
        if not all(np.isfinite(a).all() for a in (W, b, traces[:, epoch])):
            raise Diverged(f"training diverged at epoch {epoch}: params or loss not finite;"
                           f" lower train.lr_max (now {cfg.lr_max!r})")
    return [TrainResult(HeadParams(W[j], b[j]), traces[j]) for j in np.argsort(order)]

