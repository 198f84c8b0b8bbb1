"""Spans around mipclass's public functions, installed from outside the package.

Each traced function is replaced, at the name the calling module imported
(``mipclass.mipbuild.resample``, not ``mipclass.geometry.resample``), by a
wrapper that records one span: id, parent span id, name, start, end and
thread.  Spans stay in memory until the run ends.  A function may carry a
hook that derives a count from its arguments and result (bytes written,
distinct inputs); hooks run after the span closes and are recorded as
``trace.hook`` spans, so their cost lands in the tracing overhead and not
in any layer's self time.
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable

import numpy as np

HOOK = "trace.hook"

# hook(tracer, arguments by parameter name, result)
Hook = Callable[["Tracer", dict, Any], None]


def _digest(*arrays: np.ndarray) -> bytes:
    """Content key of the arrays (hashed in place, without a copy)."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(repr((array.dtype.str, array.shape)).encode())
        h.update(memoryview(np.ascontiguousarray(array)).cast("B"))
    return h.digest()


# Hooks: each adds to Tracer.sums (a computed total) or Tracer.keys (the
# distinct inputs seen), under the tracer's lock because preprocess runs
# them on worker threads.


def _write_nifti(tracer: "Tracer", a: dict, result: Any) -> None:
    # 352-byte single-file header + float32 payload, as tensorio writes it
    tracer.add("tensorio.write_nifti.raw_mb", (352 + a["volume"].data.size * 4) / 1e6)
    tracer.add("tensorio.write_nifti.gz_mb", os.path.getsize(a["path"]) / 1e6)


def _read_blob(tracer: "Tracer", a: dict, result: Any) -> None:
    tracer.see("tensorio.read_blob", os.fspath(a["path"]))


def _resample(tracer: "Tracer", a: dict, result: Any) -> None:
    volume = a["volume"]
    key = (_digest(volume.data, volume.affine), tuple(a["target"]), a["interp"].name)
    tracer.see("geometry.resample", key)
    tracer.add("geometry.resample.voxels_out", result.data.size)


def _crop_or_pad(tracer: "Tracer", a: dict, result: Any) -> None:
    tracer.add("geometry.crop_or_pad.mb_out", result.data.nbytes / 1e6)


def _augment(tracer: "Tracer", a: dict, result: Any) -> None:
    stack = a["stack"]
    # the seed is derive_seed(config seed, patient, side, epoch)
    tracer.see("augment2d.augment", (stack.patient_id, stack.side, a["seed"]))


def _extract_features(tracer: "Tracer", a: dict, result: Any) -> None:
    tracer.see("classhead.extract_features", (_digest(a["stack"].channels), a["grid"]))


# (module the caller imported the name into, attribute, span name, hook)
TARGETS: tuple[tuple[str, str, str, Hook | None], ...] = (
    ("mipclass.pipeline_cli", "read_nifti", "tensorio.read_nifti", None),
    ("mipclass.pipeline_cli", "write_blob", "tensorio.write_blob", None),
    ("mipclass.pipeline_cli", "read_blob", "tensorio.read_blob", _read_blob),
    ("mipclass.phantom", "write_nifti", "tensorio.write_nifti", _write_nifti),
    # Volume.__post_init__ calls it once per construction
    ("mipclass.volume", "dominant_axes", "volume.dominant_axes", None),
    ("mipclass.mipbuild", "reorient_canonical", "geometry.reorient_canonical", None),
    ("mipclass.mipbuild", "resample", "geometry.resample", _resample),
    ("mipclass.mipbuild", "crop_or_pad", "geometry.crop_or_pad", _crop_or_pad),
    ("mipclass.mipbuild", "localize_rows", "geometry.localize_rows", None),
    ("mipclass.mipbuild", "extract_rows", "geometry.extract_rows", None),
    ("mipclass.mipbuild", "split_lr", "geometry.split_lr", None),
    ("mipclass.pipeline_cli", "build_stack", "mipbuild.build_stack", None),
    ("mipclass.mipbuild", "apply_mask", "mipbuild.apply_mask", None),
    ("mipclass.mipbuild", "subtract_clamped", "mipbuild.subtract_clamped", None),
    ("mipclass.mipbuild", "mip_z", "mipbuild.mip_z", None),
    ("mipclass.pipeline_cli", "normalize_stack", "mipbuild.normalize_stack", None),
    ("mipclass.pipeline_cli", "augment", "augment2d.augment", _augment),
    ("mipclass.pipeline_cli", "extract_features", "classhead.extract_features", _extract_features),
    ("mipclass.pipeline_cli", "train_head", "classhead.train_head", None),
    # sgd_epoch and forward are called from pipeline_cli (augmented
    # training, predict) and from inside classhead.train_head
    ("mipclass.pipeline_cli", "sgd_epoch", "classhead.sgd_epoch", None),
    ("mipclass.classhead", "sgd_epoch", "classhead.sgd_epoch", None),
    ("mipclass.pipeline_cli", "forward", "classhead.forward", None),
    ("mipclass.classhead", "forward", "classhead.forward", None),
    ("mipclass.pipeline_cli", "stratified_kfold", "evalkit.stratified_kfold", None),
    ("mipclass.pipeline_cli", "evaluate", "evalkit.evaluate", None),
    ("mipclass.pipeline_cli", "ensemble_all", "evalkit.ensemble_all", None),
    ("mipclass.pipeline_cli", "read_predictions_csv", "evalkit.read_predictions_csv", None),
    ("mipclass.pipeline_cli", "write_predictions_csv", "evalkit.write_predictions_csv", None),
)


class Tracer:
    """Records spans for the functions in TARGETS while installed."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # (id, parent, name, start_ns, end_ns, thread ident); list.append is atomic
        self.spans: list[tuple[int, int, str, int, int, int]] = []
        self.sums: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._stage = 0  # parent of spans opened on a thread with no open span
        self._patched: list[tuple[Any, str, Any]] = []
        self.missing: list[str] = []  # targets the program no longer has

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.sums[name] += amount

    def see(self, name: str, key: Any) -> None:
        with self._lock:
            self.keys[name].add(key)

    def _open(self) -> tuple[int, int, list[int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else self._stage
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack

    def _wrap(self, original: Callable, name: str, hook: Hook | None) -> Callable:
        signature = inspect.signature(original)

        def traced(*args, **kwargs):
            span_id, parent, stack = self._open()
            start = time.perf_counter_ns()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((span_id, parent, name, start, end, threading.get_ident()))
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(self, bound.arguments, result)
                self.spans.append(
                    (next(self._ids), parent, HOOK, end, time.perf_counter_ns(),
                     threading.get_ident())
                )
            return result

        return traced

    def install(self) -> None:
        for module_name, attr, name, hook in TARGETS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            self._patched.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, hook))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def stage(self, name: str):
        """Span for one CLI stage; worker-thread spans without a parent hang here."""
        span_id, parent, stack = self._open()
        self._stage = span_id
        start = time.perf_counter_ns()
        try:
            yield
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self._stage = 0
            self.spans.append((span_id, parent, f"pipeline_cli.{name}", start, end,
                               threading.get_ident()))

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, thread in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent, "name": name,
                    "start_ns": start, "end_ns": end, "thread": thread,
                }) + "\n")

    def summary(self) -> dict[str, Any]:
        """Per span name: calls, total and self seconds, and per-call seconds."""
        children: dict[int, list[tuple[int, int]]] = defaultdict(list)
        for _, parent, _, start, end, _ in self.spans:
            children[parent].append((start, end))
        names: dict[str, dict[str, Any]] = {}
        for span_id, _, name, start, end, _ in self.spans:
            entry = names.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "each_s": []})
            duration = (end - start) / 1e9
            entry["calls"] += 1
            entry["s"] += duration
            entry["self_s"] += duration - _covered(children.get(span_id, ()), start, end) / 1e9
            entry["each_s"].append(duration)
        return {
            "spans": names,
            "sums": dict(self.sums),
            "distinct": {name: len(keys) for name, keys in self.keys.items()},
            "missing": self.missing,
        }


def _covered(intervals, start: int, end: int) -> int:
    """Length of [start, end] covered by the union of the intervals.

    Children of a stage span can overlap when preprocess runs on threads.
    """
    total = 0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total
