"""The traced benchmark harness runs against the program as it is.

perfbench/tracer.py wraps functions at the names their callers import, and
perfbench/run.py derives every per-layer metric from what those wrappers and
their hooks record.  A refactor that stops calling a hooked function leaves
a metric with no value, and ``layer_values`` raises: every traced benchmark
run then fails.  This test runs one tiny traced pipeline through the
harness's own worker code, with perfbench imported from its files as is.
"""

import importlib
import json
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# 6 phantom studies resampled to 32x32x8, default augmentation, 2 epochs, k=3
TINY_CONFIG = {
    "spacing": [2.8, 2.8, 12.0],
    "shape": [32, 32, 8],
    "row_window": 16,
    "train": {"epochs": 2, "batch": 4, "warmup_epochs": 1},
    "k": 3,
    "seed": 0,
}


# TARGETS whose names the program no longer calls where the tracer hooks them,
# so the tiny run leaves them at 0 calls.  Any other target left at 0 calls has
# been darkened by a change in the program: a caller that stopped going through
# the name the tracer wraps reads as a layer that costs nothing.
KNOWN_DARK = {
    "classhead.sgd_epoch",
    "classhead.train_head",
    "geometry.extract_rows",
    "geometry.split_lr",
    "mipbuild.apply_mask",
    "mipbuild.build_stack",
    "mipbuild.mip_z",
    "mipbuild.subtract_clamped",
    "volume.dominant_axes",
}


@pytest.fixture
def perfbench(monkeypatch):
    """perfbench's modules, imported from its directory and dropped afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    modules = {name: importlib.import_module(name) for name in ("tracer", "run", "worker")}
    yield modules
    for name in set(sys.modules) - before:
        del sys.modules[name]


def test_traced_pipeline_gives_every_per_layer_metric(perfbench, tmp_path):
    tracer_mod, run_mod, worker = perfbench["tracer"], perfbench["run"], perfbench["worker"]
    workload = perfbench["run"].Workload(
        name="tiny", n=6, jobs=1, config=TINY_CONFIG, min_accuracy=None, why="test"
    )
    rep = tmp_path / "rep"
    rep.mkdir()
    (rep / "config.json").write_text(json.dumps(TINY_CONFIG))
    tracer = tracer_mod.Tracer(run_id="test")
    try:
        worker.run_stages(workload, 1, tmp_path / "run", rep, True, tracer)
    finally:
        tracer.uninstall()
    summary = tracer.summary()

    values = run_mod.layer_values({"trace": summary})
    assert {m.name for m in run_mod.PER_LAYER if not m.name.startswith("trace.")} <= set(values)
    assert summary["spans"]["augment2d.augment"]["calls"] > 0
    hooked = {name for _, _, name, hook in tracer_mod.TARGETS if hook is not None}
    uncalled = sorted(name for name in hooked if not summary["spans"].get(name, {}).get("calls"))
    assert uncalled == []
    targets = {name for _, _, name, _ in tracer_mod.TARGETS}
    dark = {name for name in targets if not summary["spans"].get(name, {}).get("calls")}
    assert sorted(dark - KNOWN_DARK) == []
