"""Deterministic memory guards at the published 512x512x32 grid.

Peaks are those of tracemalloc, started by each test around one call; numpy
reports its array buffers to it, so a peak is the most array and Python
memory the call held at once, the same on every run and machine.
"""

import json
import tracemalloc

from mipclass import phantom
from mipclass.mipbuild import BuildConfig, build_stacks
from mipclass.pipeline_cli import cmd_preprocess, cmd_split, cmd_train, load_config

MIB = 1 << 20


def _traced_peak(fn, *args) -> int:
    """The peak traced bytes while `fn(*args)` runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_build_stacks_holds_no_full_grid_copy():
    """Row localization pads post1 only in height, so one study never holds a
    32 MiB copy of it on the whole grid."""
    study = phantom.generate_study("p000", 0, 1)
    assert _traced_peak(build_stacks, study, BuildConfig()) < 16 * MIB


def test_train_peak_does_not_grow_with_the_cohort(tmp_path):
    """Train holds one 1 MiB stack at a time: ten more breasts add only
    their features, far less than their stacks."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"k": 2, "train": {"epochs": 3, "warmup_epochs": 1}}))
    config = load_config(path)
    assert config.policy.active
    peaks = {}
    for n in (5, 10):
        run = tmp_path / f"run{n}"
        phantom.write_cohort(n, seed=0, out_dir=run)
        cmd_preprocess(run / "manifest.csv", config, run)
        cmd_split(run / "manifest.csv", config, run)
        peaks[n] = _traced_peak(cmd_train, run / "manifest.csv", config, run)
    assert peaks[10] - peaks[5] < 1 * MIB
