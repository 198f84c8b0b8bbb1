#!/usr/bin/env python3
"""End-to-end walkthrough driving the CLI: synthetic cohort in, fold
metrics and an out-of-fold ensemble out.  Takes about 15 seconds."""

import json
import tempfile
from pathlib import Path

from mipclass import main

# The work directory is removed at the end (or at exit, should a step fail).
tmp = tempfile.TemporaryDirectory(prefix="mipclass_run_")
work = Path(tmp.name)
run = work / "run"

# A compact configuration: modest grid, short schedule, augmentation off.
config = {
    "spacing": [0.7, 0.7, 3.0],
    "shape": [128, 128, 32],
    "row_window": 64,
    "augment": None,
    "train": {"epochs": 150, "batch": 10, "lr_max": 0.05, "warmup_epochs": 5},
    "k": 5,
    "seed": 0,
}
config_path = work / "config.json"
config_path.write_text(json.dumps(config, indent=2))

steps = [
    ["phantom", "--n", "18", "--seed", "0", "--out", str(run)],
    ["preprocess", "--manifest", str(run / "manifest.csv"),
     "--config", str(config_path), "--out", str(run), "--jobs", "2"],
    ["split", "--manifest", str(run / "manifest.csv"),
     "--config", str(config_path), "--out", str(run)],
    ["train", "--manifest", str(run / "manifest.csv"),
     "--config", str(config_path), "--out", str(run), "--weighting", "both"],
    ["predict", "--config", str(config_path), "--out", str(run)],
]
for argv in steps:
    print(f"\n$ mipclass {' '.join(argv)}")
    rc = main(argv)
    assert rc == 0, f"step failed with exit code {rc}"

csvs = sorted(str(p) for p in (run / "predictions").glob("*_fold*.csv"))
argv = ["ensemble", "--manifest", str(run / "manifest.csv"), "--out", str(run), *csvs]
print(f"\n$ mipclass ensemble --manifest ... --out ... ({len(csvs)} CSVs)")
assert main(argv) == 0

metrics = json.loads((run / "metrics" / "ensemble.json").read_text())
print("\nout-of-fold ensemble metrics:")
for key in ("auc", "sens_at_90spec", "spec_at_90sens", "score"):
    print(f"  {key:15s} {metrics[key]:.4f}")
print("\nrun directory held:", sorted(p.name for p in run.iterdir()))
tmp.cleanup()
