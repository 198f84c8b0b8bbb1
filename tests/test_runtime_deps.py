"""The runtime needs numpy alone.  scipy is installed for the tests' oracles,
so an accidental import of it would pass every other test; this one runs the
pipeline in a fresh interpreter and lists the modules it loaded."""

import json

from capped_process import run_capped

_PIPELINE = """
import json, sys
from pathlib import Path
from mipclass import main

run = Path(sys.argv[1])
config = run.parent / "config.json"
config.write_text(json.dumps({
    "spacing": [1.4, 1.4, 6.0], "shape": [64, 64, 16], "row_window": 32,
    "augment": {}, "train": {"epochs": 3, "batch": 4, "warmup_epochs": 1}, "k": 2,
}))
base = ["--manifest", str(run / "manifest.csv"), "--config", str(config), "--out", str(run)]
assert main(["phantom", "--n", "6", "--seed", "0", "--out", str(run)]) == 0
for stage in ("preprocess", "split", "train"):
    assert main([stage, *base]) == 0, stage
assert main(["predict", "--out", str(run)]) == 0
print(json.dumps(sorted(name for name in sys.modules if name.split(".")[0] == "scipy")))
"""


def test_phantom_to_predict_loads_no_scipy(tmp_path):
    """Augmentation is on (the published policy), so the warp and blur run too."""
    proc = run_capped(["-c", _PIPELINE, str(tmp_path / "run")], 3 << 30)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == []
