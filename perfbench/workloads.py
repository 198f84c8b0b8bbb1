"""The benchmark's workloads: phantom cohort size, pipeline config and jobs.

Each workload is a phantom cohort of ``n`` studies, generated from the
seed given on the command line, run through every CLI stage with the
config below.  The reason each one exists is kept next to it, because
each is there to exercise (or to bypass) particular layers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

@dataclass(frozen=True)
class Workload:
    name: str
    n: int  # studies in the phantom cohort
    jobs: int  # preprocess --jobs
    config: dict[str, Any]  # pipeline config JSON ("augment": None means off)
    min_accuracy: float | None  # ensemble accuracy gate; None = not checked
    why: str

    @property
    def k(self) -> int:
        return self.config.get("k", 5)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="accept30",
            n=30,
            # The acceptance test preprocesses with --jobs 2.  On a 2-vCPU
            # virtual machine the host takes time from the second CPU
            # whenever both are busy (up to 2.7 s of steal in a 5-s
            # preprocess), which spread preprocess_s over ten runs by 0.37
            # of its median; one job keeps the run on one core.
            jobs=1,
            config={  # E2E_CONFIG of tests/test_acceptance.py
                "spacing": [0.7, 0.7, 3.0],
                "shape": [128, 128, 32],
                "row_window": 64,
                "augment": None,
                "train": {"epochs": 200, "batch": 10, "lr_max": 0.05, "warmup_epochs": 5},
                "k": 5,
                "seed": 0,
            },
            min_accuracy=0.90,
            why=(
                "30 studies at 128x128x32, no augmentation, 200 epochs, k=5, jobs 1: "
                "the acceptance run; gzip writes and per-phase standardization dominate; "
                "never calls augment"
            ),
        ),
        Workload(
            name="publish10aug",
            n=10,
            jobs=1,
            config={"train": {"epochs": 6}, "k": 5, "seed": 0},
            min_accuracy=None,  # six epochs at lr_max 1e-4 are not meant to be accurate
            why=(
                "10 studies at the published 512x512x32 grid and augmentation, 6 epochs, "
                "k=5, jobs 1: augment is most of train; large crop/pad copies and peak memory"
            ),
        ),
    )
}
