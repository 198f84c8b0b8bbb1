"""One repetition of a workload in a fresh process: the CLI stages in order.

Usage (from run.py, with src/ on PYTHONPATH)::

    python3 perfbench/worker.py --workload NAME --seed N --run-dir RUN \
        --rep-dir DIR --stages full|pipeline --trace 0|1

``full`` runs phantom -> evaluate into RUN; ``pipeline`` runs preprocess
-> evaluate on the cohort a full repetition left in RUN.  DIR must hold
config.json.  Stage output goes to stdout; the timings (and, traced, the
span summary) go to DIR/result.json, and the spans to DIR/spans.jsonl.
"""

import time

T_START = time.perf_counter()  # before any import: setup_s counts the imports

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKLOADS  # noqa: E402


class StageFailed(Exception):
    pass


def run_stages(workload, seed: int, run: Path, rep: Path, full: bool, tracer) -> dict:
    import mipclass  # the public entry: mipclass.main

    if tracer is not None:
        tracer.install()
    manifest = str(run / "manifest.csv")
    common = ["--manifest", manifest, "--config", str(rep / "config.json"), "--out", str(run)]
    stage_s: dict[str, float] = {}

    def stage(name: str, *argv: str) -> None:
        start = time.perf_counter()
        with tracer.stage(name) if tracer is not None else nullcontext():
            code = mipclass.main([name, *argv])
        stage_s[name] = time.perf_counter() - start
        if code != 0:
            raise StageFailed(f"{name} exited {code}")

    setup_s = None
    if full:
        stage("phantom", "--n", str(workload.n), "--seed", str(seed), "--out", str(run))
        setup_s = time.perf_counter() - T_START
    start = time.perf_counter()
    stage("preprocess", *common, "--jobs", str(workload.jobs))
    stage("split", *common)
    stage("train", *common)
    stage("predict", "--config", str(rep / "config.json"), "--out", str(run))
    members = sorted(str(p) for p in (run / "predictions").glob("*_fold*.csv"))
    stage("ensemble", "--manifest", manifest, "--out", str(run), *members)
    stage("evaluate", "--manifest", manifest, "--out", str(run),
          str(run / "predictions" / "ensemble.csv"))
    pipeline_s = time.perf_counter() - start
    return {
        "stage_s": stage_s,
        "setup_s": setup_s,
        "pipeline_s": pipeline_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--run-dir", required=True)
    parser.add_argument("--rep-dir", required=True)
    parser.add_argument("--stages", choices=("full", "pipeline"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    rep = Path(args.rep_dir)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(run_id=f"{rep.parent.name}/{rep.name}")
    full = args.stages == "full"
    result: dict = {"traced": bool(args.trace), "full": full}
    try:
        result.update(
            run_stages(WORKLOADS[args.workload], args.seed, Path(args.run_dir), rep, full, tracer)
        )
        result["ok"] = True
    except StageFailed as exc:
        result.update(ok=False, error=str(exc))
    except Exception as exc:  # reported as a failed operation by run.py
        result.update(ok=False, error=f"{type(exc).__name__}: {exc}")
        traceback.print_exc()
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.summary()
        tracer.write_spans(str(rep / "spans.jsonl"))
    (rep / "result.json").write_text(json.dumps(result))
    return 0 if result["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
