"""mipclass benchmark: every CLI stage on seeded phantom cohorts.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload accept30 --seed 1 --seconds 60 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload

Each repetition is a fresh process (perfbench/worker.py) that runs the
CLI stages through ``mipclass.main``, one client in a closed loop: a stage
starts when the previous one returns.  A run starts with one full
repetition (``phantom`` -> ``preprocess`` -> ``split`` -> ``train`` ->
``predict`` -> ``ensemble`` -> ``evaluate``), which gives ``setup_s`` and
``peak_rss_mb``.  Then, while the next one is expected to end within
``--seconds``, pipeline repetitions (``preprocess`` -> ``evaluate``) rerun
on the same cohort, each in an emptied run directory.  The stage metrics
are medians over all repetitions.  With ``--trace 1`` the run is two
traced full repetitions and one untraced pipeline repetition, and it
reports the per-layer metrics; the tracing overhead is traced minus
untraced ``pipeline_s``.

Every repetition is checked: each stage exits 0, preprocess reports no
failure, ensemble.csv covers all 2n breasts with finite probabilities,
ensemble accuracy meets the workload's floor, 2k models exist, and the
run directory hashes to the same digest after every repetition of the
run.  A repetition that fails a check is a failed operation and is left
out of the metrics.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Everything else (per-repetition figures, digests, spreads,
machine facts) goes to perfbench/out/results/.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from machine import machine_facts, steal_s
from metrics import END_TO_END, LAYERS, PER_LAYER
from workloads import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
RUN_LIMIT_S = 170.0  # a run must exit within 180 s
# One thread per BLAS call: with preprocess at one job every stage runs on
# one core of the two the benchmark was sized for.
THREAD_ENV = {
    name: "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
}
LABELS = {"no_lesion": 0, "benign": 1, "malignant": 2}
COHORT = ("manifest.csv", "studies")  # what the phantom stage writes


class SetupError(Exception):
    """The checkout cannot be benchmarked: no source tree or a bad BENCHMARK.json."""


def check_checkout() -> None:
    if not (SRC / "mipclass" / "__init__.py").is_file():
        raise SetupError(f"no mipclass source tree at {SRC}")
    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise SetupError(f"cannot read BENCHMARK.json: {exc}") from exc
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = [(m["name"], m["unit"], m["better"], m.get("bound"))
                    for m in bench.get(key, [])]
        if declared != [(m.name, m.unit, m.better, m.bound) for m in table]:
            raise SetupError(f"BENCHMARK.json {key} does not match perfbench/metrics.py")
    if [w["name"] for w in bench.get("workloads", [])] != list(WORKLOADS):
        raise SetupError("BENCHMARK.json workloads do not match perfbench/workloads.py")


# ---------------------------------------------------------------------------
# one repetition


def tree_digest(root: Path) -> str:
    """sha256 over (relative path, bytes) of every file, in path order."""
    h = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        rel = path.relative_to(root).as_posix().encode()
        data = path.read_bytes()
        h.update(len(rel).to_bytes(8, "little") + rel)
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def check_outputs(workload: Workload, run: Path) -> list[str]:
    """Failed correctness checks of one finished run directory."""
    problems = []
    report = json.loads((run / "preprocess_report.json").read_text())
    if report["failed"] or len(report["succeeded"]) != workload.n:
        problems.append(f"preprocess failures: {sorted(report['failed'])}")
    with open(run / "manifest.csv", newline="", encoding="utf-8") as fh:
        truth = {}
        for row in csv.DictReader(fh):
            truth[(row["patient_id"], "right")] = LABELS[row["label_right"]]
            truth[(row["patient_id"], "left")] = LABELS[row["label_left"]]
    with open(run / "predictions" / "ensemble.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    seen, correct = set(), 0
    for patient, side, *probs, _model in rows:
        values = [float(v) for v in probs]
        if not all(math.isfinite(v) for v in values) or abs(sum(values) - 1.0) > 1e-6:
            problems.append(f"non-finite or off-simplex probabilities for {patient}/{side}")
        seen.add((patient, side))
        correct += int(values.index(max(values)) == truth.get((patient, side)))
    if len(rows) != 2 * workload.n or seen != set(truth):
        problems.append(f"ensemble covers {len(seen)} of {len(truth)} breasts in {len(rows)} rows")
    accuracy = correct / max(len(rows), 1)
    if workload.min_accuracy is not None and accuracy < workload.min_accuracy:
        problems.append(f"ensemble accuracy {accuracy:.3f} < {workload.min_accuracy}")
    models = len(list((run / "models").glob("*.json")))
    if models != 2 * workload.k:
        problems.append(f"{models} models, expected {2 * workload.k}")
    return problems


def clear_run(run: Path, full: bool) -> None:
    """Empty the run directory; a pipeline repetition keeps the cohort."""
    if full or not run.is_dir():
        shutil.rmtree(run, ignore_errors=True)
        return
    for path in run.iterdir():
        if path.name in COHORT:
            continue
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink()


def run_rep(workload: Workload, seed: int, run: Path, rep: Path, full: bool, traced: bool,
            deadline: float) -> dict:
    clear_run(run, full)
    rep.mkdir(parents=True)
    (rep / "config.json").write_text(json.dumps(workload.config))
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload.name,
           "--seed", str(seed), "--run-dir", str(run), "--rep-dir", str(rep),
           "--stages", "full" if full else "pipeline", "--trace", str(int(traced))]
    start, stolen = time.monotonic(), steal_s()
    with open(rep / "stdout.log", "wb") as out, open(rep / "stderr.log", "wb") as err:
        try:
            # run() kills and reaps the worker if it times out
            subprocess.run(cmd, cwd=ROOT, env=env, stdout=out, stderr=err,
                           timeout=max(deadline - start, 1.0), check=False)
        except subprocess.TimeoutExpired:
            pass
    wall_s = time.monotonic() - start
    try:
        result = json.loads((rep / "result.json").read_text())
    except (OSError, ValueError):
        result = {"ok": False, "error": "worker timed out or wrote no result",
                  "traced": traced, "full": full}
    result["wall_s"] = wall_s
    result["steal_s"] = steal_s() - stolen
    result["problems"] = [] if result["ok"] else [result["error"]]
    if result["ok"]:
        try:
            result["problems"] += check_outputs(workload, run)
            report = json.loads((run / "preprocess_report.json").read_text())
            result["failed_studies"] = len(report["failed"])
            result["heads"] = len(list((run / "models").glob("*.json")))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            result["problems"].append(f"unreadable outputs: {type(exc).__name__}: {exc}")
        result["digest"] = tree_digest(run)
    return result


# ---------------------------------------------------------------------------
# per-layer metrics from a traced repetition


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    rank = max(math.ceil(pct / 100 * len(sorted_values)), 1)
    return sorted_values[rank - 1]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten samples beyond it (50 if none)."""
    return max(math.floor(100 * (n - 10) / n), 50) if n > 10 else 50


def layer_values(rep: dict) -> dict[str, float]:
    summary = rep["trace"]
    spans, sums, distinct = summary["spans"], summary["sums"], summary["distinct"]

    def field(span: str, key: str, default=0):
        return spans.get(span, {}).get(key, default)

    def ratio(span: str) -> float:
        calls = field(span, "calls")
        return distinct.get(span, 0) / calls if calls else 1.0

    each_ms = sorted(1e3 * s for s in field("mipbuild.build_stack", "each_s", []))
    values: dict[str, float] = {
        "tensorio.read_blob.unique_ratio": ratio("tensorio.read_blob"),
        "geometry.standardize.useful_ratio": ratio("geometry.resample"),
        "augment2d.augment.unique_ratio": ratio("augment2d.augment"),
        "classhead.extract_features.unique_ratio": ratio("classhead.extract_features"),
        "mipbuild.build_stack.p50_ms": percentile(each_ms, 50) if each_ms else 0.0,
        "mipbuild.build_stack.tail_ms":
            percentile(each_ms, tail_percentile(len(each_ms))) if each_ms else 0.0,
        "pipeline_cli.preprocess.failed_studies": rep.get("failed_studies", 0),
        "pipeline_cli.train.heads": rep.get("heads", 0),
    }
    for layer in LAYERS:
        values[f"{layer}.self_s"] = sum(
            entry["self_s"] for name, entry in spans.items() if name.startswith(layer + ".")
        )
    for metric in PER_LAYER:
        name = metric.name
        if name in values or name.startswith("trace."):
            continue
        if name in sums or name.endswith(("_mb", ".voxels_out")):
            values[name] = sums.get(name, 0.0)
        elif name.endswith(".calls"):
            values[name] = field(name[: -len(".calls")], "calls")
        elif name.endswith(".self_s"):
            values[name] = field(name[: -len(".self_s")], "self_s", 0.0)
        elif name.endswith(".s"):
            values[name] = field(name[: -len(".s")], "s", 0.0)
        else:
            raise KeyError(f"no rule computes per-layer metric {name}")
    return values


# ---------------------------------------------------------------------------
# one run of a workload


def spread(values: list[float]) -> float:
    """Interquartile range as a share of the median (0 with fewer than two)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool) -> dict:
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    base = OUT / f"{workload.name}-seed{seed}-trace{int(trace)}-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    run = base / "run"
    reps: list[dict] = []

    def rep(full: bool, traced: bool = False) -> None:
        reps.append(run_rep(workload, seed, run, base / f"rep{len(reps)}", full, traced,
                            deadline))

    if trace:
        rep(full=True, traced=True)
        rep(full=True, traced=True)
        rep(full=False)  # the untraced baseline for the tracing overhead
    else:
        # one full repetition gives setup_s; pipeline repetitions on its
        # cohort fill the rest of the run, as long as the next one is
        # expected to end within it
        rep(full=True)
        while reps[-1]["ok"]:
            last = reps[-1]
            expected = last["wall_s"] - (last["setup_s"] or 0.0)
            if time.monotonic() - start + expected > seconds:
                break
            rep(full=False)
    shutil.rmtree(run, ignore_errors=True)

    # determinism: every repetition's run directory hashes the same
    digests = [r["digest"] for r in reps if "digest" in r]
    reference = digests[0] if digests else None
    for r in reps:
        if "digest" in r and r["digest"] != reference:
            r["problems"].append("run directory digest differs from the first repetition")

    result = {
        "workload": workload.name, "seed": seed, "trace": trace, "seconds": seconds,
        "digest": reference, "wall_s": time.monotonic() - start, "repetitions": reps,
    }
    if trace:
        traced_reps = [r for r in reps if r["traced"] and not r["problems"]]
        per_rep = [layer_values(r) for r in traced_reps]
        counts = [
            {m.name: v[m.name] for m in PER_LAYER
             if m.unit in ("count", "MB", "ratio")}
            for v in per_rep
        ]
        repeat = len(counts) == 2 and counts[0] == counts[1]
        if len(counts) == 2 and not repeat:
            traced_reps[1]["problems"].append("per-layer counts differ between traced runs")
        untraced = [r["pipeline_s"] for r in reps if not r["traced"] and not r["problems"]]
        if len(per_rep) == 2 and untraced:
            values = {name: statistics.median(v[name] for v in per_rep) for name in per_rep[0]}
            values["trace.pipeline_s"] = statistics.median(r["pipeline_s"] for r in traced_reps)
            values["trace.overhead_s"] = values["trace.pipeline_s"] - untraced[0]
            values["trace.counts_repeat"] = int(repeat)
            result["metrics"] = {m.name: {"value": values[m.name], "unit": m.unit}
                                 for m in PER_LAYER}
            result["tail_percentile"] = tail_percentile(
                int(values["mipbuild.build_stack.calls"]))
        for r in traced_reps:
            del r["trace"]["spans"]  # the spans themselves are in spans.jsonl
    good = [r for r in reps if not r["problems"] and not r["traced"]]
    if not trace and good:
        full = [r for r in good if r["full"]]
        samples = {
            "setup_s": [r["setup_s"] for r in full],
            "preprocess_s": [r["stage_s"]["preprocess"] for r in good],
            "train_s": [r["stage_s"]["train"] for r in good],
            "pipeline_s": [r["pipeline_s"] for r in good],
            "peak_rss_mb": [r["peak_rss_mb"] for r in full],
        }
        if all(samples.values()):
            result["summary"] = {
                name: {"median": statistics.median(v), "spread": spread(v), "n": len(v)}
                for name, v in samples.items()
            }
            result["metrics"] = {
                m.name: {"value": result["summary"][m.name]["median"], "unit": m.unit}
                for m in END_TO_END
            }
    result["attempted"] = len(reps)
    result["failed"] = sum(1 for r in reps if r["problems"])
    return result


# ---------------------------------------------------------------------------


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        check_checkout()
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    facts = machine_facts(ROOT, args.seed, THREAD_ENV)
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        result = run_workload(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
        result["machine"] = facts
        result["why"] = WORKLOADS[name].why
        result["parameters"] = {"n": WORKLOADS[name].n, "jobs": WORKLOADS[name].jobs,
                                "config": WORKLOADS[name].config}
        path = OUT / "results" / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(result, indent=1))
        for r in result["repetitions"]:
            for problem in r["problems"]:
                print(f"{name}: FAILED CHECK: {problem}")
            for target in r.get("trace", {}).get("missing", ()):
                print(f"{name}: not traced, absent from the program: {target}")
        summary = result.get("summary", {})
        for metric, entry in result.get("metrics", {}).items():
            stats = summary.get(metric)
            extra = f"  (spread {stats['spread']:.3f}, n={stats['n']})" if stats else ""
            print(f"{name}  {metric} = {entry['value']:.6g} {entry['unit']}{extra}")
        print(f"{name}: digest {result['digest']}, {result['attempted']} attempted, "
              f"{result['failed']} failed, {result['wall_s']:.1f} s -> {path}")
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["correct"] = combined["correct"] and result["failed"] == 0 and "metrics" in result
        prefix = "" if len(names) == 1 else f"{name}."
        for metric, entry in result.get("metrics", {}).items():
            combined["metrics"][prefix + metric] = entry
    print(json.dumps(combined))
    # a failed check is reported in the result; only a run left without
    # some metric exits non-zero
    complete = len(combined["metrics"]) == len(names) * len(
        PER_LAYER if args.trace else END_TO_END)
    return 0 if complete else 1


if __name__ == "__main__":
    sys.exit(main())
