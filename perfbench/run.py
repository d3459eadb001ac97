#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. It configures and builds perfbench/ (which
pulls in the snnfi library through add_subdirectory) into
.bench_build/perfbench, runs the native perfbench binary for one workload,
checks its outputs, and prints as its last stdout line one JSON object with
the keys correct, attempted, failed and metrics. The line before it is a
JSON report with the provenance, the result-table hashes and the rationale.

--trace 0 reports the end-to-end metrics of untraced repetitions.
--trace 1 adds one repetition with telemetry on plus the layer probes and
reports the per-layer metrics instead.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUNS_DIR = ROOT / ".bench_build" / "perfbench-runs"

# One repetition = a fresh Session's setup plus the timed phase. The
# repetition count is --seconds divided by a fixed nominal repetition cost
# (at least 2, so every table hash is compared across repetitions): both
# sides of a comparison then measure the same number of repetitions. Setup
# is additionally repeated alone until MIN_SETUPS setups were timed, and
# setup_s is their median.
MIN_SETUPS = 5
WORKLOADS = {
    "registry-quick": {
        "nominal_rep_s": 12.0,
        "why": "All 37 registry experiments, quick, at min(4, nproc) threads with a "
               "fresh store: the ROADMAP end-to-end unit; exercises every layer and "
               "the store write path.",
    },
    "train-sweep": {
        "nominal_rep_s": 8.0,
        "why": "fig7b at full size on one thread, no store: encoder, STDP and LIF "
               "training dominate; SPICE, fi and store do nothing.",
    },
    "campaign-infer": {
        "nominal_rep_s": 6.0,
        "why": "fi.weights and fi.neurons at full size, min(4, nproc) threads, warm "
               "store: batched faulted inference and fi orchestration; setup is a "
               "store read.",
    },
}
E2E = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
# Per-layer metrics of the traced run: name -> (unit, the end-to-end metric
# it should move, the workload where it matters).
LAYERS = {
    "core.setup.dataset_s": ("s", "setup_s", "all"),
    "core.setup.baseline_s": ("s", "setup_s", "all"),
    "core.run.circuit_s": ("s", "wall_s", "registry-quick"),
    "core.run.attack_s": ("s", "wall_s", "registry-quick"),
    "core.run.defense_s": ("s", "wall_s", "registry-quick"),
    "core.run.ablation_s": ("s", "wall_s", "registry-quick"),
    "core.run.fi_s": ("s", "wall_s", "registry-quick"),
    "core.cache.hit_ratio": ("ratio", "wall_s", "registry-quick"),
    "core.characterize_s": ("s", "wall_s", "registry-quick"),
    "core.sweep_s": ("s", "wall_s", "registry-quick"),
    "core.glitch_profile_s": ("s", "wall_s", "registry-quick"),
    "fi.execute_s": ("s", "wall_s", "campaign-infer"),
    "fi.batch_s": ("s", "wall_s", "campaign-infer"),
    "fi.clean_s": ("s", "wall_s", "campaign-infer"),
    "fi.train_s": ("s", "wall_s", "campaign-infer"),
    "fi.cells": ("count", "wall_s", "campaign-infer"),
    "fi.cells_per_s": ("1/s", "wall_s", "campaign-infer"),
    "snn.steps.fast": ("count", "wall_s", "campaign-infer"),
    "snn.steps.scalar": ("count", "wall_s", "campaign-infer"),
    "snn.encode.ns_per_step": ("ns", "wall_s", "train-sweep"),
    "snn.encode.draws_per_spike": ("ratio", "wall_s", "train-sweep"),
    "snn.drive.ns_per_step": ("ns", "wall_s", "campaign-infer"),
    "snn.lif.ns_per_step": ("ns", "wall_s", "campaign-infer"),
    "snn.learn.ns_per_step": ("ns", "wall_s", "train-sweep"),
    "snn.normalize.us_per_call": ("us", "wall_s", "train-sweep"),
    "snn.classify.us_per_sample": ("us", "wall_s", "campaign-infer"),
    "snn.train_sample.ms": ("ms", "wall_s", "train-sweep"),
    "snn.infer_sample.ms": ("ms", "wall_s", "campaign-infer"),
    "snn.infer_sample_faulted.ms": ("ms", "wall_s", "campaign-infer"),
    "snn.batch_sample.ms": ("ms", "wall_s", "campaign-infer"),
    "snn.unattributed_frac": ("ratio", "wall_s", "train-sweep"),
    "spice.lu.us": ("us", "wall_s", "registry-quick"),
    "spice.dc.ms": ("ms", "wall_s", "registry-quick"),
    "spice.transient.ms": ("ms", "wall_s", "registry-quick"),
    "circuits.threshold.ms": ("ms", "wall_s", "registry-quick"),
    "circuits.time_to_spike.ms": ("ms", "wall_s", "registry-quick"),
    "circuits.driver.ms": ("ms", "wall_s", "registry-quick"),
    "store.save_s": ("s", "wall_s", "registry-quick"),
    "store.load_s": ("s", "setup_s", "campaign-infer"),
    "store.write_bytes": ("bytes", "wall_s", "registry-quick"),
    "store.read_bytes": ("bytes", "setup_s", "campaign-infer"),
    "store.hits": ("count", "setup_s", "campaign-infer"),
    "store.misses": ("count", "setup_s", "registry-quick"),
    "trace_overhead": ("ratio", "wall_s", "all"),
}
# The warm-store and single-experiment workloads must not train or build a
# dataset after setup (registry-quick legitimately trains campaign replicas).
SETUP_ONLY_SPANS = {"session.train", "session.dataset"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def child_env():
    # The library reads these; the benchmark fixes its own store, threads and
    # telemetry, so inherited values must not leak in.
    return {k: v for k, v in os.environ.items() if not k.startswith("SNNFI_")}


def build(deadline):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "core" / "session.hpp").is_file():
        print("perfbench: run from a checkout of the repository (no snnfi sources next to perfbench/)",
              file=sys.stderr)
        sys.exit(2)
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR.parent / "perfbench-build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench", "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT, env=child_env(),
                                      timeout=max(1.0, deadline - time.monotonic())).returncode
            except subprocess.TimeoutExpired:
                fail("build timed out")
            if code != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build step failed: {' '.join(step)}")
    return BUILD_DIR / "perfbench"


def run_native(binary, args, deadline):
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE, env=child_env(),
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("perfbench binary timed out")
    if proc.returncode != 0:
        fail(f"perfbench binary exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("perfbench binary printed nothing")
    return json.loads(lines[-1])


def table_hash(table):
    """SHA-256 of a result table; timing, obs and cache live outside it."""
    text = json.dumps(table, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def check_outputs(doc):
    """Counts failed experiment runs: an exception, an empty or non-finite
    table, or a table hash that differs from the first repetition's."""
    reps = doc["reps"] + ([doc["traced"]] if "traced" in doc else [])
    reference = {e["id"]: table_hash(e["table"]) for e in doc["reps"][0]["experiments"] if e["ok"]}
    attempted = failed = 0
    problems = []
    for index, rep in enumerate(reps):
        label = "traced" if index == len(doc["reps"]) else f"rep {index}"
        for e in rep["experiments"]:
            attempted += 1
            if not e["ok"]:
                failed += 1
                problems.append(f"{label} {e['id']}: {e['error']}")
            elif reference.get(e["id"]) != table_hash(e["table"]):
                failed += 1
                problems.append(f"{label} {e['id']}: result hash differs from rep 0")
        if rep["guard"]:
            problems.append(f"{label}: setup-reuse guard: {rep['guard']}")
    return attempted, failed, reference, problems


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_revision():
    if not (ROOT / ".git").exists():
        return "unavailable (not a git checkout)"
    try:
        return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def source_digest():
    """SHA-256 over the library and benchmark sources, for checkouts that are not git repos."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted((ROOT / "src").rglob("*.[ch]pp")) + \
        sorted(p for p in HERE.rglob("*") if p.is_file() and "__pycache__" not in p.parts)
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def layer_metrics(doc, workload):
    """Per-layer values of the traced repetition: span sums from the trace,
    counters from the metrics document, and the probes."""
    events = json.loads(Path(doc["trace_file"]).read_text())["traceEvents"]
    counters = json.loads(Path(doc["metrics_file"]).read_text())["counters"]
    span_s = defaultdict(float)
    family_s = defaultdict(float)
    timed_start = min(e["ts"] for e in events if e["name"] == "bench.timed")
    late = []
    for e in events:
        seconds = e["dur"] * 1e-6
        span_s[e["name"]] += seconds
        if e["name"] == "bench.run":
            family_s[e["args"]["family"]] += seconds
        if e["name"] in SETUP_ONLY_SPANS and e["ts"] >= timed_start:
            late.append(e["name"])
    problems = []
    if workload != "registry-quick" and late:
        problems.append(f"setup-reuse guard: timed phase ran {sorted(set(late))}")
    hits, misses = doc["traced"]["cache_hits"], doc["traced"]["cache_misses"]
    probes = doc["probes"]
    problems += [f"probe check failed: {k}" for k, ok in probes["checks"].items() if not ok]
    untraced_wall = statistics.median(r["wall_s"] for r in doc["reps"])
    values = {
        "core.setup.dataset_s": span_s["bench.setup.dataset"],
        "core.setup.baseline_s": span_s["bench.setup.baseline"],
        "core.cache.hit_ratio": hits / max(1, hits + misses),
        "core.characterize_s": span_s["session.characterize"],
        "core.sweep_s": span_s["session.sweep"],
        "core.glitch_profile_s": span_s["session.glitch_profile"],
        "fi.execute_s": span_s["fi.execute"],
        "fi.batch_s": span_s["fi.batch"],
        "fi.clean_s": span_s["fi.clean"],
        "fi.train_s": span_s["fi.train"],
        "fi.cells": counters.get("fi.cells", 0),
        "fi.cells_per_s": counters.get("fi.cells", 0) / span_s["fi.execute"] if span_s["fi.execute"] else 0.0,
        "snn.steps.fast": counters.get("snn.steps.fast", 0),
        "snn.steps.scalar": counters.get("snn.steps.scalar", 0),
        "store.save_s": span_s["store.save"],
        "store.load_s": span_s["store.load"],
        "store.write_bytes": counters.get("store.write_bytes", 0),
        "store.read_bytes": counters.get("store.read_bytes", 0),
        "store.hits": counters.get("store.hits", 0),
        "store.misses": counters.get("store.misses", 0),
        "trace_overhead": doc["traced"]["wall_s"] / untraced_wall,
    }
    for family in ("circuit", "attack", "defense", "ablation", "fi"):
        values[f"core.run.{family}_s"] = family_s[family]
    for name in LAYERS:
        if name not in values:
            values[name] = probes[name]
    return values, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    deadline = time.monotonic() + 850.0
    binary = build(deadline)

    spec = WORKLOADS[args.workload]
    reps = max(2, int(args.seconds // spec["nominal_rep_s"]))
    work = RUNS_DIR / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    common = [f"--workload={args.workload}", f"--seed={args.seed}", f"--work-dir={work}"]
    run_deadline = time.monotonic() + 170.0
    if args.workload == "campaign-infer":
        run_native(binary, common + ["--prepare"], run_deadline)  # untimed warm-up of the store
    native = common + [f"--reps={reps}", f"--setup-reps={max(0, MIN_SETUPS - reps)}"]
    doc = run_native(binary, native + (["--trace"] if args.trace else []), run_deadline)
    attempted, failed, hashes, problems = check_outputs(doc)

    if args.trace:
        values, layer_problems = layer_metrics(doc, args.workload)
        problems += layer_problems
        metrics = {name: {"value": values[name], "unit": LAYERS[name][0]} for name in LAYERS}
    else:
        values = {
            "wall_s": statistics.median(r["wall_s"] for r in doc["reps"]),
            "setup_s": statistics.median(doc["setups"]),
            "cpu_s": statistics.median(r["cpu_s"] for r in doc["reps"]),
            "peak_rss_mb": doc["peak_rss_mb"],
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E.items()}
    for problem in problems:
        print(f"perfbench: {problem}", file=sys.stderr)

    report = {
        "workload": args.workload,
        "why": spec["why"],
        "seed": args.seed,
        "repetitions": reps,
        "setups": len(doc["setups"]),
        "provenance": dict(doc["provenance"], cpu_model=cpu_model(), nproc=os.cpu_count(),
                           git_revision=git_revision(), source_sha256=source_digest()),
        "samples": {
            "wall_s": [r["wall_s"] for r in doc["reps"]],
            "cpu_s": [r["cpu_s"] for r in doc["reps"]],
            "setup_s": doc["setups"],
        },
        "result_sha256": hashes,
        "probes": doc.get("probes"),
        "layer_map": {name: {"moves": moves, "workload": where}
                      for name, (_, moves, where) in LAYERS.items()},
        "problems": problems,
    }
    (work / "report.json").write_text(json.dumps(report, indent=1) + "\n")
    print(json.dumps({"perfbench_report": report}))
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
