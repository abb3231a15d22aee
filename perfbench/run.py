#!/usr/bin/env python3
"""The repo benchmark: builds the ledger binary and runs workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in its own process. --trace 0 measures the end-to-end
metrics under program defaults; --trace 1 measures the per-layer metrics.
The last stdout line is one JSON object: correct, attempted, failed and
metrics (name -> value and unit). With --workload all (the default) every
workload runs in turn and the metrics are keyed "<workload>/<metric>".
The exit code is non-zero when a build fails or an output check fails.
BENCHMARK.json at the checkout root names the workloads and metrics, and
perfbench/README.md explains them.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_catalog():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build(build_dir):
    """Configures once, then builds the ledger binary; returns its path."""
    if not os.path.isdir(os.path.join(ROOT, "src")):
        fail("no program sources: %s is missing" % os.path.join(ROOT, "src"))
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def run_workload(binary, build_dir, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its parsed result."""
    workdir = os.path.join(build_dir, "work", "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    env = dict(os.environ, TMPDIR=workdir)  # compiler temporaries stay in the checkout
    command = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
               "--trace", str(trace), "--workdir", workdir]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("%s exited %d without a result" % (workload, proc.returncode))
    result["exit_code"] = proc.returncode
    return result


def complete(result, declared, workload):
    """Checks the run's metrics against the catalog and fills the layers a
    workload never exercises with 0, naming them and why."""
    metrics = {}
    for name, entry in result["metrics"].items():
        if name not in declared:
            fail("%s reported undeclared metric %s" % (workload, name))
        if entry["unit"] != declared[name]["unit"]:
            fail("%s reported %s in %s, declared %s"
                 % (workload, name, entry["unit"], declared[name]["unit"]))
        metrics[name] = entry
    notes = []
    for name, spec in declared.items():
        if name in metrics:
            continue
        if "bound" in spec:
            fail("%s did not report end-to-end metric %s" % (workload, name))
        reason = result["unmeasured"].get(name)
        metrics[name] = {"value": 0.0, "unit": spec["unit"], "samples": 0}
        notes.append((name, reason or "not exercised by this workload"))
    return metrics, notes


def print_table(workload, result, metrics, notes, declared, end_to_end):
    attempted, failed = result["attempted"], result["failed"]
    print("== %s: %d attempted, %d failed, output checks %s"
          % (workload, attempted, failed, "passed" if result["correct"] else "FAILED"))
    print("  %-34s %20s %-8s %9s %s" % ("metric", "value", "unit", "samples", "better"))
    skipped = dict(notes)
    for name, spec in declared.items():
        if name not in skipped:
            entry = metrics[name]
            print("  %-34s %20.6g %-8s %9d %s" % (name, entry["value"], entry["unit"],
                                                 entry["samples"], spec.get("better", "")))
    if end_to_end:  # error_rate rides in attempted/failed: a metric that reads 0 takes no bound
        print("  %-34s %20.6g %-8s %9d %s" % ("error_rate", failed / max(attempted, 1), "ratio",
                                             attempted, "lower"))
    for name, reason in notes:
        print("  %-34s %20s  %s" % (name, "-", reason))


def main():
    catalog = load_catalog()
    workloads = [w["name"] for w in catalog["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=workloads + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=catalog["run_seconds"])
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in catalog[key]}
    build_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    binary = build(build_dir)

    chosen = workloads if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    exit_code = 0
    for workload in chosen:
        result = run_workload(binary, build_dir, workload, args.seed, args.seconds, args.trace)
        metrics, notes = complete(result, declared, workload)
        print_table(workload, result, metrics, notes, declared, not args.trace)
        ok = result["correct"] and result["failed"] == 0 and result["exit_code"] == 0
        exit_code = exit_code or (0 if ok else 1)
        combined["correct"] = combined["correct"] and ok
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(chosen) == 1 else workload + "/"
        for name, entry in metrics.items():
            combined["metrics"][prefix + name] = {"value": entry["value"], "unit": entry["unit"]}
    print(json.dumps(combined))
    sys.exit(exit_code)


if __name__ == "__main__":
    main()
