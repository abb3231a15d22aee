#!/usr/bin/env python3
"""Diff two bench JSON runs and flag perf regressions.

Usage: perf_trajectory.py <previous.json> <current.json> [--threshold 0.10]

Compares the dispensation sweep configs (matched on threads + mode: QPS down
or p50/p99 up is a regression), the wavefront sweep configs (matched on
threads + wavefront: steps/sec down is a regression), the strong-scaling
rows (matched on threads: a lower 1-thread / N-thread wall-clock ratio is a
regression), the out-of-core
cache sweep (matched on cache_blocks: QPS/steps-per-sec down or
peak-RSS up is a regression), the event-loop serving sweep (matched on
connections: QPS down or p50/p99 up is a regression), and the deadline
overload sweep (matched on deadline_us: goodput down is a regression)
between the previous CI run's artifact and the current run. Sections absent from a document are
skipped, so the same script diffs BENCH_scheduler.json, BENCH_outofcore.json,
and BENCH_net.json alike. Regressions beyond the threshold are
emitted as GitHub Actions ::warning:: annotations — the job is annotated,
never failed, because wall-clock numbers on shared CI runners are noisy and
a trajectory is advisory. Always exits 0 unless the inputs are unreadable.

Both files should carry the meta stamp (git SHA, date, hardware concurrency
— bench/bench_util.h) so a flagged swing is attributable; files from before
the stamp existed still diff fine.
"""

import argparse
import json
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def meta_line(doc, label):
    meta = doc.get("meta", {})
    return "%s: sha=%s date=%s hw=%s" % (
        label,
        meta.get("git_sha", "?"),
        meta.get("date_utc", "?"),
        meta.get("hardware_concurrency", doc.get("hardware_concurrency", "?")),
    )


def index_by(rows, keys):
    return {tuple(row.get(k) for k in keys): row for row in rows}


def diff_metric(prev_row, cur_row, metric, higher_is_better):
    """Returns (delta_fraction, regressed). delta > 0 means 'got worse'."""
    prev = prev_row.get(metric)
    cur = cur_row.get(metric)
    if not prev or cur is None:
        return None, False
    if higher_is_better:
        delta = (prev - cur) / prev
    else:
        delta = (cur - prev) / prev
    return delta, delta > 0


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("previous")
    parser.add_argument("current")
    parser.add_argument("--threshold", type=float, default=0.10)
    args = parser.parse_args()

    try:
        prev_doc = load(args.previous)
        cur_doc = load(args.current)
    except (OSError, ValueError) as err:
        print("cannot read bench JSON: %s" % err, file=sys.stderr)
        return 1

    print(meta_line(prev_doc, "previous"))
    print(meta_line(cur_doc, "current "))

    # Different machine shapes make wall-clock diffs meaningless; still
    # print the table, but say so.
    prev_hw = prev_doc.get("meta", {}).get(
        "hardware_concurrency", prev_doc.get("hardware_concurrency"))
    cur_hw = cur_doc.get("meta", {}).get(
        "hardware_concurrency", cur_doc.get("hardware_concurrency"))
    comparable = prev_hw == cur_hw
    if not comparable:
        print("note: hardware concurrency differs (%s -> %s); diffs are "
              "informational only, no warnings emitted" % (prev_hw, cur_hw))

    warnings = []

    def check(label, metric, delta, regressed):
        if delta is None:
            return
        # delta > 0 always means "got worse", whichever way the metric points.
        tag = "(worse)" if regressed else ("(better)" if delta < 0 else "")
        print("  %-28s %-13s %+7.1f%% %s" % (label, metric, delta * 100, tag))
        if comparable and regressed and delta > args.threshold:
            warnings.append("%s %s regressed %.1f%% vs previous run (threshold %d%%)"
                            % (label, metric, delta * 100, args.threshold * 100))

    sweeps = [
        ("configs", ("threads", "mode"),
         [("qps", True), ("p50_ms", False), ("p99_ms", False)]),
        ("wavefront_configs", ("threads", "wavefront"),
         [("steps_per_sec", True)]),
        # Strong scaling (bench_scheduler_scaling Phase 1): the 1-thread /
        # N-thread wall-clock ratio dropping at the same thread count means
        # the walk stopped scaling — e.g. workers contending on shared state.
        ("scaling_configs", ("threads",),
         [("speedup_vs_1_thread", True)]),
        # Out-of-core cache sweep (bench_ext_outofcore): a peak-RSS increase
        # at the same cache budget means the fixed overhead grew — exactly
        # the regression the memory-bounded tier exists to prevent.
        ("cache_configs", ("cache_blocks",),
         [("qps", True), ("steps_per_sec", True), ("peak_rss_bytes", False)]),
        # Event-loop serving connection sweep (bench_net_serving): throughput
        # down or tail latency up at the same connection count is a serving
        # regression.
        ("net_configs", ("connections",),
         [("qps", True), ("p50_us", False), ("p99_us", False)]),
        # Deadline-shedding overload sweep (bench_net_serving): goodput —
        # on-time completions per second at 2x capacity — down at the same
        # deadline budget means the shedding stages stopped earning their
        # keep.
        ("deadline_configs", ("deadline_us",),
         [("goodput_qps", True)]),
        # Compiled-kernel sweep (bench_fig12_kernel_ablation): steps/sec down
        # at the same workload + mode means either the interpreted baseline
        # or the JIT-specialized kernel got slower.
        ("jit_configs", ("workload", "mode"),
         [("steps_per_sec", True)]),
    ]
    for section, keys, metrics in sweeps:
        prev_rows = index_by(prev_doc.get(section, []), keys)
        cur_rows = index_by(cur_doc.get(section, []), keys)
        if not prev_rows or not cur_rows:
            print("section %s missing on one side; skipped" % section)
            continue
        print("%s (matched on %s):" % (section, "+".join(keys)))
        for key, cur_row in sorted(cur_rows.items(), key=str):
            prev_row = prev_rows.get(key)
            if prev_row is None:
                continue
            label = " ".join("%s=%s" % (k, v) for k, v in zip(keys, key))
            for metric, higher_is_better in metrics:
                delta, regressed = diff_metric(prev_row, cur_row, metric, higher_is_better)
                check(label, metric, delta, regressed)

    for warning in warnings:
        # GitHub Actions annotation: shows on the job summary and the PR
        # checks tab without failing the build.
        print("::warning title=perf trajectory::%s" % warning)
    if not warnings:
        print("no regressions beyond %.0f%%" % (args.threshold * 100))
    return 0


if __name__ == "__main__":
    sys.exit(main())
