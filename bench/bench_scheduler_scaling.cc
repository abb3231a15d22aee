// WalkScheduler strong scaling + query-dispensation contention sweep.
//
// Phase 1: the same query batch at 1, 2, 4, ... worker threads up to the
// host's hardware concurrency. Because walks are seed-stable (scheduler.h),
// sim_ms and the paths themselves are identical in every row — only
// wall-clock moves, which is exactly the point: the simulation's numbers are
// machine-independent while the system itself runs as fast as the host
// allows. The 1-thread / all-core wall-clock ratio is the scaling gate: a
// full (non --quick) run on >= 4 cores exits non-zero below 2x. It lives
// here rather than in ctest because a wall-clock ratio only means something
// with nothing else running beside it.
//
// Phase 2: dispensation contention. First a pure QueryQueue drain (no
// walking) showing what the global ticket counter costs by itself: the
// paper's per-query ticketing against the adaptive chunks with stealing
// every scheduler run uses. Then the repeated-small-batch walk workload
// across thread counts, with QPS and p50/p99 batch latency per config. The
// per-config numbers land in BENCH_scheduler.json (override with --json
// <path>) so CI keeps a perf trajectory across PRs. Dispatch counts are
// reported via QueryQueue::dispensed() — the clamped view — so they never
// exceed the query total even though racing drainers overshoot the raw
// ticket counter.
//
// Phase 3: wavefront stepping. The batched inner loop (scheduler.cc) at
// widths {1, 4, 16} across thread counts, reported as steps/sec with W=1
// (walk-at-a-time) as the baseline; per-config numbers join the JSON as
// wavefront_configs, the Phase 1 rows as scaling_configs, and the whole
// document is stamped with git SHA, date, and hardware concurrency
// (bench_util.h) so trajectory diffs are attributable.
//
// --quick shrinks every phase for CI smoke. Exit code is non-zero if paths
// diverge anywhere (wavefront widths and thread counts must never change a
// walk), if instrumentation costs more than the overhead gate allows, or if
// a full run misses the scaling gate.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <span>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_util.h"
#include "src/graph/generators.h"
#include "src/sampling/alias.h"
#include "src/sampling/inverse_transform.h"
#include "src/obs/metrics.h"
#include "src/walker/scheduler.h"
#include "src/walks/deepwalk.h"
#include "src/walks/node2vec.h"

namespace flexi {
namespace {

const char* ModeName(DispenseMode mode) {
  return mode == DispenseMode::kPerQuery ? "per-query" : "chunked+steal";
}

// Thread counts swept: powers of two up to hardware concurrency, always
// including at least 1 and 2 so single-core hosts still exercise the
// contended paths (timeslicing keeps the atomics contended even there).
std::vector<unsigned> SweepThreads() {
  unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::vector<unsigned> threads;
  for (unsigned t = 1; t <= cores; t *= 2) {
    threads.push_back(t);
  }
  if (threads.back() != cores) {
    threads.push_back(cores);
  }
  if (threads.size() < 2) {
    threads.push_back(2);
  }
  return threads;
}

struct SweepRow {
  unsigned threads = 0;
  double total_ms = 0.0;
  double qps = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

}  // namespace
}  // namespace flexi

int main(int argc, char** argv) {
  using namespace flexi;
  bool quick = false;
  std::string json_path = "BENCH_scheduler.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--json <path>]\n", argv[0]);
      return 1;
    }
  }
  bool paths_ok = true;

  PrintHeader("WalkScheduler strong scaling", "§5.3 dynamic query scheduling");

  const DatasetSpec& spec = DatasetByName("YT");
  Graph graph = LoadDataset(spec, WeightDistribution::kUniform);
  Node2VecWalk walk(2.0, 0.5, quick ? 20u : 80u);
  auto starts = BenchStarts(graph, quick ? 2048 : 8192);

  unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  FlexiWalkerOptions warm_opts;
  warm_opts.edge_cost_ratio = 4.0;
  warm_opts.host_threads = 1;
  // Warm-up: touch the graph and grow the allocator before timing anything.
  FlexiWalkerEngine(warm_opts).Run(graph, walk, starts, kBenchSeed);

  std::vector<unsigned> sweep_threads = SweepThreads();
  struct ScalingRow {
    unsigned threads = 0;
    double wall_ms = 0.0;
    double speedup = 1.0;  // vs 1 thread
  };
  std::vector<ScalingRow> scaling_rows;
  Table table({"threads", "wall_ms", "sim_ms", "speedup", "paths identical"});
  std::vector<NodeId> reference_paths;
  for (unsigned threads : sweep_threads) {
    FlexiWalkerOptions options;
    options.edge_cost_ratio = 4.0;
    options.host_threads = threads;
    WalkResult result = FlexiWalkerEngine(options).Run(graph, walk, starts, kBenchSeed);
    if (threads == 1) {
      reference_paths = result.paths;
    }
    bool identical = result.paths == reference_paths;
    paths_ok = paths_ok && identical;
    ScalingRow row;
    row.threads = threads;
    row.wall_ms = result.wall_ms;
    row.speedup = scaling_rows.empty() ? 1.0 : scaling_rows.front().wall_ms / result.wall_ms;
    scaling_rows.push_back(row);
    table.AddRow({std::to_string(threads), Table::Num(result.wall_ms),
                  Table::Num(result.sim_ms), Table::Num(row.speedup) + "x",
                  identical ? "yes" : "NO"});
  }
  table.Print();
  // SweepThreads() always ends at the all-core count (or 2 on one core).
  double all_core_speedup = scaling_rows.back().speedup;
  bool scaling_gated = !quick && cores >= 4;
  bool scaling_ok = !scaling_gated || all_core_speedup >= 2.0;
  std::printf(
      "\nwall-clock drops with threads while sim_ms and the walk paths stay fixed\n"
      "(seed-stable parallelism; see scheduler.h and scheduler_test.cc).\n"
      "1-thread / %u-thread wall-clock ratio: %.2fx (%s)\n",
      scaling_rows.back().threads, all_core_speedup,
      scaling_gated ? (scaling_ok ? "meets the >= 2x gate" : "BELOW the >= 2x gate")
                    : "not gated: --quick or fewer than 4 cores");
  if (!scaling_ok) {
    std::fprintf(stderr,
                 "SCALING FAILURE: %u threads ran only %.2fx faster than 1 thread; full runs "
                 "on >= 4 cores require >= 2x\n",
                 scaling_rows.back().threads, all_core_speedup);
  }

  // --- Phase 2a: pure dispensation drain — the ticket counter in isolation.
  // T threads hammer one QueryQueue with no walk work at all; per-query
  // ticketing is one contended global RMW per ticket, adaptive chunks touch
  // the global counter once per chunk. Dispatch counts use dispensed(), the
  // clamped view, so the table never reports more tickets than exist.
  PrintHeader("Query dispensation drain", "ticket-counter contention, no walking");
  const size_t kDrainIds = quick ? 1'000'000 : 4'000'000;
  std::vector<NodeId> drain_starts(kDrainIds, 0);
  Table drain_table({"threads", "mode", "drain ms", "Mticket/s", "dispensed", "speedup"});
  for (unsigned threads : sweep_threads) {
    double per_query_ms = 0.0;
    for (DispenseMode mode : {DispenseMode::kPerQuery, DispenseMode::kChunkedSteal}) {
      QueryQueue queue(drain_starts, threads, mode);
      auto t0 = std::chrono::steady_clock::now();
      std::vector<std::thread> drainers;
      for (unsigned w = 0; w < threads; ++w) {
        drainers.emplace_back([&queue, w] {
          while (queue.Next(w).has_value()) {
          }
        });
      }
      for (auto& drainer : drainers) {
        drainer.join();
      }
      double ms = std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
                      .count();
      if (mode == DispenseMode::kPerQuery) {
        per_query_ms = ms;
      }
      drain_table.AddRow({std::to_string(threads), ModeName(mode), Table::Num(ms),
                          Table::Num(static_cast<double>(kDrainIds) / ms / 1000.0),
                          std::to_string(queue.dispensed()),
                          Table::Num(per_query_ms / ms) + "x"});
    }
  }
  drain_table.Print();

  // --- Phase 2b: the repeated-small-batch walk workload across thread
  // counts. Cheap O(1) cached-alias steps (the served DeepWalk fast path)
  // keep per-query work small enough that dispensation cost is visible; QPS
  // and batch-latency percentiles per config feed BENCH_scheduler.json.
  PrintHeader("Dispensation contention sweep", "repeated small batches x threads");
  Graph sweep_graph = GenerateErdosRenyi(4096, 8.0, 7);
  DeepWalk sweep_walk(4);
  const size_t kSweepQueries = quick ? 2048 : 4096;
  const int kSweepBatches = quick ? 30 : 120;
  std::vector<NodeId> sweep_starts(kSweepQueries);
  for (size_t i = 0; i < kSweepQueries; ++i) {
    sweep_starts[i] = static_cast<NodeId>((i * 37) % sweep_graph.num_nodes());
  }
  std::vector<AliasTable> tables = BuildNodeAliasTables(sweep_graph, 0);
  StepKernel cached_step = [&tables](const WalkContext& ctx, const WalkLogic&, const QueryState& q,
                                     KernelRng& rng) { return CachedAliasStep(ctx, tables, q, rng); };

  std::vector<SweepRow> rows;
  std::vector<NodeId> sweep_reference;
  for (unsigned threads : sweep_threads) {
    SchedulerOptions options;
    options.num_threads = threads;
    WalkScheduler scheduler(options);
    scheduler.Run(sweep_graph, sweep_walk, sweep_starts, kBenchSeed, cached_step);  // warm-up
    std::vector<double> batch_ms;
    batch_ms.reserve(kSweepBatches);
    double total_ms = 0.0;
    for (int b = 0; b < kSweepBatches; ++b) {
      WalkResult result =
          scheduler.Run(sweep_graph, sweep_walk, sweep_starts, kBenchSeed, cached_step);
      batch_ms.push_back(result.wall_ms);
      total_ms += result.wall_ms;
      if (b == 0) {
        if (sweep_reference.empty()) {
          sweep_reference = std::move(result.paths);
        } else if (result.paths != sweep_reference) {
          paths_ok = false;
          std::printf("PATH DIVERGENCE: threads=%u\n", threads);
        }
      }
    }
    SweepRow row;
    row.threads = threads;
    row.total_ms = total_ms;
    row.qps = static_cast<double>(kSweepQueries) * kSweepBatches / (total_ms / 1000.0);
    std::sort(batch_ms.begin(), batch_ms.end());
    row.p50_ms = obs::PercentileOfSorted(batch_ms, 0.50);
    row.p99_ms = obs::PercentileOfSorted(batch_ms, 0.99);
    rows.push_back(row);
  }

  const char* sweep_mode = ModeName(DispenseMode::kChunkedSteal);
  Table sweep_table({"threads", "mode", "total ms", "QPS", "p50 ms", "p99 ms"});
  for (const SweepRow& row : rows) {
    sweep_table.AddRow({std::to_string(row.threads), sweep_mode, Table::Num(row.total_ms),
                        Table::Num(row.qps), Table::Num(row.p50_ms), Table::Num(row.p99_ms)});
  }
  sweep_table.Print();
  std::printf(
      "paths identical across thread counts: %s\n"
      "(chunked claiming hits the global counter O(total/K) times; stealing\n"
      "rebalances drained cursors — query_queue.h)\n",
      paths_ok ? "yes" : "NO");

  // --- Phase 3: wavefront stepping sweep — the batched inner loop at
  // widths {1, 4, 16} across thread counts on the Phase-1 walk workload.
  // Steps/sec is wall-clock over actually-sampled steps; W=1 (walk-at-a-
  // time, the pre-wavefront loop shape) is the per-thread-count baseline.
  // Paths must stay bit-identical across every (width, threads) cell.
  PrintHeader("Wavefront stepping sweep", "batched multi-walk execution + prefetch staging");
  StepKernel wave_step = [](const WalkContext& ctx, const WalkLogic& l, const QueryState& q,
                            KernelRng& rng) { return InverseTransformStep(ctx, l, q, rng); };
  struct WaveRow {
    unsigned threads = 0;
    uint32_t wavefront = 0;
    double wall_ms = 0.0;
    double steps_per_sec = 0.0;
    double speedup = 1.0;  // vs wavefront=1 at the same thread count
  };
  std::vector<WaveRow> wave_rows;
  std::vector<NodeId> wave_reference;
  Table wave_table({"threads", "wavefront", "wall_ms", "Msteps/s", "vs W=1", "paths identical"});
  for (unsigned threads : sweep_threads) {
    double w1_ms = 0.0;
    for (uint32_t wavefront : {1u, 4u, 16u}) {
      SchedulerOptions options;
      options.num_threads = threads;
      options.wavefront = wavefront;
      WalkScheduler scheduler(options);
      scheduler.Run(graph, walk, starts, kBenchSeed, wave_step);  // warm-up
      WalkResult result = scheduler.Run(graph, walk, starts, kBenchSeed, wave_step);
      uint64_t steps = CountSampledSteps(result);
      bool identical = true;
      if (wave_reference.empty()) {
        wave_reference = std::move(result.paths);
      } else {
        identical = result.paths == wave_reference;
        paths_ok = paths_ok && identical;
      }
      if (wavefront == 1) {
        w1_ms = result.wall_ms;
      }
      WaveRow row;
      row.threads = threads;
      row.wavefront = wavefront;
      row.wall_ms = result.wall_ms;
      row.steps_per_sec = static_cast<double>(steps) / (result.wall_ms / 1000.0);
      row.speedup = w1_ms / result.wall_ms;
      wave_rows.push_back(row);
      wave_table.AddRow({std::to_string(threads), std::to_string(wavefront),
                         Table::Num(row.wall_ms), Table::Num(row.steps_per_sec / 1e6),
                         Table::Num(row.speedup) + "x", identical ? "yes" : "NO"});
    }
  }
  wave_table.Print();
  std::printf(
      "paths identical across wavefront widths and thread counts: %s\n"
      "(W in-flight walks per worker advance one step per pass; prefetch\n"
      "staging hides CSR row misses behind the other slots' sampling —\n"
      "scheduler.cc. Expect parity at 1 thread on 1 core; the win needs\n"
      "real memory-level parallelism.)\n",
      paths_ok ? "yes" : "NO");

  // --- Instrumentation overhead gate: the metrics layer must be free. ---
  // The scheduler's telemetry is worker-local counters folded into the
  // registry once per batch (scheduler.cc LocalCounters), so enabling it
  // should not move steps/sec beyond run-to-run noise. Best-of-N on each
  // side to damp scheduler jitter; the 2x floor is deliberately generous —
  // the gate exists to catch a per-step atomic sneaking onto the hot path
  // (that costs an order of magnitude, not percents), not to flake CI.
  PrintHeader("Instrumentation overhead", "metrics enabled vs disabled, src/obs/");
  const int kOverheadReps = quick ? 3 : 5;
  auto best_steps_per_sec = [&](bool metrics_on) {
    obs::SetMetricsEnabled(metrics_on);
    double best = 0.0;
    for (int rep = 0; rep < kOverheadReps; ++rep) {
      SchedulerOptions options;
      options.num_threads = cores;
      WalkScheduler scheduler(options);
      WalkResult result = scheduler.Run(graph, walk, starts, kBenchSeed, wave_step);
      uint64_t steps = CountSampledSteps(result);
      best = std::max(best, static_cast<double>(steps) / (result.wall_ms / 1000.0));
    }
    return best;
  };
  best_steps_per_sec(true);  // warm-up: allocator + registry series creation
  double off_steps = best_steps_per_sec(false);
  double on_steps = best_steps_per_sec(true);
  obs::SetMetricsEnabled(true);  // leave the process-wide default restored
  bool overhead_ok = on_steps >= 0.5 * off_steps;
  Table overhead_table({"metrics", "best Msteps/s", "vs disabled"});
  overhead_table.AddRow({"disabled", Table::Num(off_steps / 1e6), "1.00x"});
  overhead_table.AddRow({"enabled", Table::Num(on_steps / 1e6),
                         Table::Num(on_steps / off_steps) + "x"});
  overhead_table.Print();
  std::printf("instrumentation overhead within noise (enabled >= 0.5x disabled): %s\n",
              overhead_ok ? "yes" : "NO");
  if (!overhead_ok) {
    std::fprintf(stderr,
                 "OVERHEAD FAILURE: steps/sec with metrics enabled (%.3g) fell below "
                 "0.5x the disabled rate (%.3g) — something hot-path is counting "
                 "per step\n",
                 on_steps, off_steps);
  }

  // --- BENCH_scheduler.json: the sweeps' per-config numbers for CI trend
  // tracking. Schema: {meta: {bench, quick, git_sha, date_utc,
  // hardware_concurrency}, bench, quick, hardware_concurrency, workload,
  // configs:[{threads, mode, total_ms, qps, p50_ms, p99_ms}],
  // wavefront_configs:[{threads, wavefront, wall_ms, steps_per_sec,
  // speedup_vs_w1}], scaling_configs:[{threads, wall_ms,
  // speedup_vs_1_thread}]}. Every configs row's mode is "chunked+steal", so
  // trajectory diffs keep matching earlier files' rows of that mode. The
  // pre-meta top-level fields are kept so older trajectory tooling still
  // parses new files.
  if (std::FILE* json = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(json, "{\n");
    WriteBenchMetaJson(json, "scheduler_scaling", quick);
    std::fprintf(json,
                 "  \"bench\": \"scheduler_scaling\",\n  \"quick\": %s,\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"workload\": {\"queries_per_batch\": %zu, \"walk_length\": 4, "
                 "\"batches\": %d},\n  \"configs\": [\n",
                 quick ? "true" : "false", cores, kSweepQueries, kSweepBatches);
    for (size_t i = 0; i < rows.size(); ++i) {
      const SweepRow& row = rows[i];
      std::fprintf(json,
                   "    {\"threads\": %u, \"mode\": \"%s\", \"total_ms\": %.3f, "
                   "\"qps\": %.1f, \"p50_ms\": %.4f, \"p99_ms\": %.4f}%s\n",
                   row.threads, sweep_mode, row.total_ms, row.qps, row.p50_ms, row.p99_ms,
                   i + 1 == rows.size() ? "" : ",");
    }
    std::fprintf(json, "  ],\n  \"wavefront_configs\": [\n");
    for (size_t i = 0; i < wave_rows.size(); ++i) {
      const WaveRow& row = wave_rows[i];
      std::fprintf(json,
                   "    {\"threads\": %u, \"wavefront\": %u, \"wall_ms\": %.3f, "
                   "\"steps_per_sec\": %.1f, \"speedup_vs_w1\": %.3f}%s\n",
                   row.threads, row.wavefront, row.wall_ms, row.steps_per_sec, row.speedup,
                   i + 1 == wave_rows.size() ? "" : ",");
    }
    std::fprintf(json, "  ],\n  \"scaling_configs\": [\n");
    for (size_t i = 0; i < scaling_rows.size(); ++i) {
      const ScalingRow& row = scaling_rows[i];
      std::fprintf(json,
                   "    {\"threads\": %u, \"wall_ms\": %.3f, \"speedup_vs_1_thread\": %.3f}%s\n",
                   row.threads, row.wall_ms, row.speedup,
                   i + 1 == scaling_rows.size() ? "" : ",");
    }
    std::fprintf(json,
                 "  ],\n  \"instrumentation_overhead\": {\"steps_per_sec_disabled\": %.1f, "
                 "\"steps_per_sec_enabled\": %.1f}\n}\n",
                 off_steps, on_steps);
    std::fclose(json);
    std::printf("per-config QPS/p50/p99 + wavefront steps/sec written to %s\n",
                json_path.c_str());
  } else {
    std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
  }

  // Non-zero on divergence, instrumentation overhead, or (full runs only)
  // missed scaling, so the gates are enforced instead of just printed.
  return (paths_ok && overhead_ok && scaling_ok) ? 0 : 1;
}
