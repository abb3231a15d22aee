// ppr-outofcore: RunFlexiWalkerOutOfCore — PPR (restart 0.15, length 80)
// over the SK stand-in with uniform weights, split into 64 KiB blocks with
// 16 resident (about 1/8 of the edge payload), EdgeCost ratio pinned at 4.0
// as the CLI's out-of-core path pins it, every node as a start, two worker
// threads. The same walker and first-order kernels as the in-memory engine,
// used differently: walks park at block boundaries and the cache thrashes,
// so a change that speeds up in-memory stepping but costs parking or block
// switching shows here, and so does one that grows the resident footprint.
//
// Two threads: neither the pool default of four nor one. Each call activates
// ~79k blocks of a few dozen steps each, and every activation is a
// fork-join on the pool: at four threads, hypervisor CPU steal on the 4-vCPU
// VM this was tuned on stalled those joins and made calls 3-4x slower for
// minutes at a time. One thread avoids the joins but walks on a single
// vCPU, and that VM's memory latency per vCPU wandered by up to 2x over tens
// of seconds (a pointer chase over 1 MiB ran at 53-100 M loads/s, while an
// ALU loop held within 5%): one-thread run medians spread 0.27 of their
// median over five seeds, two-thread medians 0.08 at about the same call
// time.
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <optional>
#include <stdexcept>

#include "perfbench/ledger.h"
#include "src/graph/block_store.h"
#include "src/graph/datasets.h"
#include "src/walker/out_of_core.h"
#include "src/walks/ppr.h"

namespace perfbench {
namespace {

using flexi::BlockStore;
using flexi::FlexiWalkerEngine;
using flexi::FlexiWalkerOptions;
using flexi::Graph;
using flexi::NodeId;
using flexi::OutOfCoreStats;
using flexi::WalkResult;

constexpr size_t kBlockBytes = size_t{64} << 10;
constexpr uint32_t kCacheBlocks = 16;
constexpr unsigned kWalkThreads = 2;
constexpr int kSetupReps = 5;
constexpr int kLayerReps = 3;
constexpr int kReadPasses = 5;
constexpr double kMiB = 1024.0 * 1024.0;

Graph LoadSk() {
  return flexi::LoadDataset(flexi::DatasetByName("SK"), flexi::WeightDistribution::kUniform);
}

struct ChildTimes {
  double generate_ms = 0.0;
  double partition_ms = 0.0;
};

// Generates and partitions the graph in a forked child, so this process
// never holds the full graph before its peak RSS is sampled. The child's
// LoadDataset and PartitionToBlockFile times come back through a pipe. Runs
// before this process starts any thread.
ChildTimes PartitionInChild(const std::string& path) {
  int fds[2];
  if (pipe(fds) != 0) {
    throw std::runtime_error("pipe failed");
  }
  pid_t pid = fork();
  if (pid < 0) {
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 1;
    try {
      ChildTimes times;
      Clock::time_point start = Clock::now();
      Graph graph = LoadSk();
      times.generate_ms = SecondsSince(start) * 1e3;
      start = Clock::now();
      size_t blocks = flexi::PartitionToBlockFile(graph, path, kBlockBytes);
      times.partition_ms = SecondsSince(start) * 1e3;
      if (blocks > 0 && write(fds[1], &times, sizeof(times)) == sizeof(times)) {
        code = 0;
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "partition child: %s\n", e.what());
    }
    _exit(code);
  }
  close(fds[1]);
  ChildTimes times;
  ssize_t got = 0;
  do {
    got = read(fds[0], &times, sizeof(times));
  } while (got < 0 && errno == EINTR);
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != static_cast<ssize_t>(sizeof(times)) || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    throw std::runtime_error("partitioning child failed");
  }
  return times;
}

struct Input {
  std::optional<BlockStore> store;
  std::vector<NodeId> starts;
  std::vector<ChildTimes> child;
};

Input SetUp(const Args& args, SpanLog& spans, std::vector<double>& setup_s) {
  Input input;
  std::string path = args.workdir + "/sk.blk";
  for (int rep = 0; rep < kSetupReps; ++rep) {
    input.store.reset();
    Clock::time_point start = Clock::now();
    spans.Time("setup", [&] {
      input.child.push_back(spans.Time("PartitionInChild", [&] { return PartitionInChild(path); }));
      input.store.emplace(spans.Time("BlockStore::Open", [&] { return BlockStore::Open(path); }));
      input.starts = ShuffledStarts(input.store->num_nodes(), 1, args.seed);
    });
    setup_s.push_back(SecondsSince(start));
  }
  return input;
}

struct OocCall {
  WalkResult result;
  OutOfCoreStats stats;
  double wall_ms = 0.0;
  uint64_t loads = 0;  // registry deltas: the streamed preprocess pass included
  uint64_t hits = 0;
  uint64_t bytes_read = 0;
};

OocCall RunOoc(const BlockStore& store, const flexi::WalkLogic& walk,
               const FlexiWalkerOptions& options, uint32_t cache_blocks,
               std::span<const NodeId> starts, uint64_t seed, SpanLog& spans) {
  OocCall call;
  CounterDelta cache({"flexi_graph_cache_loads_total", "flexi_graph_cache_hits_total",
                      "flexi_graph_cache_bytes_read_total"});
  Clock::time_point start = Clock::now();
  call.result = spans.Time("RunFlexiWalkerOutOfCore", [&] {
    return flexi::RunFlexiWalkerOutOfCore(store, walk, options, cache_blocks, starts, seed,
                                          &call.stats);
  });
  call.wall_ms = SecondsSince(start) * 1e3;
  std::map<std::string, uint64_t> deltas = cache.Deltas();
  call.loads = deltas.at("flexi_graph_cache_loads_total");
  call.hits = deltas.at("flexi_graph_cache_hits_total");
  call.bytes_read = deltas.at("flexi_graph_cache_bytes_read_total");
  return call;
}

// The output check: out-of-core paths equal FlexiWalkerEngine::Run's over
// the unpartitioned graph at the same pinned ratio, seed and starts.
void CheckAgainstInMemory(const WalkResult& in_memory, const WalkResult& out_of_core,
                          Report& report) {
  uint64_t differing = CountDifferingRows(out_of_core, in_memory, out_of_core.num_queries);
  std::printf("  check: %llu of %zu rows differ from the in-memory engine\n",
              static_cast<unsigned long long>(differing), out_of_core.num_queries);
  report.Failed(differing);
}

void TraceLayers(const Args& args, const Input& input, const flexi::WalkLogic& walk,
                 const FlexiWalkerOptions& pinned, SpanLog& spans, Report& report) {
  const BlockStore& store = *input.store;
  std::vector<double> generate_ms;
  std::vector<double> partition_ms;
  for (const ChildTimes& times : input.child) {
    generate_ms.push_back(times.generate_ms);
    partition_ms.push_back(times.partition_ms);
  }
  report.Add("graph.generate_ms", Median(generate_ms), "ms", generate_ms.size());
  report.Add("graph.partition_ms", Median(partition_ms), "ms", partition_ms.size());

  flexi::GeneratedHelpers helpers = TimeGenerate(walk, spans, report);
  report.Add("runtime.edge_cost_ratio", *pinned.edge_cost_ratio, "ratio");
  for (int rep = 0; rep < kLayerReps; ++rep) {
    flexi::DeviceContext device(pinned.device);
    flexi::GraphCache cache(&store, kCacheBlocks);
    spans.Time("PreprocessOutOfCore",
               [&] { return flexi::PreprocessOutOfCore(store, cache, helpers.plan(), device); });
  }
  report.Add("runtime.preprocess_ms", spans.MedianSelfMs("PreprocessOutOfCore"), "ms", kLayerReps);
  CompileStepKernel(walk, /*static_tables=*/false, args.workdir, report);

  // One ReadBlock pass over every block, from the page cache.
  flexi::BlockData data;
  for (int pass = 0; pass < kReadPasses; ++pass) {
    spans.Time("ReadBlock pass", [&] {
      for (size_t b = 0; b < store.num_blocks(); ++b) {
        store.ReadBlock(b, data);
      }
    });
  }
  double payload_mib = static_cast<double>(store.TotalPayloadBytes()) / kMiB;
  double read_mib_per_s = payload_mib / (spans.MedianSelfMs("ReadBlock pass") / 1e3);
  report.Add("graph.read_mb_per_s", read_mib_per_s, "MiB/s", kReadPasses);

  // The out-of-core split: differential runs over the same starts and seed
  // — in memory, every block resident, and the 16-block budget.
  Graph graph = LoadSk();
  std::vector<double> in_memory_ms;
  std::vector<double> resident_ms;
  std::vector<double> budget_ms;
  std::vector<double> ppr_ns;
  WalkResult in_memory;
  OocCall resident;
  OocCall budget;
  for (int rep = 0; rep < kLayerReps; ++rep) {
    Clock::time_point start = Clock::now();
    in_memory = spans.Time("FlexiWalkerEngine::Run", [&] {
      return FlexiWalkerEngine(pinned).Run(graph, walk, input.starts, args.seed);
    });
    in_memory_ms.push_back(SecondsSince(start) * 1e3);
    ppr_ns.push_back(in_memory.wall_ms * 1e6 / static_cast<double>(SampledSteps(in_memory)));
    resident = RunOoc(store, walk, pinned, static_cast<uint32_t>(store.num_blocks()),
                      input.starts, args.seed, spans);
    resident_ms.push_back(resident.wall_ms);
    budget = RunOoc(store, walk, pinned, kCacheBlocks, input.starts, args.seed, spans);
    budget_ms.push_back(budget.wall_ms);
  }
  uint64_t steps = SampledSteps(budget.result);
  double read_mib = static_cast<double>(budget.bytes_read) / kMiB;
  // The all-resident run reads every block once too; only the budget's
  // re-reads separate the two.
  double extra_read_ms = (static_cast<double>(budget.bytes_read) -
                          static_cast<double>(resident.bytes_read)) /
                         kMiB / read_mib_per_s * 1e3;
  double park_ms = Median(resident_ms) - Median(in_memory_ms);
  double switch_ms = Median(budget_ms) - Median(resident_ms) - extra_read_ms;
  std::printf("  split (median of %d): in-memory %.1f ms | all %zu blocks resident %.1f ms | "
              "%u-block budget %.1f ms = in-memory + park %.1f + switch %.1f + reads beyond "
              "one pass %.1f (all reads %.1f ms)\n",
              kLayerReps, Median(in_memory_ms), store.num_blocks(), Median(resident_ms),
              kCacheBlocks, Median(budget_ms), park_ms, switch_ms, extra_read_ms,
              read_mib / read_mib_per_s * 1e3);
  report.Add("sampling.ppr_ns_per_step", Median(ppr_ns), "ns", kLayerReps);
  report.Add("out_of_core.read_ms", read_mib / read_mib_per_s * 1e3, "ms");
  report.Add("out_of_core.park_ms", park_ms, "ms", kLayerReps);
  report.Add("out_of_core.switch_ms", switch_ms, "ms", kLayerReps);
  report.Add("out_of_core.parks_per_step",
             static_cast<double>(budget.stats.parks) / static_cast<double>(steps), "1/step", steps);
  report.Add("out_of_core.activations", static_cast<double>(budget.stats.block_activations),
             "count");
  report.Add("graph_cache.loads", static_cast<double>(budget.loads), "count");
  report.Add("graph_cache.hit_ratio",
             static_cast<double>(budget.hits) / static_cast<double>(budget.hits + budget.loads),
             "ratio", budget.hits + budget.loads);
  report.Add("graph_cache.read_mb", read_mib, "MiB");
  report.Add("runtime.rjs_share", budget.result.selection.RjsRatio(), "ratio",
             budget.result.selection.chose_rjs + budget.result.selection.chose_rvs);
  AddSimt(report, budget.result.cost, budget.result.sim_ms, steps);

  CounterDelta counters(WalkerCounterNames());
  Clock::time_point phase = Clock::now();
  double ratio = TraceOverheadRatio(args.seconds, [&] {
    return RunOoc(store, walk, pinned, kCacheBlocks, input.starts, args.seed, spans).wall_ms / 1e3;
  });
  AddWalkerCounters(report, counters.Deltas(), SecondsSince(phase));
  report.Add("obs.trace_overhead_ratio", ratio, "ratio");

  report.Attempted(budget.result.num_queries);
  CheckAgainstInMemory(in_memory, budget.result, report);
}

}  // namespace

void RunPprOutOfCore(const Args& args, Report& report) {
  SpanLog spans;
  std::vector<double> setup_s;
  Input input = SetUp(args, spans, setup_s);
  const BlockStore& store = *input.store;
  flexi::PersonalizedPageRankWalk walk(0.15, 80);
  FlexiWalkerOptions pinned;
  pinned.edge_cost_ratio = 4.0;
  pinned.host_threads = kWalkThreads;
  std::printf("ppr-outofcore: SK stand-in %u nodes, %llu edges, uniform weights; %zu blocks of "
              "<= %zu KiB (%.1f MiB payload), %u resident; %zu starts, PPR(restart 0.15) "
              "length 80, %u walk threads\n",
              store.num_nodes(), static_cast<unsigned long long>(store.num_edges()),
              store.num_blocks(), kBlockBytes >> 10, store.TotalPayloadBytes() / kMiB,
              kCacheBlocks, input.starts.size(), kWalkThreads);
  if (args.trace) {
    TraceLayers(args, input, walk, pinned, spans, report);
    return;
  }

  WalkResult first = RepeatTimedCalls(
      args.seconds,
      [&] {
        return RunOoc(store, walk, pinned, kCacheBlocks, input.starts, args.seed, spans).result;
      },
      report);
  // Sampled before the in-memory reference maps the whole graph.
  report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  Graph graph = LoadSk();
  CheckAgainstInMemory(FlexiWalkerEngine(pinned).Run(graph, walk, input.starts, args.seed), first,
                       report);
}

}  // namespace perfbench
