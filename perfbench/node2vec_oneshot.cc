// node2vec-oneshot: FlexiWalkerEngine::Run under program defaults (cost
// model, profiled EdgeCost ratio, interpreted kernels, the pool's default
// thread count) — Node2Vec p=2, q=0.5, length 80 over the EU stand-in with
// Pareto(alpha=3) weights, every node as a start, twice per call. The
// paper's core case: a second-order dynamic walk where both kernels and
// the cost model carry the time and the net and out-of-core layers idle.
#include <cstdio>

#include "perfbench/ledger.h"
#include "src/graph/datasets.h"
#include "src/runtime/preprocess.h"
#include "src/walks/node2vec.h"

namespace perfbench {
namespace {

using flexi::FlexiWalkerEngine;
using flexi::FlexiWalkerOptions;
using flexi::Graph;
using flexi::NodeId;
using flexi::WalkResult;

constexpr int kSetupReps = 9;
constexpr int kPasses = 2;
constexpr int kPrepReps = 9;
// eRVS alone runs ~20x slower per step than the mix, so the kernel probes
// walk a subset of the starts.
constexpr size_t kProbeQueries = 2048;
// The parity reference re-walks this prefix of the starts (query ids are
// start indices, so a prefix reproduces the first rows exactly).
constexpr size_t kParityQueries = 4096;

struct Input {
  Graph graph;
  std::vector<NodeId> starts;
};

Input SetUp(const Args& args, SpanLog& spans, std::vector<double>& setup_s) {
  Input input;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    Clock::time_point start = Clock::now();
    spans.Time("setup", [&] {
      input.graph = spans.Time("LoadDataset", [] {
        return flexi::LoadDataset(flexi::DatasetByName("EU"), flexi::WeightDistribution::kPareto,
                                  3.0);
      });
      input.starts = ShuffledStarts(input.graph.num_nodes(), kPasses, args.seed);
    });
    setup_s.push_back(SecondsSince(start));
  }
  return input;
}

// Rows that are not walks on the graph: the first node must be the query's
// start, every later node an out-neighbor of its predecessor, and a dead
// end pads the rest of the row.
uint64_t CountBadRows(const Graph& graph, const WalkResult& result,
                      std::span<const NodeId> starts) {
  uint64_t bad = 0;
  for (size_t q = 0; q < result.num_queries; ++q) {
    std::span<const NodeId> path = result.Path(q);
    bool ok = path[0] == starts[q];
    bool ended = false;
    for (size_t s = 1; ok && s < path.size(); ++s) {
      if (path[s] == flexi::kInvalidNode) {
        ended = true;
      } else {
        ok = !ended && graph.HasEdge(path[s - 1], path[s]);
      }
    }
    bad += ok ? 0 : 1;
  }
  return bad;
}

// Output checks, outside every timed region: each row is a walk on the
// graph, and a prefix re-walked at another thread count and wavefront width
// reproduces the timed run's rows bit for bit.
void CheckOutputs(const Args& args, const Input& input, const flexi::WalkLogic& walk,
                  const WalkResult& result, Report& report) {
  uint64_t bad = CountBadRows(input.graph, result, input.starts);
  FlexiWalkerOptions other;
  other.host_threads = 2;
  other.wavefront = 8;
  std::span<const NodeId> prefix(input.starts.data(),
                                 std::min(kParityQueries, input.starts.size()));
  WalkResult reference = FlexiWalkerEngine(other).Run(input.graph, walk, prefix, args.seed);
  uint64_t differing = CountDifferingRows(result, reference, prefix.size());
  std::printf("  checks: %llu rows not walks on the graph; %llu of %zu prefix rows differ at "
              "2 threads, wavefront 8\n",
              static_cast<unsigned long long>(bad), static_cast<unsigned long long>(differing),
              prefix.size());
  report.Failed(bad + differing);
}

void TraceLayers(const Args& args, const Input& input, const flexi::WalkLogic& walk,
                 SpanLog& spans, Report& report) {
  const Graph& graph = input.graph;
  FlexiWalkerOptions defaults;
  report.Add("graph.generate_ms", spans.MedianSelfMs("LoadDataset"), "ms", kSetupReps);

  flexi::GeneratedHelpers helpers = TimeGenerate(walk, spans, report);

  flexi::FlexiPreparation prep;
  for (int rep = 0; rep < kPrepReps; ++rep) {
    flexi::DeviceContext device(defaults.device);
    spans.Time("ProfileEdgeCostRatio",
               [&] { return flexi::ProfileEdgeCostRatio(graph, walk, device); });
    spans.Time("RunPreprocess",
               [&] { return flexi::RunPreprocess(graph, helpers.plan(), device); });
    prep = spans.Time("PrepareFlexiWalker",
                      [&] { return flexi::PrepareFlexiWalker(graph, walk, defaults, device); });
  }
  report.Add("runtime.profile_ms", spans.MedianSelfMs("ProfileEdgeCostRatio"), "ms", kPrepReps);
  report.Add("runtime.preprocess_ms", spans.MedianSelfMs("RunPreprocess"), "ms", kPrepReps);
  report.Add("walker.prepare_ms", spans.MedianSelfMs("PrepareFlexiWalker"), "ms", kPrepReps);
  report.Add("runtime.edge_cost_ratio", prep.params.edge_cost_ratio, "ratio");

  std::string jit_dir = CompileStepKernel(walk, /*static_tables=*/false, args.workdir, report);

  std::span<const NodeId> subset(input.starts.data(), std::min(kProbeQueries, input.starts.size()));
  FlexiWalkerOptions erjs = defaults;
  erjs.strategy = flexi::SelectionStrategy::kAlwaysRjs;
  FlexiWalkerOptions ervs = defaults;
  ervs.strategy = flexi::SelectionStrategy::kAlwaysRvs;
  std::printf("  kernel probes over %zu queries:\n", subset.size());
  ReportProbe("eRJS only", "sampling.erjs_ns_per_step",
              RunProbe(graph, walk, erjs, subset, args.seed), report);
  ReportProbe("eRVS only", "sampling.ervs_ns_per_step",
              RunProbe(graph, walk, ervs, subset, args.seed), report);
  ReportProbe("cost model", "sampling.mixed_ns_per_step",
              RunProbe(graph, walk, defaults, subset, args.seed), report);
  if (jit_dir.empty()) {
    std::printf("  probe jit=on: unavailable, no compiled kernel (reason above)\n");
    report.Unmeasured("sampling.compiled_ns_per_step",
                      "no compiled kernel: compiler.jit_compile_ms gives the fallback reason");
  } else {
    FlexiWalkerOptions compiled = defaults;
    compiled.jit = flexi::jit::JitMode::kOn;
    compiled.jit_cache_dir = jit_dir;
    ReportProbe("jit=on", "sampling.compiled_ns_per_step",
                RunProbe(graph, walk, compiled, subset, args.seed), report);
  }

  // The timed call again, alternating trace ring off and on; the registry
  // deltas and device-model counts come from these same calls.
  WalkResult last;
  CounterDelta counters(WalkerCounterNames());
  Clock::time_point phase = Clock::now();
  double ratio = TraceOverheadRatio(args.seconds, [&] {
    Clock::time_point start = Clock::now();
    last = spans.Time("FlexiWalkerEngine::Run", [&] {
      return FlexiWalkerEngine(defaults).Run(graph, walk, input.starts, args.seed);
    });
    return SecondsSince(start);
  });
  AddWalkerCounters(report, counters.Deltas(), SecondsSince(phase));
  report.Add("obs.trace_overhead_ratio", ratio, "ratio");
  report.Add("runtime.rjs_share", last.selection.RjsRatio(), "ratio",
             last.selection.chose_rjs + last.selection.chose_rvs);
  AddSimt(report, last.cost, last.sim_ms, SampledSteps(last));
  report.Attempted(last.num_queries);
  CheckOutputs(args, input, walk, last, report);
}

}  // namespace

void RunNode2VecOneshot(const Args& args, Report& report) {
  SpanLog spans;
  std::vector<double> setup_s;
  Input input = SetUp(args, spans, setup_s);
  flexi::Node2VecWalk walk(2.0, 0.5, 80);
  std::printf("node2vec-oneshot: EU stand-in %u nodes, %llu edges, Pareto(3) weights; %zu starts "
              "per call, Node2Vec(p=2, q=0.5) length 80\n",
              input.graph.num_nodes(), static_cast<unsigned long long>(input.graph.num_edges()),
              input.starts.size());
  if (args.trace) {
    TraceLayers(args, input, walk, spans, report);
    return;
  }

  FlexiWalkerOptions defaults;
  WalkResult first = RepeatTimedCalls(
      args.seconds,
      [&] {
        return spans.Time("FlexiWalkerEngine::Run", [&] {
          return FlexiWalkerEngine(defaults).Run(input.graph, walk, input.starts, args.seed);
        });
      },
      report);
  report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  CheckOutputs(args, input, walk, first, report);
}

}  // namespace perfbench
