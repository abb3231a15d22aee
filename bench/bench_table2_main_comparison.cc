// Table 2: execution time of all seven systems across the five dynamic
// random walk workloads and ten datasets, uniform property weights.
//
// Paper shape to reproduce: FlexiWalker wins essentially everywhere, by the
// largest margins on weighted workloads (baselines pay per-step max
// reductions or prefix sums); CPU baselines trail GPU ones by orders of
// magnitude; NextDoor OOMs at full scale on the largest datasets. The
// headline aggregate — geometric-mean speedup of FlexiWalker over the best
// CPU and best GPU baseline per cell — is printed at the end (paper: 73.44x
// and 5.91x).
#include <functional>
#include <memory>

#include "bench/bench_util.h"
#include "src/metrics/stats.h"
#include "src/walks/metapath.h"
#include "src/walks/node2vec.h"
#include "src/walks/second_order_pr.h"

namespace flexi {
namespace {

struct WorkloadCase {
  std::string name;
  WeightDistribution dist;
  std::function<std::unique_ptr<WalkLogic>()> make;
  // NextDoor/ThunderRW compile-time max for RJS (only unweighted Node2Vec).
  std::optional<double> known_max;
};

std::vector<WorkloadCase> Workloads() {
  std::vector<WorkloadCase> cases;
  cases.push_back({"Node2Vec (unweighted)", WeightDistribution::kUnweighted,
                   [] { return std::make_unique<Node2VecWalk>(2.0, 0.5, 80); }, 2.0});
  cases.push_back({"Node2Vec (weighted)", WeightDistribution::kUniform,
                   [] { return std::make_unique<Node2VecWalk>(2.0, 0.5, 80); },
                   std::nullopt});
  cases.push_back({"MetaPath (unweighted)", WeightDistribution::kUnweighted,
                   [] {
                     return std::make_unique<MetaPathWalk>(
                         std::vector<uint8_t>{0, 1, 2, 3, 4});
                   },
                   std::nullopt});
  cases.push_back({"MetaPath (weighted)", WeightDistribution::kUniform,
                   [] {
                     return std::make_unique<MetaPathWalk>(
                         std::vector<uint8_t>{0, 1, 2, 3, 4});
                   },
                   std::nullopt});
  cases.push_back({"2nd-order PageRank", WeightDistribution::kUniform,
                   [] { return std::make_unique<SecondOrderPageRankWalk>(0.2, 80); },
                   std::nullopt});
  return cases;
}

}  // namespace
}  // namespace flexi

int main() {
  using namespace flexi;
  PrintHeader("Main performance comparison, uniform property weights", "Table 2");

  std::vector<double> cpu_speedups;
  std::vector<double> gpu_speedups;

  for (const WorkloadCase& wc : Workloads()) {
    std::printf("-- %s --\n", wc.name.c_str());
    Table table({"dataset", "SOWalker", "ThunderRW", "C-SAW", "NextDoor", "Skywalker",
                 "FlowWalker", "FlexiWalker"});
    for (const DatasetSpec& spec : AllDatasets()) {
      Graph graph = LoadDataset(spec, wc.dist);
      auto walk = wc.make();
      auto starts = BenchStarts(graph, 1024);

      SOWalkerEngine sowalker;
      ThunderRWEngine thunderrw(wc.known_max);
      CSawEngine csaw;
      NextDoorEngine nextdoor(wc.known_max);
      SkywalkerEngine skywalker;
      FlowWalkerEngine flowwalker;
      FlexiWalkerEngine flexiwalker(ProfiledFlexiOptions());

      double so = sowalker.Run(graph, *walk, starts, kBenchSeed).sim_ms;
      double trw = thunderrw.Run(graph, *walk, starts, kBenchSeed).sim_ms;
      double cs = csaw.Run(graph, *walk, starts, kBenchSeed).sim_ms;
      bool nd_oom = WouldOom(spec, NextDoorSortBytes(spec));
      double nd = nd_oom ? 0.0 : nextdoor.Run(graph, *walk, starts, kBenchSeed).sim_ms;
      double sky = skywalker.Run(graph, *walk, starts, kBenchSeed).sim_ms;
      double fw = flowwalker.Run(graph, *walk, starts, kBenchSeed).sim_ms;
      double fxw = flexiwalker.Run(graph, *walk, starts, kBenchSeed).sim_ms;

      table.AddRow({spec.name, Cell(so), Cell(trw), Cell(cs), Cell(nd, nd_oom), Cell(sky),
                    Cell(fw), Cell(fxw)});

      double best_cpu = std::min(so, trw);
      double best_gpu = std::min({cs, nd_oom ? 1e300 : nd, sky, fw});
      cpu_speedups.push_back(best_cpu / fxw);
      gpu_speedups.push_back(best_gpu / fxw);
    }
    table.Print();
    std::printf("\n");
  }

  std::printf("geomean speedup of FlexiWalker over best CPU baseline:  %.2fx (paper: 73.44x)\n",
              GeometricMean(cpu_speedups));
  std::printf("geomean speedup of FlexiWalker over best GPU baseline:  %.2fx (paper: 5.91x)\n",
              GeometricMean(gpu_speedups));
  return 0;
}
