// Fig. 13: sensitivity of the sampling-method selection strategy — random
// vs degree-based (RVS below 1K degree, RJS above) vs FlexiWalker's
// first-order cost model — on weighted Node2Vec over all ten datasets,
// reported as speedup normalized to degree-based selection.
//
// Paper shape: the cost model wins everywhere (geomean 15.86x over random,
// 2.66x over degree-based).
#include "bench/bench_util.h"
#include "src/metrics/stats.h"
#include "src/walks/node2vec.h"

int main() {
  using namespace flexi;
  PrintHeader("Selection strategy sensitivity", "Fig. 13");

  Table table({"dataset", "Random", "Degree-based", "FlexiWalker (cost model)"});
  std::vector<double> vs_random;
  std::vector<double> vs_degree;
  for (const DatasetSpec& spec : AllDatasets()) {
    Graph graph = LoadDataset(spec, WeightDistribution::kUniform);
    Node2VecWalk walk(2.0, 0.5, 80);
    auto starts = BenchStarts(graph, 1024);

    auto run = [&](SelectionStrategy strategy) {
      FlexiWalkerOptions options = ProfiledFlexiOptions();
      options.strategy = strategy;
      return FlexiWalkerEngine(options).Run(graph, walk, starts, kBenchSeed).sim_ms;
    };
    double random_ms = run(SelectionStrategy::kRandom);
    double degree_ms = run(SelectionStrategy::kDegreeThreshold);
    double cost_ms = run(SelectionStrategy::kCostModel);

    table.AddRow({spec.name, Table::Num(degree_ms / random_ms), Table::Num(1.0),
                  Table::Num(degree_ms / cost_ms)});
    vs_random.push_back(random_ms / cost_ms);
    vs_degree.push_back(degree_ms / cost_ms);
  }
  table.Print();
  std::printf("\n(speedup normalized to degree-based selection)\n");
  std::printf("geomean cost-model speedup over random:       %.2fx (paper: 15.86x)\n",
              GeometricMean(vs_random));
  std::printf("geomean cost-model speedup over degree-based: %.2fx (paper: 2.66x)\n",
              GeometricMean(vs_degree));
  return 0;
}
