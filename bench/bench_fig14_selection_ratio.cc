// Fig. 14: the fraction of sampling steps for which the cost model chose
// eRVS vs eRJS on YT, EU, SK across Pareto shape values.
//
// Paper shape: rejection sampling is selected far less as the distribution
// grows more skewed (lower alpha) — the model correctly tracks the edge
// probability distribution.
#include "bench/bench_util.h"
#include "src/walks/node2vec.h"

int main() {
  using namespace flexi;
  PrintHeader("Ratio of chosen sampling method", "Fig. 14");

  for (const char* name : {"YT", "EU", "SK"}) {
    const DatasetSpec& spec = DatasetByName(name);
    std::printf("-- %s --\n", name);
    Table table({"alpha", "eRVS %", "eRJS %"});
    for (double alpha : {1.0, 1.5, 2.0, 2.5, 3.0, 4.0}) {
      Graph graph = LoadDataset(spec, WeightDistribution::kPareto, alpha);
      Node2VecWalk walk(2.0, 0.5, 80);
      auto starts = BenchStarts(graph, 1024);
      FlexiWalkerEngine engine(ProfiledFlexiOptions());
      WalkResult result = engine.Run(graph, walk, starts, kBenchSeed);
      double rjs_pct = result.selection.RjsRatio() * 100.0;
      table.AddRow({Table::Num(alpha), Table::Num(100.0 - rjs_pct), Table::Num(rjs_pct)});
    }
    table.Print();
    std::printf("\n");
  }
  return 0;
}
