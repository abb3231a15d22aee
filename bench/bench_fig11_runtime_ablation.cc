// Fig. 11: ablation of the runtime selection component. FlowWalker as
// reference, then FlexiWalker restricted to eRVS-only, eRJS-only, and the
// full runtime cost-model selection, on uniform and Pareto weights over
// YT, EU, SK.
//
// Paper shape: eRVS-only is stable; eRJS-only degrades sharply at low
// alpha; the runtime selector tracks the better of the two per node (up to
// 3.37x over eRJS-only and 421x over eRVS-only in the paper's extremes) and
// avoids eRJS-only's blowups.
#include "bench/bench_util.h"
#include "src/walks/node2vec.h"

int main() {
  using namespace flexi;
  PrintHeader("Runtime component ablation", "Fig. 11");

  for (const char* name : {"YT", "EU", "SK"}) {
    const DatasetSpec& spec = DatasetByName(name);
    std::printf("-- %s --\n", name);
    Table table({"weights", "FlowWalker", "FXW eRVS-only", "FXW eRJS-only", "FlexiWalker"});

    auto run_row = [&](const std::string& label, WeightDistribution dist, double alpha) {
      Graph graph = LoadDataset(spec, dist, alpha);
      Node2VecWalk walk(2.0, 0.5, 80);
      auto starts = BenchStarts(graph, 2048);

      double fw = FlowWalkerEngine().Run(graph, walk, starts, kBenchSeed).sim_ms;
      FlexiWalkerOptions rvs_only = ProfiledFlexiOptions();
      rvs_only.strategy = SelectionStrategy::kAlwaysRvs;
      FlexiWalkerOptions rjs_only = ProfiledFlexiOptions();
      rjs_only.strategy = SelectionStrategy::kAlwaysRjs;
      double rvs = FlexiWalkerEngine(rvs_only).Run(graph, walk, starts, kBenchSeed).sim_ms;
      double rjs = FlexiWalkerEngine(rjs_only).Run(graph, walk, starts, kBenchSeed).sim_ms;
      double fxw =
          FlexiWalkerEngine(ProfiledFlexiOptions()).Run(graph, walk, starts, kBenchSeed).sim_ms;
      table.AddRow({label, Cell(fw), Cell(rvs), Cell(rjs), Cell(fxw)});
    };

    run_row("uniform", WeightDistribution::kUniform, 0.0);
    for (double alpha : {1.0, 1.5, 2.0, 2.5, 3.0, 4.0}) {
      run_row("alpha=" + Table::Num(alpha), WeightDistribution::kPareto, alpha);
    }
    table.Print();
    std::printf("\n");
  }
  return 0;
}
