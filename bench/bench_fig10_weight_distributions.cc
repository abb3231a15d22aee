// Fig. 10: weighted Node2Vec under power-law (Pareto alpha sweep) and
// degree-based edge property weights on YT, EU, SK, comparing NextDoor,
// FlowWalker, FlexiWalker.
//
// Paper shape: FlexiWalker is robust across skews (stable time as alpha
// changes); NextDoor blows up on skewed weights (and OOMs on SK at full
// scale); everything slows under degree-based weights; FlexiWalker keeps a
// multi-x lead over FlowWalker.
#include "bench/bench_util.h"
#include "src/walks/node2vec.h"

int main() {
  using namespace flexi;
  PrintHeader("Power-law and degree-based property weights", "Fig. 10");

  for (const char* name : {"YT", "EU", "SK"}) {
    const DatasetSpec& spec = DatasetByName(name);
    std::printf("-- %s --\n", name);
    Table table({"weights", "NextDoor", "FlowWalker", "FlexiWalker"});

    auto run_row = [&](const std::string& label, WeightDistribution dist, double alpha) {
      Graph graph = LoadDataset(spec, dist, alpha);
      Node2VecWalk walk(2.0, 0.5, 80);
      auto starts = BenchStarts(graph, 2048);

      bool nd_oom = WouldOom(spec, NextDoorSortBytes(spec));
      double nd = 0.0;
      if (!nd_oom) {
        nd = NextDoorEngine().Run(graph, walk, starts, kBenchSeed).sim_ms;
      }
      double fw = FlowWalkerEngine().Run(graph, walk, starts, kBenchSeed).sim_ms;
      double fxw =
          FlexiWalkerEngine(ProfiledFlexiOptions()).Run(graph, walk, starts, kBenchSeed).sim_ms;
      table.AddRow({label, Cell(nd, nd_oom), Cell(fw), Cell(fxw)});
    };

    for (double alpha : {1.0, 1.5, 2.0, 2.5, 3.0, 4.0}) {
      run_row("alpha=" + Table::Num(alpha), WeightDistribution::kPareto, alpha);
    }
    run_row("degree", WeightDistribution::kDegreeBased, 0.0);
    table.Print();
    std::printf("\n");
  }
  return 0;
}
