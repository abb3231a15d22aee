// §7.2 extension: INT8 edge property weights. Weighted Node2Vec with
// uniform weights, FlexiWalker (INT8) vs FlowWalker, plus the float
// reference columns.
//
// Paper shape: FlexiWalker with INT8 weights keeps a large geomean speedup
// over FlowWalker (27.59x in the paper's setting) while cutting weight-scan
// bytes 4x.
#include "bench/bench_util.h"
#include "src/metrics/stats.h"
#include "src/walks/node2vec.h"

int main() {
  using namespace flexi;
  PrintHeader("Low-precision (INT8) edge weights", "Section 7.2 extension");

  Table table({"dataset", "FlowWalker fp32", "FlowWalker int8", "FXW fp32", "FXW int8",
               "int8 speedup vs FW"});
  std::vector<double> speedups;
  for (const char* name : {"YT", "EU", "AB", "SK"}) {
    const DatasetSpec& spec = DatasetByName(name);
    Graph graph = LoadDataset(spec, WeightDistribution::kUniform);
    Node2VecWalk walk(2.0, 0.5, 80);
    auto starts = BenchStarts(graph, 2048);

    double fw32 = FlowWalkerEngine(false).Run(graph, walk, starts, kBenchSeed).sim_ms;
    double fw8 = FlowWalkerEngine(true).Run(graph, walk, starts, kBenchSeed).sim_ms;
    FlexiWalkerOptions fp32 = ProfiledFlexiOptions();
    FlexiWalkerOptions int8 = fp32;
    int8.use_int8_weights = true;
    double fxw32 = FlexiWalkerEngine(fp32).Run(graph, walk, starts, kBenchSeed).sim_ms;
    double fxw8 = FlexiWalkerEngine(int8).Run(graph, walk, starts, kBenchSeed).sim_ms;

    table.AddRow({name, Cell(fw32), Cell(fw8), Cell(fxw32), Cell(fxw8),
                  Table::Num(fw8 / fxw8) + "x"});
    speedups.push_back(fw8 / fxw8);
  }
  table.Print();
  std::printf("\ngeomean FXW-int8 speedup over FlowWalker-int8: %.2fx (paper: 27.59x)\n",
              GeometricMean(speedups));
  return 0;
}
