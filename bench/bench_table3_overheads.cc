// Table 3: FlexiWalker's profiling and preprocessing overhead per dataset
// (weighted Node2Vec), and its share of the main walk time.
//
// Paper shape: both phases are tiny — 0.46%-3.98% of the walk time — and
// their outputs are reusable per workload/graph.
#include "bench/bench_util.h"
#include "src/walks/node2vec.h"

int main() {
  using namespace flexi;
  PrintHeader("Profiling and preprocessing overhead", "Table 3");

  Table table({"dataset", "profile sim_ms", "preproc sim_ms", "total", "walk sim_ms",
               "overhead %"});
  for (const DatasetSpec& spec : AllDatasets()) {
    Graph graph = LoadDataset(spec, WeightDistribution::kUniform);
    Node2VecWalk walk(2.0, 0.5, 80);
    auto starts = BenchStarts(graph, 2048);
    FlexiWalkerEngine engine(ProfiledFlexiOptions());
    WalkResult result = engine.Run(graph, walk, starts, kBenchSeed);
    double total = result.profile_sim_ms + result.preprocess_sim_ms;
    table.AddRow({spec.name, Table::Num(result.profile_sim_ms),
                  Table::Num(result.preprocess_sim_ms), Table::Num(total),
                  Table::Num(result.sim_ms), Table::Num(100.0 * total / result.sim_ms)});
  }
  table.Print();
  return 0;
}
