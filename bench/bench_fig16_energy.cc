// Fig. 16: energy efficiency (joules per query) and peak power (watts) of
// KnightKing, ThunderRW (CPU), FlowWalker, FlexiWalker (GPU) on the five
// largest datasets, weighted Node2Vec.
//
// Paper shape: FlexiWalker is the most energy-efficient (up to 10.15x less
// J/query than KnightKing); its peak power sits above the CPU engines but
// ~1.18x below FlowWalker (whose saturated sequential scans drive the GPU
// harder).
#include "bench/bench_util.h"
#include "src/walks/node2vec.h"

int main() {
  using namespace flexi;
  PrintHeader("Energy efficiency", "Fig. 16");

  Table table({"dataset", "KnightKing J/q", "ThunderRW J/q", "FlowWalker J/q",
               "FlexiWalker J/q", "KK W", "TRW W", "FW W", "FXW W"});
  DeviceProfile cpu = DeviceProfile::SimulatedCpu(32);
  DeviceProfile gpu = DeviceProfile::SimulatedGpu();
  for (const char* name : {"FS", "AB", "UK", "TW", "SK"}) {
    const DatasetSpec& spec = DatasetByName(name);
    Graph graph = LoadDataset(spec, WeightDistribution::kUniform);
    Node2VecWalk walk(2.0, 0.5, 80);
    auto starts = BenchStarts(graph, 1024);
    double n = static_cast<double>(starts.size());

    WalkResult kk = KnightKingEngine().Run(graph, walk, starts, kBenchSeed);
    WalkResult trw = ThunderRWEngine().Run(graph, walk, starts, kBenchSeed);
    WalkResult fw = FlowWalkerEngine().Run(graph, walk, starts, kBenchSeed);
    WalkResult fxw = FlexiWalkerEngine(ProfiledFlexiOptions()).Run(graph, walk, starts, kBenchSeed);

    table.AddRow({name, Table::Num(kk.joules / n), Table::Num(trw.joules / n),
                  Table::Num(fw.joules / n), Table::Num(fxw.joules / n),
                  Table::Num(MaxWatts(kk, cpu)), Table::Num(MaxWatts(trw, cpu)),
                  Table::Num(MaxWatts(fw, gpu)), Table::Num(MaxWatts(fxw, gpu))});
  }
  table.Print();
  return 0;
}
