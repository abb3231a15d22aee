// Quickstart: run weighted Node2Vec on a synthetic social graph with
// FlexiWalker and inspect the results.
//
//   $ ./quickstart
//
// Walks through the whole public API surface: build/load a graph, pick a
// workload, run the engine, read paths and execution statistics.
#include <cstdio>

#include "src/graph/generators.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walks/node2vec.h"

int main() {
  using namespace flexi;

  // 1. A graph. Real applications would fill a GraphBuilder from an edge
  // list; here we generate a power-law (R-MAT) graph and give it uniform
  // [1, 5) property weights — the paper's default weighted setting.
  RmatParams params;
  params.scale = 12;       // 4096 nodes
  params.edge_factor = 16; // ~65k edges
  params.seed = 42;
  Graph graph = GenerateRmat(params);
  AssignWeights(graph, WeightDistribution::kUniform, /*alpha=*/0.0, /*seed=*/43);
  std::printf("graph: %u nodes, %llu edges, max degree %u\n", graph.num_nodes(),
              static_cast<unsigned long long>(graph.num_edges()), graph.MaxDegree());

  // 2. A workload. Node2Vec with the paper's parameters (a=2.0, b=0.5) and
  // 80-step walks. The workload carries its own Flexi-Compiler program, so
  // no further configuration is needed.
  Node2VecWalk walk(/*a=*/2.0, /*b=*/0.5, /*length=*/80);

  // 3. Run. One query per node, like the paper's evaluation. The default
  // options pick eRJS or eRVS per step by the host's EdgeCost ratio.
  FlexiWalkerOptions options;
  FlexiWalkerEngine engine(options);
  std::vector<NodeId> starts = AllNodesAsStarts(graph);
  WalkResult result = engine.Run(graph, walk, starts, /*seed=*/2026);

  // 4. Inspect.
  std::printf("\nfirst three walks:\n");
  for (size_t qid = 0; qid < 3; ++qid) {
    std::printf("  walk %zu:", qid);
    for (NodeId node : result.Path(qid)) {
      if (node == kInvalidNode) {
        break;
      }
      std::printf(" %u", node);
    }
    std::printf("\n");
  }

  std::printf("\nexecution summary:\n");
  std::printf("  queries               : %zu\n", result.num_queries);
  std::printf("  wall clock            : %.2f ms\n", result.wall_ms);
  std::printf("  simulated device time : %.3f ms\n", result.sim_ms);
  std::printf("  profile + preprocess  : %.3f ms (reusable)\n",
              result.profile_sim_ms + result.preprocess_sim_ms);
  std::printf("  sampler selections    : %.1f%% eRJS / %.1f%% eRVS\n",
              result.selection.RjsRatio() * 100.0,
              (1.0 - result.selection.RjsRatio()) * 100.0);
  std::printf("  EdgeCost ratio        : %.2f (%s)\n", engine.last_edge_cost_ratio(),
              EdgeCostRatioSource(options));
  return 0;
}
