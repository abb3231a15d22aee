// Tests for the walk-analysis module, including the statistical
// cross-check that first-order unweighted walks converge to the
// degree-proportional stationary distribution.
#include "src/analysis/walk_analysis.h"

#include <gtest/gtest.h>

#include "src/graph/generators.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walks/deepwalk.h"
#include "src/walks/ppr.h"

namespace flexi {
namespace {

WalkResult MakeResult(std::vector<std::vector<NodeId>> paths, uint32_t stride) {
  WalkResult result;
  result.path_stride = stride;
  result.num_queries = paths.size();
  for (const auto& path : paths) {
    for (uint32_t s = 0; s < stride; ++s) {
      result.paths.push_back(s < path.size() ? path[s] : kInvalidNode);
    }
  }
  return result;
}

TEST(Analysis, VisitCountsAndFrequencies) {
  WalkResult result = MakeResult({{0, 1, 2}, {1, 1, kInvalidNode}}, 3);
  auto counts = VisitCounts(result, 4);
  EXPECT_EQ(counts[0], 1u);
  EXPECT_EQ(counts[1], 3u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 0u);
  auto freq = VisitFrequencies(result, 4);
  EXPECT_DOUBLE_EQ(freq[1], 0.6);
}

TEST(Analysis, FrequenciesOfEmptyResultAreZero) {
  WalkResult empty;
  empty.path_stride = 4;
  auto freq = VisitFrequencies(empty, 3);
  EXPECT_EQ(freq, (std::vector<double>{0.0, 0.0, 0.0}));
}

TEST(Analysis, TransitionCountsMatchPaths) {
  Graph graph = GenerateCycle(4);  // 0->1->2->3->0
  WalkResult result = MakeResult({{0, 1, 2}, {2, 3, 0}}, 3);
  TransitionCounts tc = CountTransitions(graph, result);
  EXPECT_EQ(tc.total_steps, 4u);
  // Each cycle edge except 1->2 / 3->0 is traversed once; count layout is
  // per-edge in CSR order (one out-edge per node).
  EXPECT_EQ(tc.edge_counts[graph.EdgesBegin(0)], 1u);
  EXPECT_EQ(tc.edge_counts[graph.EdgesBegin(1)], 1u);
  EXPECT_EQ(tc.edge_counts[graph.EdgesBegin(2)], 1u);
  EXPECT_EQ(tc.edge_counts[graph.EdgesBegin(3)], 1u);
}

TEST(Analysis, CooccurrenceWindowCounting) {
  WalkResult result = MakeResult({{0, 1, 2, 3}}, 4);
  std::vector<NodePair> top;
  // Window 1: pairs (0,1) (1,2) (2,3); window 2 adds (0,2) (1,3).
  EXPECT_EQ(CountCooccurrences(result, 1, 10, &top), 3u);
  EXPECT_EQ(CountCooccurrences(result, 2, 10, &top), 5u);
  EXPECT_EQ(top.size(), 5u);
  for (const NodePair& pair : top) {
    EXPECT_EQ(pair.count, 1u);
  }
}

TEST(Analysis, CooccurrenceTopKOrdersByFrequency) {
  WalkResult result = MakeResult({{0, 1, 0, 1, 0, 1}, {2, 3, kInvalidNode}}, 6);
  std::vector<NodePair> top;
  CountCooccurrences(result, 1, 1, &top);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].a, 0u);
  EXPECT_EQ(top[0].b, 1u);
  EXPECT_EQ(top[0].count, 3u);
}

TEST(Analysis, DeepWalkConvergesToDegreeStationary) {
  // On a symmetric unweighted graph, the first-order walk's occupancy
  // converges to pi(v) = d(v) / 2|E|; the empirical L1 distance after many
  // long walks must be small. This is an end-to-end statistical validation
  // of the whole engine stack.
  GraphBuilder builder(64);
  PhiloxStream rng(5, 0);
  for (int e = 0; e < 400; ++e) {
    NodeId a = rng.NextBounded(64);
    NodeId b = rng.NextBounded(64);
    if (a != b) {
      builder.AddUndirectedEdge(a, b);
    }
  }
  for (NodeId v = 0; v + 1 < 64; ++v) {
    builder.AddUndirectedEdge(v, v + 1);  // ensure connectivity
  }
  Graph graph = builder.Build();
  DeepWalk walk(200);
  FlexiWalkerEngine engine;
  // Eight walks per node (~103k visits). With one walk per node the L1
  // noise of an exact sampler alone averages ~0.058, above the bound, for
  // eRJS and eRVS alike; at eight it averages ~0.021.
  std::vector<NodeId> starts;
  for (int rep = 0; rep < 8; ++rep) {
    std::vector<NodeId> all = AllNodesAsStarts(graph);
    starts.insert(starts.end(), all.begin(), all.end());
  }
  WalkResult result = engine.Run(graph, walk, starts, 17);
  auto freq = VisitFrequencies(result, graph.num_nodes());
  EXPECT_LT(L1DistanceToDegreeStationary(graph, freq), 0.05);
}

TEST(Analysis, PprScoresPeakNearSourceNeighborhood) {
  Graph graph = GenerateErdosRenyi(300, 8.0, 21);
  PersonalizedPageRankWalk walk(0.25, 300);
  FlexiWalkerEngine engine;
  std::vector<NodeId> starts(64, 42);  // 64 walkers from node 42
  WalkResult result = engine.Run(graph, walk, starts, 23);
  auto scores = EstimatePprScores(result, graph.num_nodes());
  // The source neighborhood's mass must exceed a random control
  // neighborhood of comparable size.
  double source_mass = scores[42];
  for (NodeId u : graph.Neighbors(42)) {
    source_mass += scores[u];
  }
  double control_mass = scores[7];
  for (NodeId u : graph.Neighbors(7)) {
    control_mass += scores[u];
  }
  EXPECT_GT(source_mass, 2.0 * control_mass);
}

}  // namespace
}  // namespace flexi
