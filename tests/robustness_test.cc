// Robustness and end-to-end statistical properties:
//  * the runtime selector never loses badly to the better single kernel
//    (the guarantee Fig. 11 demonstrates),
//  * eRJS driven by the *compiler-generated* bound reproduces the exact
//    transition distribution for real second-order workloads,
//  * degenerate and adversarial graphs (stars, cycles, dead ends, degree >
//    warp size) are handled by every kernel.
#include <gtest/gtest.h>

#include "src/baselines/baselines.h"
#include "src/compiler/generator.h"
#include "src/graph/generators.h"
#include "src/walks/metapath.h"
#include "src/metrics/stats.h"
#include "src/runtime/preprocess.h"
#include "src/sampling/rejection.h"
#include "src/sampling/reservoir.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walks/node2vec.h"
#include "src/walks/second_order_pr.h"
#include "tests/test_util.h"

namespace flexi {
namespace {

class SelectorRobustnessTest : public ::testing::TestWithParam<double> {};

TEST_P(SelectorRobustnessTest, CostModelTracksBetterKernel) {
  double alpha = GetParam();
  Graph graph = GenerateRmat({11, 16, 0.57, 0.19, 0.19, 91});
  AssignWeights(graph, WeightDistribution::kPareto, alpha, 92);
  Node2VecWalk walk(2.0, 0.5, 20);
  auto starts = StridedStarts(graph, 2);

  auto run = [&](SelectionStrategy strategy) {
    FlexiWalkerOptions options;
    options.strategy = strategy;
    options.edge_cost_ratio = 4.0;
    return FlexiWalkerEngine(options).Run(graph, walk, starts, 77).sim_ms;
  };
  double rvs_only = run(SelectionStrategy::kAlwaysRvs);
  double rjs_only = run(SelectionStrategy::kAlwaysRjs);
  double adaptive = run(SelectionStrategy::kCostModel);

  // The selector may pay a small estimation overhead but must stay within a
  // modest factor of the better pure kernel — and far from the worse one
  // when the two diverge.
  double better = std::min(rvs_only, rjs_only);
  double worse = std::max(rvs_only, rjs_only);
  EXPECT_LT(adaptive, better * 1.65) << "alpha=" << alpha;
  if (worse > 2.0 * better) {
    EXPECT_LT(adaptive, worse) << "alpha=" << alpha;
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, SelectorRobustnessTest, ::testing::Values(1.0, 2.0, 4.0));

// eRJS with the generated bound, on a genuine second-order state: the
// accepted distribution must equal the exact transition probabilities.
TEST(EndToEndDistribution, ERjsWithGeneratedBoundNode2Vec) {
  // Fan with a twist: node 0 also linked to node 1 (prev), and 1 <-> 2 so
  // one candidate is "linked to prev".
  GraphBuilder builder(6);
  for (NodeId leaf = 1; leaf < 6; ++leaf) {
    builder.AddUndirectedEdge(0, leaf);
  }
  builder.AddUndirectedEdge(1, 2);
  Graph graph = builder.Build();
  std::vector<float> h(graph.num_edges(), 1.0f);
  for (uint32_t i = 0; i < graph.Degree(0); ++i) {
    h[graph.EdgesBegin(0) + i] = static_cast<float>(i + 1);  // 1..5
  }
  graph.SetPropertyWeights(std::move(h));

  Node2VecWalk walk(2.0, 0.5, 2);
  Generator generator;
  GeneratedHelpers helpers = generator.Generate(walk.program());
  ASSERT_TRUE(helpers.valid());
  DeviceContext device(DeviceProfile::SimulatedGpu());
  PreprocessedData pre = RunPreprocess(graph, helpers.plan(), device);
  WalkContext ctx{&graph, &device, &pre, nullptr};

  QueryState q;
  q.cur = 0;
  q.prev = 1;  // walker came from node 1
  q.step = 1;

  uint32_t d = graph.Degree(0);
  std::vector<double> p(d);
  double total = 0.0;
  for (uint32_t i = 0; i < d; ++i) {
    p[i] = walk.TransitionWeight(ctx, q, i);
    total += p[i];
  }
  for (double& x : p) {
    x /= total;
  }
  double bound = helpers.WeightMax(ctx, q);

  PhiloxStream stream(0xE2E, 0);
  KernelRng rng(stream, device.mem());
  auto chi = SampleAndTest(d, p, 60000, [&](uint64_t) {
    return ERjsStep(ctx, walk, q, rng, bound).index;
  });
  EXPECT_TRUE(chi.consistent) << chi.statistic;
}

TEST(EndToEndDistribution, ERvsJumpSecondOrderPageRank) {
  GraphBuilder builder(8);
  for (NodeId leaf = 1; leaf < 8; ++leaf) {
    builder.AddUndirectedEdge(0, leaf);
  }
  builder.AddUndirectedEdge(1, 3);
  builder.AddUndirectedEdge(1, 4);
  Graph graph = builder.Build();
  AssignWeights(graph, WeightDistribution::kUniform, 0.0, 5);

  SecondOrderPageRankWalk walk(0.2, 2);
  DeviceContext device(DeviceProfile::SimulatedGpu());
  WalkContext ctx{&graph, &device, nullptr, nullptr};
  QueryState q;
  q.cur = 0;
  q.prev = 1;
  q.step = 1;

  uint32_t d = graph.Degree(0);
  std::vector<double> p(d);
  double total = 0.0;
  for (uint32_t i = 0; i < d; ++i) {
    p[i] = walk.TransitionWeight(ctx, q, i);
    total += p[i];
  }
  for (double& x : p) {
    x /= total;
  }
  PhiloxStream stream(0xE2F, 0);
  KernelRng rng(stream, device.mem());
  auto chi = SampleAndTest(d, p, 60000, [&](uint64_t) {
    return ERvsJumpStep(ctx, walk, q, rng).index;
  });
  EXPECT_TRUE(chi.consistent) << chi.statistic;
}

TEST(AdversarialGraphs, HubWithDegreeBeyondWarpSize) {
  // A 1000-leaf star: the hub's degree spans 32 lanes x 32 strides.
  Graph star = GenerateStar(1000);
  AssignWeights(star, WeightDistribution::kUniform, 0.0, 6);
  DeepWalk walk(6);
  FlexiWalkerEngine engine;
  std::vector<NodeId> starts = {0};
  WalkResult result = engine.Run(star, walk, starts, 3);
  auto path = result.Path(0);
  // Walk alternates hub <-> leaves; all 7 entries valid.
  for (size_t s = 0; s < path.size(); ++s) {
    ASSERT_NE(path[s], kInvalidNode) << s;
  }
}

TEST(AdversarialGraphs, CycleWalkIsFullyDeterministicPath) {
  Graph cycle = GenerateCycle(5);
  DeepWalk walk(10);
  FlexiWalkerEngine engine;
  std::vector<NodeId> starts = {0};
  WalkResult result = engine.Run(cycle, walk, starts, 1);
  auto path = result.Path(0);
  for (size_t s = 0; s < path.size(); ++s) {
    EXPECT_EQ(path[s], s % 5);
  }
}

TEST(AdversarialGraphs, MetaPathDeadEndsEverywhere) {
  // All labels are 0 but the schema demands label 1 at step 0: every query
  // dead-ends immediately and the engine terminates cleanly.
  Graph graph = GenerateErdosRenyi(64, 6.0, 7);
  graph.SetEdgeLabels(std::vector<uint8_t>(graph.num_edges(), 0), 2);
  MetaPathWalk walk({1, 0});
  FlexiWalkerEngine engine;
  auto starts = AllNodesAsStarts(graph);
  WalkResult result = engine.Run(graph, walk, starts, 9);
  for (size_t qid = 0; qid < result.num_queries; ++qid) {
    EXPECT_EQ(result.Path(qid)[1], kInvalidNode);
  }
}

TEST(AdversarialGraphs, SingleNodeGraphWithSelfState) {
  GraphBuilder builder(2);
  builder.AddEdge(0, 1);  // 1 is a sink
  Graph graph = builder.Build();
  Node2VecWalk walk(2.0, 0.5, 4);
  FlexiWalkerEngine engine;
  std::vector<NodeId> starts = {0, 1};
  WalkResult result = engine.Run(graph, walk, starts, 11);
  EXPECT_EQ(result.Path(0)[1], 1u);
  EXPECT_EQ(result.Path(0)[2], kInvalidNode);
  EXPECT_EQ(result.Path(1)[1], kInvalidNode);  // starts at the sink
}

TEST(AdversarialGraphs, ExtremeWeightMagnitudes) {
  std::vector<float> weights = {1e-30f, 1e30f, 1.0f};
  FanGraph fan(weights);
  DeepWalk logic(1);
  PhiloxStream stream(13, 0);
  KernelRng rng(stream, fan.device.mem());
  // The 1e30 neighbor should be selected essentially always, by every
  // optimized kernel, without NaN/inf breakage.
  for (int t = 0; t < 500; ++t) {
    EXPECT_EQ(ERvsScanStep(fan.ctx, logic, fan.query, rng).index, 1u);
    EXPECT_EQ(ERvsJumpStep(fan.ctx, logic, fan.query, rng).index, 1u);
    EXPECT_EQ(ERjsStep(fan.ctx, logic, fan.query, rng, 1e30).index, 1u);
    EXPECT_EQ(ReservoirStep(fan.ctx, logic, fan.query, rng).index, 1u);
  }
}

TEST(Reproducibility, ProfilerAndEngineStableAcrossRuns) {
  Graph graph = GenerateRmat({9, 8, 0.57, 0.19, 0.19, 15});
  AssignWeights(graph, WeightDistribution::kUniform, 0.0, 16);
  Node2VecWalk walk(2.0, 0.5, 6);
  auto starts = AllNodesAsStarts(graph);

  FlexiWalkerOptions profiled;
  profiled.edge_cost_ratio = std::nullopt;  // profile on the simulated GPU (§5.1)
  FlexiWalkerEngine e1(profiled);
  FlexiWalkerEngine e2(profiled);
  WalkResult r1 = e1.Run(graph, walk, starts, 123);
  WalkResult r2 = e2.Run(graph, walk, starts, 123);
  EXPECT_EQ(r1.paths, r2.paths);
  EXPECT_DOUBLE_EQ(r1.sim_ms, r2.sim_ms);
  EXPECT_GT(r1.profile_sim_ms, 0.0);
  EXPECT_DOUBLE_EQ(e1.last_edge_cost_ratio(), e2.last_edge_cost_ratio());
  EXPECT_EQ(r1.selection.chose_rjs, r2.selection.chose_rjs);
}

TEST(Reproducibility, CostCountersAreDeterministic) {
  Graph graph = GenerateErdosRenyi(128, 8.0, 17);
  AssignWeights(graph, WeightDistribution::kUniform, 0.0, 18);
  Node2VecWalk walk(2.0, 0.5, 8);
  auto starts = AllNodesAsStarts(graph);
  FlowWalkerEngine engine;
  WalkResult r1 = engine.Run(graph, walk, starts, 5);
  WalkResult r2 = engine.Run(graph, walk, starts, 5);
  EXPECT_EQ(r1.cost.coalesced_transactions, r2.cost.coalesced_transactions);
  EXPECT_EQ(r1.cost.random_transactions, r2.cost.random_transactions);
  EXPECT_EQ(r1.cost.rng_draws, r2.cost.rng_draws);
}

}  // namespace
}  // namespace flexi
