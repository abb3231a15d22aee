// Tests for Flexi-Compiler: the analyzer's dependency checking and flag
// allocation (Fig. 9c), the generator's helpers (Fig. 9d), and the central
// soundness property — the generated get_weight_max() upper-bounds the true
// per-step maximum transition weight on every workload and graph tested.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "src/compiler/analyzer.h"
#include "src/compiler/generator.h"
#include "src/graph/generators.h"
#include "src/rng/philox.h"
#include "src/runtime/preprocess.h"
#include "src/walks/autoregressive.h"
#include "src/walks/deepwalk.h"
#include "src/walks/metapath.h"
#include "src/walks/node2vec.h"
#include "src/walks/ppr.h"
#include "src/walks/second_order_pr.h"
#include "src/walks/temporal.h"

namespace flexi {
namespace {

TEST(Analyzer, Node2VecIsPerStepWithPropertyWeight) {
  Node2VecWalk walk(2.0, 0.5);
  AnalysisResult result = Analyzer().Analyze(walk.program());
  EXPECT_TRUE(result.supported);
  EXPECT_EQ(result.granularity, BoundGranularity::kPerStep);
  EXPECT_TRUE(result.uses_property_weight);
  EXPECT_FALSE(result.uses_degrees);
  EXPECT_EQ(result.branches.size(), 4u);
}

TEST(Analyzer, SecondOrderPrUsesDegrees) {
  SecondOrderPageRankWalk walk(0.2);
  AnalysisResult result = Analyzer().Analyze(walk.program());
  EXPECT_TRUE(result.supported);
  EXPECT_EQ(result.granularity, BoundGranularity::kPerStep);
  EXPECT_TRUE(result.uses_degrees);
}

TEST(Analyzer, ConstOnlyProgramIsPerKernel) {
  // Unweighted Node2Vec as the paper's user would write it: no h reads.
  WeightProgram program;
  program.workload_name = "unweighted-n2v";
  program.branches = {
      {CondKind::kPostEqualsPrev, WeightExpr::Const(0.5), -1.0},
      {CondKind::kLinkedToPrev, WeightExpr::Const(1.0), -1.0},
      {CondKind::kNotLinkedToPrev, WeightExpr::Const(2.0), -1.0},
  };
  AnalysisResult result = Analyzer().Analyze(program);
  EXPECT_TRUE(result.supported);
  EXPECT_EQ(result.granularity, BoundGranularity::kPerKernel);
}

TEST(Analyzer, OpaqueProgramsRejectedWithWarning) {
  OpaqueWalk walk;
  AnalysisResult result = Analyzer().Analyze(walk.program());
  EXPECT_FALSE(result.supported);
  ASSERT_FALSE(result.warnings.empty());
  EXPECT_NE(result.warnings[0].find("eRVS"), std::string::npos);
}

TEST(Analyzer, EmptyProgramRejected) {
  WeightProgram program;
  EXPECT_FALSE(Analyzer().Analyze(program).supported);
}

TEST(Analyzer, OpaqueExpressionInsideBranchRejected) {
  WeightProgram program;
  program.workload_name = "bad";
  program.branches = {{CondKind::kOtherwise,
                       WeightExpr::Mul(WeightExpr::Const(2.0), WeightExpr::Opaque()), -1.0}};
  EXPECT_FALSE(Analyzer().Analyze(program).supported);
}

TEST(Generator, InvalidForOpaqueValidOtherwise) {
  Generator generator;
  EXPECT_FALSE(generator.Generate(OpaqueWalk().program()).valid());
  EXPECT_TRUE(generator.Generate(Node2VecWalk(2.0, 0.5).program()).valid());
}

TEST(Generator, PlanRequestsReductionsOnlyWhenHIsUsed) {
  Generator generator;
  auto n2v = generator.Generate(Node2VecWalk(2.0, 0.5).program());
  EXPECT_TRUE(n2v.plan().need_h_max);
  EXPECT_TRUE(n2v.plan().need_h_sum);

  WeightProgram const_only;
  const_only.workload_name = "consts";
  const_only.branches = {{CondKind::kOtherwise, WeightExpr::Const(2.0), -1.0}};
  auto helpers = generator.Generate(const_only);
  EXPECT_FALSE(helpers.plan().need_h_max);
}

TEST(Generator, EmitSourceShowsHelpers) {
  Generator generator;
  auto helpers = generator.Generate(Node2VecWalk(2.0, 0.5).program());
  std::string source = helpers.EmitSource();
  EXPECT_NE(source.find("preprocess"), std::string::npos);
  EXPECT_NE(source.find("h_MAX"), std::string::npos);
  EXPECT_NE(source.find("get_weight_max"), std::string::npos);
  EXPECT_NE(source.find("get_weight_sum"), std::string::npos);

  auto opaque = generator.Generate(OpaqueWalk().program());
  EXPECT_NE(opaque.EmitSource().find("unsupported"), std::string::npos);

  // get_weight_sum as WeightSum computes it: each branch weighted by its
  // share, h read as h_SUM[curr], terms without h scaled by the degree, and
  // no averaging over the branch count.
  std::string temporal = generator.Generate(TemporalWalk(8).program()).EmitSource();
  EXPECT_NE(temporal.find("sum_val += 0.5 * h_SUM[curr];"), std::string::npos) << temporal;
  EXPECT_NE(temporal.find("sum_val += 0.5 * 0 * deg(curr);"), std::string::npos) << temporal;
  EXPECT_EQ(temporal.find("/="), std::string::npos) << temporal;

  std::string metapath = generator.Generate(MetaPathWalk({0, 1}).program()).EmitSource();
  EXPECT_NE(metapath.find("sum_val += 0.2 * h_SUM[curr];"), std::string::npos) << metapath;
  EXPECT_NE(metapath.find("sum_val += 0.8 * 0 * deg(curr);"), std::string::npos) << metapath;
  EXPECT_EQ(metapath.find("/="), std::string::npos) << metapath;
}

// The soundness property behind eRJS (§3.3): for every workload, node,
// and step state, the generated bound dominates the true maximum
// transition weight.
class BoundSoundnessTest : public ::testing::TestWithParam<WeightDistribution> {};

void CheckBoundsOnGraph(const Graph& graph, const WalkLogic& logic) {
  Generator generator;
  GeneratedHelpers helpers = generator.Generate(logic.program());
  ASSERT_TRUE(helpers.valid());
  DeviceContext device(DeviceProfile::SimulatedGpu());
  PreprocessedData pre = RunPreprocess(graph, helpers.plan(), device);
  WalkContext ctx{&graph, &device, pre.empty() ? nullptr : &pre, nullptr};

  PhiloxStream rng(0xB0B0, 0);
  for (int sample = 0; sample < 400; ++sample) {
    QueryState q;
    q.cur = rng.NextBounded(graph.num_nodes());
    // Half the samples have a prior step (second-order state), half don't.
    if (sample % 2 == 0 && graph.Degree(q.cur) > 0) {
      q.prev = graph.Neighbor(q.cur, rng.NextBounded(graph.Degree(q.cur)));
      q.step = 1;
    }
    double bound = helpers.WeightMax(ctx, q);
    double true_max = 0.0;
    for (uint32_t i = 0; i < graph.Degree(q.cur); ++i) {
      true_max = std::max(true_max, static_cast<double>(logic.TransitionWeight(ctx, q, i)));
    }
    EXPECT_GE(bound + 1e-6, true_max)
        << logic.name() << " node=" << q.cur << " prev=" << q.prev;
  }
}

TEST_P(BoundSoundnessTest, Node2Vec) {
  Graph g = GenerateRmat({9, 8, 0.57, 0.19, 0.19, 5});
  AssignWeights(g, GetParam(), 1.5, 77);
  Node2VecWalk walk(2.0, 0.5);
  CheckBoundsOnGraph(g, walk);
}

TEST_P(BoundSoundnessTest, MetaPath) {
  Graph g = GenerateRmat({9, 8, 0.57, 0.19, 0.19, 6});
  AssignWeights(g, GetParam(), 1.5, 78);
  AssignLabels(g, 5, 79);
  MetaPathWalk walk({0, 1, 2, 3, 4});
  CheckBoundsOnGraph(g, walk);
}

TEST_P(BoundSoundnessTest, SecondOrderPageRank) {
  Graph g = GenerateRmat({9, 8, 0.57, 0.19, 0.19, 7});
  AssignWeights(g, GetParam(), 1.5, 80);
  SecondOrderPageRankWalk walk(0.2);
  CheckBoundsOnGraph(g, walk);
}

TEST_P(BoundSoundnessTest, DeepWalk) {
  Graph g = GenerateRmat({9, 8, 0.57, 0.19, 0.19, 8});
  AssignWeights(g, GetParam(), 1.5, 81);
  DeepWalk walk(4);
  CheckBoundsOnGraph(g, walk);
}

INSTANTIATE_TEST_SUITE_P(Distributions, BoundSoundnessTest,
                         ::testing::Values(WeightDistribution::kUnweighted,
                                           WeightDistribution::kUniform,
                                           WeightDistribution::kPareto,
                                           WeightDistribution::kDegreeBased));

// The sum estimate should land within a small constant factor of the true
// weight sum for h-proportional workloads (it feeds a *relative* cost
// comparison, not an exact quantity).
TEST(Generator, SumEstimateTracksTrueSumForDeepWalk) {
  Graph g = GenerateErdosRenyi(500, 16.0, 13);
  AssignWeights(g, WeightDistribution::kUniform, 0.0, 14);
  DeepWalk walk(4);
  Generator generator;
  GeneratedHelpers helpers = generator.Generate(walk.program());
  DeviceContext device(DeviceProfile::SimulatedGpu());
  PreprocessedData pre = RunPreprocess(g, helpers.plan(), device);
  WalkContext ctx{&g, &device, &pre, nullptr};
  PhiloxStream rng(21, 0);
  for (int sample = 0; sample < 100; ++sample) {
    QueryState q;
    q.cur = rng.NextBounded(g.num_nodes());
    double estimate = helpers.WeightSum(ctx, q);
    double truth = 0.0;
    for (uint32_t i = 0; i < g.Degree(q.cur); ++i) {
      truth += walk.TransitionWeight(ctx, q, i);
    }
    ASSERT_GT(truth, 0.0);
    EXPECT_NEAR(estimate / truth, 1.0, 1e-3);  // DeepWalk: w = 1, exact
  }
}

TEST(Generator, SumEstimateWithinFactorForNode2Vec) {
  Graph g = GenerateErdosRenyi(500, 16.0, 15);
  AssignWeights(g, WeightDistribution::kUniform, 0.0, 16);
  Node2VecWalk walk(2.0, 0.5);
  Generator generator;
  GeneratedHelpers helpers = generator.Generate(walk.program());
  DeviceContext device(DeviceProfile::SimulatedGpu());
  PreprocessedData pre = RunPreprocess(g, helpers.plan(), device);
  WalkContext ctx{&g, &device, &pre, nullptr};
  PhiloxStream rng(22, 0);
  for (int sample = 0; sample < 100; ++sample) {
    QueryState q;
    q.cur = rng.NextBounded(g.num_nodes());
    q.prev = g.Neighbor(q.cur, 0);
    q.step = 1;
    double estimate = helpers.WeightSum(ctx, q);
    double truth = 0.0;
    for (uint32_t i = 0; i < g.Degree(q.cur); ++i) {
      truth += walk.TransitionWeight(ctx, q, i);
    }
    ASSERT_GT(truth, 0.0);
    double ratio = estimate / truth;
    EXPECT_GT(ratio, 0.2) << "node " << q.cur;
    EXPECT_LT(ratio, 5.0) << "node " << q.cur;
  }
}

TEST(WeightExpr, ToStringRendersTree) {
  WeightExpr e = WeightExpr::Mul(WeightExpr::PropertyWeight(),
                                 WeightExpr::Add(WeightExpr::Const(0.8),
                                                 WeightExpr::InvDegreePrev()));
  EXPECT_EQ(e.ToString(), "(h[e] * (0.8 + 1/d(v')))");
}

TEST(StaticTransition, DeepWalkIsStaticAndProportionalToH) {
  DeepWalk walk(4);
  bool uses_h = false;
  EXPECT_TRUE(IsStaticTransitionProgram(walk.program(), &uses_h));
  EXPECT_TRUE(uses_h);
}

TEST(StaticTransition, HistoryDependentAndOpaqueProgramsAreNotStatic) {
  // Node2Vec: multiple guarded branches keyed on the previous node.
  EXPECT_FALSE(IsStaticTransitionProgram(Node2VecWalk(2.0, 0.5).program()));
  // Opaque: unanalyzable by construction.
  EXPECT_FALSE(IsStaticTransitionProgram(OpaqueWalk(4).program()));
  // 2nd-order PR mixes degree-of-prev terms.
  EXPECT_FALSE(IsStaticTransitionProgram(SecondOrderPageRankWalk(0.2).program()));
}

TEST(StaticTransition, CurrentNodeScalesAreStaticButAdditiveMixesAreNot) {
  // c * (1/d(v)) * h: per-node scale factors cancel under normalization.
  WeightProgram scaled;
  scaled.branches = {{CondKind::kOtherwise,
                      WeightExpr::Mul(WeightExpr::Const(0.5),
                                      WeightExpr::Mul(WeightExpr::InvDegreeCur(),
                                                      WeightExpr::PropertyWeight())),
                      1.0}};
  bool uses_h = false;
  EXPECT_TRUE(IsStaticTransitionProgram(scaled, &uses_h));
  EXPECT_TRUE(uses_h);

  // A constant-only program is static and uniform (no h factor).
  WeightProgram uniform;
  uniform.branches = {{CondKind::kOtherwise, WeightExpr::Const(1.0), 1.0}};
  EXPECT_TRUE(IsStaticTransitionProgram(uniform, &uses_h));
  EXPECT_FALSE(uses_h);

  // h + c is not proportional to h: the cached table would be wrong.
  WeightProgram additive;
  additive.branches = {{CondKind::kOtherwise,
                        WeightExpr::Add(WeightExpr::PropertyWeight(), WeightExpr::Const(1.0)),
                        1.0}};
  EXPECT_FALSE(IsStaticTransitionProgram(additive));

  // h * h is a different distribution than h.
  WeightProgram squared;
  squared.branches = {{CondKind::kOtherwise,
                       WeightExpr::Mul(WeightExpr::PropertyWeight(), WeightExpr::PropertyWeight()),
                       1.0}};
  EXPECT_FALSE(IsStaticTransitionProgram(squared));

  // A guarded single branch is not unconditional.
  WeightProgram guarded;
  guarded.branches = {{CondKind::kFirstStep, WeightExpr::PropertyWeight(), 1.0}};
  EXPECT_FALSE(IsStaticTransitionProgram(guarded));
}

// --- Query-local scratch expressions (kAuxPow / kTimeDecay) ---

TEST(Analyzer, ScratchExpressionsAnalyzeWithConstantBounds) {
  // Both new atoms read only query-local state (q.aux), so the analyzer
  // accepts them without raising any per-step flag: alpha^(1+aux) <= alpha
  // for alpha <= 1, and exp(-lambda*dt) <= 1 on the guarded branch.
  Generator generator;
  EXPECT_TRUE(generator.Generate(AutoregressiveWalk(0.5, 8).program()).valid());
  EXPECT_TRUE(generator.Generate(TemporalDecayWalk(0.1, 8).program()).valid());
}

TEST(Analyzer, TemporalDecayIsFirstOrderButAutoregressiveIsNot) {
  // Temporal decay depends only on (cur, aux) — it runs out-of-core. The
  // autoregressive walk branches on prev, so it stays in-memory.
  EXPECT_TRUE(IsFirstOrderProgram(TemporalDecayWalk(0.1, 8).program()));
  EXPECT_FALSE(IsFirstOrderProgram(AutoregressiveWalk(0.5, 8).program()));
}

TEST(StaticTransition, ScratchDependentProgramsAreNotStatic) {
  EXPECT_FALSE(IsStaticTransitionProgram(AutoregressiveWalk(0.5, 8).program()));
  EXPECT_FALSE(IsStaticTransitionProgram(TemporalDecayWalk(0.1, 8).program()));
}

TEST(WeightExpr, ScratchExpressionsRender) {
  EXPECT_EQ(WeightExpr::AuxPow(0.5).ToString(), "0.5^(1+aux)");
  EXPECT_EQ(WeightExpr::TimeDecay(0.25).ToString(), "exp(-0.25*(t[e]-aux))");
}

TEST_P(BoundSoundnessTest, Autoregressive) {
  Graph g = GenerateRmat({9, 8, 0.57, 0.19, 0.19, 9});
  AssignWeights(g, GetParam(), 1.5, 82);
  AutoregressiveWalk walk(0.5, 8);
  CheckBoundsOnGraph(g, walk);
}

TEST_P(BoundSoundnessTest, TemporalDecay) {
  Graph g = GenerateRmat({9, 8, 0.57, 0.19, 0.19, 10});
  AssignWeights(g, GetParam(), 1.5, 83);
  AssignTimestamps(g, 10.0f, 84);
  TemporalDecayWalk walk(0.1, 8);
  CheckBoundsOnGraph(g, walk);
}

// --- Folded helpers against the tree evaluation they replace ---

// The reference: Fig. 9d's substitution performed at every step by walking
// each branch's expression tree, with the helpers' charges.
double RefEval(const WeightExpr& e, double h, double inv_cur, double inv_prev, double max_deg) {
  switch (e.kind) {
    case ExprKind::kConst:
    case ExprKind::kAuxPow:
      return e.value;
    case ExprKind::kPropertyWeight:
      return h;
    case ExprKind::kInvDegreeCur:
      return inv_cur;
    case ExprKind::kInvDegreePrev:
      return inv_prev;
    case ExprKind::kMaxDegreeCurPrev:
      return max_deg;
    case ExprKind::kAdd:
      return RefEval(*e.left, h, inv_cur, inv_prev, max_deg) +
             RefEval(*e.right, h, inv_cur, inv_prev, max_deg);
    case ExprKind::kMul:
      return RefEval(*e.left, h, inv_cur, inv_prev, max_deg) *
             RefEval(*e.right, h, inv_cur, inv_prev, max_deg);
    case ExprKind::kTimeDecay:
      return 1.0;
    case ExprKind::kOpaque:
      return 0.0;
  }
  return 0.0;
}

struct RefStep {
  double inv_cur, inv_prev, max_deg;
};

RefStep RefStepVars(const WalkContext& ctx, const QueryState& q) {
  double dc = std::max<uint32_t>(ctx.graph->Degree(q.cur), 1);
  if (q.prev == kInvalidNode) {
    return {1.0 / dc, 1.0 / dc, dc};
  }
  double dp = std::max<uint32_t>(ctx.graph->Degree(q.prev), 1);
  return {1.0 / dc, 1.0 / dp, std::max(dc, dp)};
}

bool HasPreprocessed(const WalkContext& ctx) {
  return ctx.preprocessed != nullptr && !ctx.preprocessed->empty();
}

double RefWeightMax(const AnalysisResult& analysis, const WalkContext& ctx, const QueryState& q) {
  RefStep s = RefStepVars(ctx, q);
  double h_max = 1.0;
  if (analysis.uses_property_weight && HasPreprocessed(ctx)) {
    h_max = ctx.preprocessed->h_max[q.cur];
    ctx.mem().LoadCoalesced(1, 2 * sizeof(float));
  }
  double best = 0.0;
  for (const BranchAnalysis& branch : analysis.branches) {
    best = std::max(best, RefEval(branch.return_expr, h_max, s.inv_cur, s.inv_prev, s.max_deg));
    ctx.mem().CountAlu(2);
  }
  return best * (1.0 + 1e-6);
}

double RefWeightSum(const AnalysisResult& analysis, const WalkContext& ctx, const QueryState& q) {
  RefStep s = RefStepVars(ctx, q);
  double degree = std::max<uint32_t>(ctx.graph->Degree(q.cur), 1);
  bool per_step_h = analysis.uses_property_weight && HasPreprocessed(ctx);
  double h_sum = per_step_h ? ctx.preprocessed->h_sum[q.cur] : 1.0;
  double total = 0.0;
  double uniform_share = 1.0 / static_cast<double>(analysis.branches.size());
  for (const BranchAnalysis& branch : analysis.branches) {
    double share = branch.selectivity >= 0.0 ? branch.selectivity : uniform_share;
    bool h_aggregated = branch.uses_property_weight && per_step_h;
    double value = RefEval(branch.return_expr, h_aggregated ? h_sum : 1.0, s.inv_cur,
                           s.inv_prev, s.max_deg);
    if (!h_aggregated) {
      value *= degree;
    }
    total += share * value;
    ctx.mem().CountAlu(3);
  }
  return total;
}

void ExpectSameCharges(const CostCounters& got, const CostCounters& want) {
  EXPECT_EQ(got.coalesced_transactions, want.coalesced_transactions);
  EXPECT_EQ(got.random_transactions, want.random_transactions);
  EXPECT_EQ(got.bytes_read, want.bytes_read);
  EXPECT_EQ(got.bytes_written, want.bytes_written);
  EXPECT_EQ(got.rng_draws, want.rng_draws);
  EXPECT_EQ(got.alu_ops, want.alu_ops);
  EXPECT_EQ(got.warp_collectives, want.warp_collectives);
}

// A hand-written program: both orders of h × s, s alone, and two returns
// that must not fold (a product of two scalars, h × h).
WeightProgram MixedShapesProgram(bool with_unfoldable) {
  WeightProgram program;
  program.workload_name = "mixed";
  program.branches = {
      {CondKind::kFirstStep, WeightExpr::Mul(WeightExpr::Const(0.3), WeightExpr::PropertyWeight()),
       0.125},
      {CondKind::kPostEqualsPrev,
       WeightExpr::Mul(WeightExpr::PropertyWeight(), WeightExpr::AuxPow(0.7)), -1.0},
      {CondKind::kOtherwise, WeightExpr::AuxPow(0.9), -1.0},
  };
  if (with_unfoldable) {
    program.branches.push_back(
        {CondKind::kOtherwise, WeightExpr::Mul(WeightExpr::Const(0.3), WeightExpr::Const(1.7)),
         -1.0});
    program.branches.push_back(
        {CondKind::kOtherwise,
         WeightExpr::Mul(WeightExpr::PropertyWeight(), WeightExpr::PropertyWeight()), -1.0});
  }
  return program;
}

// For every built-in program, WeightMax / WeightSum and their charges equal
// the tree reference bit for bit, over a sweep of h_max, h_sum, current and
// previous degrees, first-step states and a missing h reduction. Every
// program but 2nd-order PR (degree atoms) folds.
TEST(Generator, FoldedHelpersMatchTreeEvaluationBitForBit) {
  // Sweep nodes 0..9 have these out-degrees (edges to distinct nodes).
  const std::vector<uint32_t> degrees = {0, 1, 2, 3, 5, 7, 16, 33, 100, 1000};
  const NodeId sweep_nodes = static_cast<NodeId>(degrees.size());
  GraphBuilder builder(1024);
  for (NodeId v = 0; v < sweep_nodes; ++v) {
    for (NodeId u = 0; u < degrees[v]; ++u) {
      builder.AddEdge(v, u);
    }
  }
  Graph graph = builder.Build();
  const std::vector<float> h_values = {0.0f, 1e-40f, 1e-30f, 0.1f,  0.5f,  1.0f,
                                       1.5f, 3.7f,   1e3f,   1e30f, 3.4e38f};
  PreprocessedData pre;
  pre.h_max.assign(graph.num_nodes(), 0.0f);
  pre.h_sum.assign(graph.num_nodes(), 0.0f);
  PreprocessedData empty;
  const PreprocessedData* reductions[] = {&pre, &empty, nullptr};
  const std::vector<std::pair<std::string, WeightProgram>> programs = {
      {"node2vec", Node2VecWalk(2.0, 0.5).program()},
      {"node2vec-inexact", Node2VecWalk(3.0, 0.7).program()},
      {"deepwalk", DeepWalk(4).program()},
      {"ppr", PersonalizedPageRankWalk(0.15, 8).program()},
      {"temporal", TemporalWalk(8).program()},
      {"temporal-decay", TemporalDecayWalk(0.1, 8).program()},
      {"autoregressive", AutoregressiveWalk(0.5, 8).program()},
      {"metapath", MetaPathWalk({0, 1, 2, 3, 4}).program()},
      {"2nd-pr", SecondOrderPageRankWalk(0.2).program()},
      {"mixed", MixedShapesProgram(false)},
      {"mixed-unfoldable", MixedShapesProgram(true)},
  };
  DeviceContext got_device(DeviceProfile::SimulatedGpu());
  DeviceContext want_device(DeviceProfile::SimulatedGpu());
  for (const auto& [name, program] : programs) {
    SCOPED_TRACE(name);
    GeneratedHelpers helpers = Generator().Generate(program);
    AnalysisResult analysis = Analyzer().Analyze(program);
    ASSERT_TRUE(helpers.valid());
    EXPECT_EQ(helpers.folded(), name != "2nd-pr" && name != "mixed-unfoldable");
    for (size_t sweep = 0; sweep < h_values.size(); ++sweep) {
      for (NodeId v = 0; v < sweep_nodes; ++v) {
        pre.h_max[v] = h_values[(sweep + v) % h_values.size()];
        pre.h_sum[v] = h_values[(sweep + 3 * v + 1) % h_values.size()];
      }
      for (const PreprocessedData* reduction : reductions) {
        for (NodeId cur = 0; cur < sweep_nodes; ++cur) {
          for (NodeId prev = 0; prev <= sweep_nodes; ++prev) {
            QueryState q;
            q.cur = cur;
            q.prev = prev == sweep_nodes ? kInvalidNode : prev;  // first step
            q.step = q.prev == kInvalidNode ? 0 : 1;
            SCOPED_TRACE(::testing::Message()
                         << "degree " << graph.Degree(cur) << ", prev " << prev << ", h_max "
                         << pre.h_max[cur] << ", h_sum " << pre.h_sum[cur] << ", reductions "
                         << (reduction == nullptr ? "none" : reduction->empty() ? "empty" : "set"));
            got_device.mem().Reset();
            want_device.mem().Reset();
            WalkContext got_ctx{&graph, &got_device, reduction, nullptr};
            WalkContext want_ctx{&graph, &want_device, reduction, nullptr};
            double got_max = helpers.WeightMax(got_ctx, q);
            double got_sum = helpers.WeightSum(got_ctx, q);
            double want_max = RefWeightMax(analysis, want_ctx, q);
            double want_sum = RefWeightSum(analysis, want_ctx, q);
            ASSERT_EQ(std::bit_cast<uint64_t>(got_max), std::bit_cast<uint64_t>(want_max))
                << got_max << " vs " << want_max;
            ASSERT_EQ(std::bit_cast<uint64_t>(got_sum), std::bit_cast<uint64_t>(want_sum))
                << got_sum << " vs " << want_sum;
            ExpectSameCharges(got_device.mem().counters(), want_device.mem().counters());
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace flexi
