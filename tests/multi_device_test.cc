// Tests for multi-device query partitioning and execution (§6.6).
#include "src/walker/multi_device.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "src/graph/generators.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walks/node2vec.h"

namespace flexi {
namespace {

TEST(Partition, CoversAllQueriesExactlyOnce) {
  std::vector<NodeId> starts(1000);
  for (NodeId v = 0; v < 1000; ++v) {
    starts[v] = v;
  }
  for (QueryMapping mapping : {QueryMapping::kHash, QueryMapping::kRange}) {
    auto parts = PartitionQueries(starts, 4, mapping);
    ASSERT_EQ(parts.size(), 4u);
    std::multiset<NodeId> all;
    for (const auto& part : parts) {
      all.insert(part.begin(), part.end());
    }
    EXPECT_EQ(all.size(), starts.size());
    for (NodeId v : starts) {
      EXPECT_EQ(all.count(v), 1u);
    }
  }
}

TEST(Partition, HashIsApproximatelyBalanced) {
  std::vector<NodeId> starts(10000);
  for (NodeId v = 0; v < 10000; ++v) {
    starts[v] = v;
  }
  auto parts = PartitionQueries(starts, 4, QueryMapping::kHash);
  for (const auto& part : parts) {
    EXPECT_NEAR(static_cast<double>(part.size()), 2500.0, 250.0);
  }
}

TEST(Partition, SingleDeviceGetsEverything) {
  std::vector<NodeId> starts = {5, 6, 7};
  auto parts = PartitionQueries(starts, 1, QueryMapping::kHash);
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0].size(), 3u);
}

TEST(Partition, RangeChunksAreContiguous) {
  std::vector<NodeId> starts = {0, 1, 2, 3, 4, 5, 6};
  auto parts = PartitionQueries(starts, 3, QueryMapping::kRange);
  EXPECT_EQ(parts[0], (std::vector<NodeId>{0, 1, 2}));
  EXPECT_EQ(parts[1], (std::vector<NodeId>{3, 4, 5}));
  EXPECT_EQ(parts[2], (std::vector<NodeId>{6}));
}

class MultiDeviceRunTest : public ::testing::Test {
 protected:
  MultiDeviceRunTest() {
    graph_ = GenerateRmat({10, 8, 0.57, 0.19, 0.19, 55});
    AssignWeights(graph_, WeightDistribution::kUniform, 0.0, 56);
    starts_ = AllNodesAsStarts(graph_);
  }

  static std::unique_ptr<Engine> MakeEngine() {
    FlexiWalkerOptions options;
    options.edge_cost_ratio = 4.0;  // skip profiling for speed
    return std::make_unique<FlexiWalkerEngine>(options);
  }

  Graph graph_;
  std::vector<NodeId> starts_;
};

TEST_F(MultiDeviceRunTest, ScalingReducesMakespan) {
  Node2VecWalk walk(2.0, 0.5, 8);
  auto single = RunMultiDevice(MakeEngine, graph_, walk, starts_, 1, QueryMapping::kHash, 3);
  auto quad = RunMultiDevice(MakeEngine, graph_, walk, starts_, 4, QueryMapping::kHash, 3);
  ASSERT_EQ(quad.per_device.size(), 4u);
  double speedup = quad.SpeedupOver(single.makespan_sim_ms);
  EXPECT_GT(speedup, 2.0);
  EXPECT_LE(speedup, 4.1);
}

TEST_F(MultiDeviceRunTest, AllQueriesProcessedAcrossDevices) {
  Node2VecWalk walk(2.0, 0.5, 4);
  auto result = RunMultiDevice(MakeEngine, graph_, walk, starts_, 3, QueryMapping::kHash, 5);
  size_t total = 0;
  for (const auto& run : result.per_device) {
    total += run.num_queries;
  }
  EXPECT_EQ(total, starts_.size());
  EXPECT_EQ(result.num_queries, starts_.size());
}

TEST_F(MultiDeviceRunTest, EachDeviceMatchesAStandaloneRunOfItsPartition) {
  // Device d is one engine Run over partition d at seed + d, on the whole
  // worker pool; the makespan is the slowest device's sim_ms.
  Node2VecWalk walk(2.0, 0.5, 6);
  constexpr uint32_t kDevices = 3;
  constexpr uint64_t kSeed = 11;
  auto result =
      RunMultiDevice(MakeEngine, graph_, walk, starts_, kDevices, QueryMapping::kHash, kSeed);
  auto parts = PartitionQueries(starts_, kDevices, QueryMapping::kHash);
  ASSERT_EQ(result.per_device.size(), kDevices);
  double makespan = 0.0;
  for (uint32_t d = 0; d < kDevices; ++d) {
    WalkResult alone = MakeEngine()->Run(graph_, walk, parts[d], kSeed + d);
    const WalkResult& device = result.per_device[d];
    EXPECT_EQ(device.paths, alone.paths) << "device " << d;
    EXPECT_EQ(device.cost.coalesced_transactions, alone.cost.coalesced_transactions) << d;
    EXPECT_EQ(device.cost.random_transactions, alone.cost.random_transactions) << d;
    EXPECT_EQ(device.cost.bytes_read, alone.cost.bytes_read) << d;
    EXPECT_EQ(device.cost.bytes_written, alone.cost.bytes_written) << d;
    EXPECT_EQ(device.cost.rng_draws, alone.cost.rng_draws) << d;
    EXPECT_EQ(device.cost.alu_ops, alone.cost.alu_ops) << d;
    EXPECT_EQ(device.cost.warp_collectives, alone.cost.warp_collectives) << d;
    EXPECT_EQ(device.sim_ms, alone.sim_ms) << d;
    makespan = std::max(makespan, alone.sim_ms);
  }
  EXPECT_EQ(result.makespan_sim_ms, makespan);
}

TEST_F(MultiDeviceRunTest, HashBalancesAtLeastAsWellAsRangeOnSkewedWork) {
  // Sort the starts by degree so range mapping puts all heavy hubs on one
  // device; hash mapping spreads them.
  std::vector<NodeId> sorted = starts_;
  std::sort(sorted.begin(), sorted.end(), [&](NodeId a, NodeId b) {
    return graph_.Degree(a) > graph_.Degree(b);
  });
  Node2VecWalk walk(2.0, 0.5, 4);
  auto hash = RunMultiDevice(MakeEngine, graph_, walk, sorted, 4, QueryMapping::kHash, 7);
  auto range = RunMultiDevice(MakeEngine, graph_, walk, sorted, 4, QueryMapping::kRange, 7);
  EXPECT_LE(hash.makespan_sim_ms, range.makespan_sim_ms * 1.05);
}

TEST_F(MultiDeviceRunTest, SpeedupHandlesZeroMakespan) {
  MultiDeviceResult empty;
  EXPECT_EQ(empty.SpeedupOver(10.0), 0.0);
}

}  // namespace
}  // namespace flexi
