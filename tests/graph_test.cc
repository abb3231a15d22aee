// Unit tests for the CSR graph, builder, generators, and weight/label
// initialization.
#include "src/graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <span>
#include <vector>

#include "src/graph/datasets.h"
#include "src/graph/generators.h"
#include "src/graph/int8_weights.h"
#include "src/metrics/stats.h"
#include "src/rng/philox.h"

namespace flexi {
namespace {

TEST(GraphBuilder, BuildsSortedDedupedCsr) {
  GraphBuilder builder(4);
  builder.AddEdge(0, 2);
  builder.AddEdge(0, 1);
  builder.AddEdge(0, 2);  // duplicate
  builder.AddEdge(3, 0);
  Graph g = builder.Build();
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.Degree(0), 2u);
  EXPECT_EQ(g.Neighbor(0, 0), 1u);
  EXPECT_EQ(g.Neighbor(0, 1), 2u);
  EXPECT_EQ(g.Degree(1), 0u);
  EXPECT_EQ(g.Degree(3), 1u);
  EXPECT_EQ(g.MaxDegree(), 2u);
}

TEST(GraphBuilder, UndirectedAddsBothDirections) {
  GraphBuilder builder(3);
  builder.AddUndirectedEdge(0, 1);
  builder.AddUndirectedEdge(2, 2);  // self loop: added once
  Graph g = builder.Build();
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_EQ(g.num_edges(), 3u);
}

TEST(Graph, HasEdgeBinarySearch) {
  Graph g = GenerateComplete(6);
  for (NodeId v = 0; v < 6; ++v) {
    for (NodeId u = 0; u < 6; ++u) {
      EXPECT_EQ(g.HasEdge(v, u), v != u);
    }
  }
}

// HasEdge is a branchless lower-bound search; on every sorted row it must
// answer exactly as std::binary_search does. Rows of every length up to
// 64, around each power of two up to 4096, and random lengths in 0..4096
// hold strictly increasing ids with gaps, half of them near the top of the
// id range; each row is probed below, between, on and above its values.
TEST(Graph, HasEdgeMatchesBinarySearchOnSortedRows) {
  PhiloxStream rng(0x4A5E, 0);
  std::vector<uint32_t> lengths;
  for (uint32_t n = 0; n <= 64; ++n) {
    lengths.push_back(n);
  }
  for (uint32_t p = 7; p <= 12; ++p) {
    lengths.insert(lengths.end(), {(1u << p) - 1, 1u << p});
    if (p < 12) {
      lengths.push_back((1u << p) + 1);
    }
  }
  for (int i = 0; i < 32; ++i) {
    lengths.push_back(rng.NextBounded(4097));
  }
  std::vector<EdgeId> row_ptr = {0};
  std::vector<NodeId> col_idx;
  for (size_t r = 0; r < lengths.size(); ++r) {
    NodeId value = (r % 2 == 0 ? 1u : 0xFFFF0000u) + rng.NextBounded(16);
    for (uint32_t i = 0; i < lengths[r]; ++i) {
      col_idx.push_back(value);
      value += 2 + rng.NextBounded(8);  // leaves a value between neighbours
    }
    row_ptr.push_back(col_idx.size());
  }
  Graph g(std::move(row_ptr), std::move(col_idx));
  // A block view over the second half of the rows reads the same rows
  // through a non-zero edge_base.
  NodeId first_view_row = g.num_nodes() / 2;
  EdgeId edge_base = g.EdgesBegin(first_view_row);
  Graph view = Graph::BlockView(g.row_offsets(), edge_base, g.adjacency().subspan(edge_base), {},
                                {}, 0, {}, g.MaxDegree());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::span<const NodeId> row = g.Neighbors(v);
    std::vector<NodeId> probes = {0, 1, kInvalidNode - 1, kInvalidNode};
    for (NodeId x : row) {
      probes.insert(probes.end(), {x - 1, x, x + 1});
    }
    for (NodeId u : probes) {
      bool expected = std::binary_search(row.begin(), row.end(), u);
      ASSERT_EQ(g.HasEdge(v, u), expected) << "row " << v << " of length " << row.size()
                                           << ", probe " << u;
      if (v >= first_view_row) {
        ASSERT_EQ(view.HasEdge(v, u), expected) << "view row " << v << ", probe " << u;
      }
    }
  }
}

// The same on the probes Node2Vec makes: HasEdge(prev, u) for u a
// neighbour of a neighbour of prev, plus random pairs, on a power-law graph
// shaped like the EU stand-in.
TEST(Graph, HasEdgeMatchesBinarySearchOnPowerLawGraph) {
  Graph g = GenerateRmat({12, 24, 0.60, 0.18, 0.18, 105});
  PhiloxStream rng(0x4A5F, 0);
  for (int sample = 0; sample < 40000; ++sample) {
    NodeId v = rng.NextBounded(g.num_nodes());
    NodeId u = rng.NextBounded(g.num_nodes());
    if (sample % 2 == 0 && g.Degree(v) > 0) {
      NodeId cur = g.Neighbor(v, rng.NextBounded(g.Degree(v)));
      if (g.Degree(cur) > 0) {
        u = g.Neighbor(cur, rng.NextBounded(g.Degree(cur)));
      }
    }
    std::span<const NodeId> row = g.Neighbors(v);
    ASSERT_EQ(g.HasEdge(v, u), std::binary_search(row.begin(), row.end(), u))
        << "edge (" << v << ", " << u << "), degree " << row.size();
  }
}

TEST(Graph, RejectsMalformedCsr) {
  std::vector<EdgeId> row_ptr = {0, 2};
  std::vector<NodeId> col_idx = {1};  // row_ptr.back() != col size
  EXPECT_THROW(Graph(std::move(row_ptr), std::move(col_idx)), std::invalid_argument);
}

TEST(Graph, WeightAndLabelSizeValidation) {
  Graph g = GenerateCycle(5);
  EXPECT_THROW(g.SetPropertyWeights(std::vector<float>(3, 1.0f)), std::invalid_argument);
  EXPECT_THROW(g.SetEdgeLabels(std::vector<uint8_t>(3, 0), 5), std::invalid_argument);
}

TEST(Generators, CycleAndStarShapes) {
  Graph cycle = GenerateCycle(10);
  EXPECT_EQ(cycle.num_edges(), 10u);
  for (NodeId v = 0; v < 10; ++v) {
    EXPECT_EQ(cycle.Degree(v), 1u);
    EXPECT_EQ(cycle.Neighbor(v, 0), (v + 1) % 10);
  }
  Graph star = GenerateStar(7);
  EXPECT_EQ(star.Degree(0), 7u);
  for (NodeId leaf = 1; leaf <= 7; ++leaf) {
    EXPECT_EQ(star.Degree(leaf), 1u);
  }
}

TEST(Generators, ErdosRenyiHasNoSinksAndRoughAvgDegree) {
  Graph g = GenerateErdosRenyi(1000, 8.0, 3);
  EXPECT_EQ(g.num_nodes(), 1000u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(g.Degree(v), 1u);
  }
  double avg = static_cast<double>(g.num_edges()) / g.num_nodes();
  EXPECT_GT(avg, 6.0);
  EXPECT_LT(avg, 10.0);
}

TEST(Generators, RmatIsSkewedAndSinkFree) {
  RmatParams params;
  params.scale = 10;
  params.edge_factor = 8;
  Graph g = GenerateRmat(params);
  EXPECT_EQ(g.num_nodes(), 1024u);
  uint32_t max_degree = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GE(g.Degree(v), 1u);
    max_degree = std::max(max_degree, g.Degree(v));
  }
  double avg = static_cast<double>(g.num_edges()) / g.num_nodes();
  // Power-law skew: the hub is far above the average degree.
  EXPECT_GT(max_degree, 10 * avg);
}

TEST(Generators, RmatDeterministicForSeed) {
  RmatParams params;
  params.scale = 8;
  params.seed = 99;
  Graph a = GenerateRmat(params);
  Graph b = GenerateRmat(params);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.Degree(v), b.Degree(v));
  }
}

TEST(Weights, UniformInPaperRange) {
  Graph g = GenerateErdosRenyi(200, 6.0, 5);
  AssignWeights(g, WeightDistribution::kUniform, 0.0, 17);
  ASSERT_TRUE(g.weighted());
  RunningStats stats;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    float h = g.PropertyWeight(e);
    EXPECT_GE(h, 1.0f);
    EXPECT_LT(h, 5.0f);
    stats.Add(h);
  }
  EXPECT_NEAR(stats.mean(), 3.0, 0.1);
}

TEST(Weights, ParetoSkewIncreasesWithLowerAlpha) {
  Graph g1 = GenerateErdosRenyi(500, 8.0, 5);
  Graph g2 = GenerateErdosRenyi(500, 8.0, 5);
  AssignWeights(g1, WeightDistribution::kPareto, 1.0, 21);
  AssignWeights(g2, WeightDistribution::kPareto, 4.0, 21);
  auto cv = [](const Graph& g) {
    RunningStats s;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      s.Add(g.PropertyWeight(e));
    }
    return s.CoefficientOfVariationPct();
  };
  EXPECT_GT(cv(g1), cv(g2));
}

TEST(Weights, DegreeBasedEqualsNeighborDegree) {
  Graph g = GenerateErdosRenyi(100, 5.0, 9);
  AssignWeights(g, WeightDistribution::kDegreeBased, 0.0, 1);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (uint32_t i = 0; i < g.Degree(v); ++i) {
      NodeId u = g.Neighbor(v, i);
      EXPECT_FLOAT_EQ(g.PropertyWeight(g.EdgesBegin(v) + i),
                      static_cast<float>(std::max<uint32_t>(g.Degree(u), 1)));
    }
  }
}

TEST(Weights, UnweightedLeavesImplicitOnes) {
  Graph g = GenerateCycle(5);
  AssignWeights(g, WeightDistribution::kUnweighted, 0.0, 1);
  EXPECT_FALSE(g.weighted());
  EXPECT_FLOAT_EQ(g.PropertyWeight(0), 1.0f);
}

TEST(Labels, UniformOverRange) {
  Graph g = GenerateErdosRenyi(300, 8.0, 13);
  AssignLabels(g, 5, 71);
  ASSERT_TRUE(g.labeled());
  std::vector<uint64_t> counts(5, 0);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    ASSERT_LT(g.EdgeLabel(e), 5);
    ++counts[g.EdgeLabel(e)];
  }
  std::vector<double> expected(5, 0.2);
  EXPECT_TRUE(ChiSquareGoodnessOfFit(counts, expected).consistent);
}

TEST(Datasets, RegistryHasAllTenInPaperOrder) {
  auto all = AllDatasets();
  ASSERT_EQ(all.size(), 10u);
  EXPECT_EQ(all[0].name, "YT");
  EXPECT_EQ(all[9].name, "FS");
  // Paper-scale edge counts increase overall (Table 1 ordering).
  EXPECT_LT(all[0].paper_edges, all[9].paper_edges);
  EXPECT_THROW(DatasetByName("nope"), std::out_of_range);
  EXPECT_EQ(DatasetByName("EU").full_name, "EU-2015");
}

TEST(Datasets, LoadProducesWeightedLabeledGraph) {
  Graph g = LoadDataset(DatasetByName("YT"), WeightDistribution::kUniform);
  EXPECT_TRUE(g.weighted());
  EXPECT_TRUE(g.labeled());
  EXPECT_EQ(g.num_labels(), 5);
  EXPECT_GT(g.num_edges(), g.num_nodes());
}

TEST(Datasets, FullScaleFootprintTracksPaperSizes) {
  uint64_t yt = FullScaleFootprintBytes(DatasetByName("YT"));
  uint64_t sk = FullScaleFootprintBytes(DatasetByName("SK"));
  EXPECT_GT(sk, yt);
  // SK at full scale (3.6B edges) fills most of a 48 GB device with the
  // resident adjacency+weights+labels alone — any multi-gigabyte auxiliary
  // structure (NextDoor's transit sort) then tips it over: the
  // OOM-reproduction premise.
  EXPECT_GT(sk, 28ull << 30);
}

TEST(Int8Weights, QuantizationErrorBounded) {
  Graph g = GenerateErdosRenyi(200, 8.0, 77);
  AssignWeights(g, WeightDistribution::kUniform, 0.0, 78);
  Int8WeightStore store = Int8WeightStore::Quantize(g);
  ASSERT_FALSE(store.empty());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_NEAR(store.Weight(e), g.PropertyWeight(e), store.scale() / 2.0f + 1e-6f);
  }
  EXPECT_EQ(store.size_bytes(), g.num_edges());
}

TEST(Int8Weights, EmptyForUnweightedGraph) {
  Graph g = GenerateCycle(4);
  EXPECT_TRUE(Int8WeightStore::Quantize(g).empty());
}

TEST(Int8Weights, ConstantWeightsQuantizeExactly) {
  Graph g = GenerateCycle(4);
  g.SetPropertyWeights(std::vector<float>(4, 2.5f));
  Int8WeightStore store = Int8WeightStore::Quantize(g);
  for (EdgeId e = 0; e < 4; ++e) {
    EXPECT_FLOAT_EQ(store.Weight(e), 2.5f);
  }
}

TEST(Graph, MemoryFootprintAccounting) {
  Graph g = GenerateCycle(8);
  size_t base = g.MemoryFootprintBytes();
  AssignWeights(g, WeightDistribution::kUniform, 0.0, 1);
  EXPECT_EQ(g.MemoryFootprintBytes(), base + 8 * sizeof(float));
}

}  // namespace
}  // namespace flexi
