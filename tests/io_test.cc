// Tests for edge-list serialization.
#include "src/graph/io.h"

#include <gtest/gtest.h>

#include <cmath>
#include <random>
#include <sstream>

#include "src/graph/generators.h"

namespace flexi {
namespace {

TEST(EdgeListIo, ParsesPlainEdges) {
  std::istringstream in(
      "# a comment\n"
      "0 1\n"
      "\n"
      "1 2\n"
      "2 0\n");
  Graph g = ReadEdgeList(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_FALSE(g.weighted());
}

TEST(EdgeListIo, ParsesWeightsAndLabels) {
  std::istringstream in(
      "0 1 2.5 3\n"
      "1 0 1.25 0\n");
  Graph g = ReadEdgeList(in);
  ASSERT_TRUE(g.weighted());
  ASSERT_TRUE(g.labeled());
  EXPECT_EQ(g.num_labels(), 4);  // max label 3 -> 4 classes
  EXPECT_FLOAT_EQ(g.PropertyWeight(g.EdgesBegin(0)), 2.5f);
  EXPECT_EQ(g.EdgeLabel(g.EdgesBegin(0)), 3);
}

TEST(EdgeListIo, RemapsSparseIds) {
  std::istringstream in(
      "100 7\n"
      "7 100\n"
      "100 9000\n");
  Graph g = ReadEdgeList(in);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_EQ(g.num_edges(), 3u);
  std::istringstream max_id("4294967295 0\n");
  EXPECT_EQ(ReadEdgeList(max_id).num_nodes(), 2u);
}

TEST(EdgeListIo, DenseModeValidatesRange) {
  std::istringstream ok("0 1\n");
  EXPECT_EQ(ReadEdgeList(ok, 2).num_nodes(), 2u);
  std::istringstream bad("0 5\n");
  EXPECT_THROW(ReadEdgeList(bad, 2), std::runtime_error);
}

TEST(EdgeListIo, RejectsMalformedLines) {
  for (const char* line : {
           "zero one", "0", "0 1 1.0 999",
           "4294967296 1",                     // above the NodeId range: aliased node 0
           "-1 1", "0 1x", "0 1 0.5 3 junk",   // signed id, trailing tokens
           "0 1 -3.0", "0 1 1e999", "0 1 inf", "0 1 nan",
           "0 1 1e39",                         // finite as a double, infinite as a float
           "0 1 abc", "0 1 1.0 3x", "0 1 1.0 -3",
       }) {
    std::istringstream in(std::string(line) + "\n");
    EXPECT_THROW(ReadEdgeList(in), std::runtime_error) << line;
  }
  std::istringstream zero_weight("0 1 0\n");
  EXPECT_FLOAT_EQ(ReadEdgeList(zero_weight).PropertyWeight(0), 0.0f);
  std::istringstream unreadable("0 1\n");  // a read error is not an empty list
  unreadable.setstate(std::ios::badbit);
  EXPECT_THROW(ReadEdgeList(unreadable), std::runtime_error);
}

// Byte flips and truncations of a valid weighted, labelled list: each
// mutant must throw std::runtime_error or parse to a graph a walk can use,
// with every neighbour id below num_nodes and every weight finite and >= 0.
TEST(EdgeListIo, RejectsCorruptLists) {
  Graph g = GenerateErdosRenyi(60, 4.0, 21);
  AssignWeights(g, WeightDistribution::kUniform, 0.0, 22);
  AssignLabels(g, 5, 23);
  std::stringstream text;
  WriteEdgeList(g, text);
  const std::string clean = text.str();

  // Flipped bytes come from the list's own alphabet plus what turns a token
  // signed, exponential or non-numeric, so most mutants still tokenize.
  const std::string alphabet = "0123456789 \t\n#-+.eEinfx";
  std::vector<std::string> mutants;
  std::mt19937_64 rng(0x5EED);
  for (int m = 0; m < 1000; ++m) {
    std::string mutant = clean;
    for (int flips = 1 + static_cast<int>(rng() % 3); flips > 0; --flips) {
      mutant[rng() % mutant.size()] = alphabet[rng() % alphabet.size()];
    }
    mutants.push_back(std::move(mutant));
  }
  for (int m = 0; m < 64; ++m) {
    mutants.push_back(clean.substr(0, rng() % clean.size()));
  }

  size_t rejected = 0;
  for (size_t m = 0; m < mutants.size(); ++m) {
    for (NodeId num_nodes : {NodeId{0}, g.num_nodes()}) {
      std::istringstream in(mutants[m]);
      size_t bad_ids = 0;
      size_t bad_weights = 0;
      try {
        Graph parsed = ReadEdgeList(in, num_nodes);
        for (NodeId v = 0; v < parsed.num_nodes(); ++v) {
          for (uint32_t i = 0; i < parsed.Degree(v); ++i) {
            bad_ids += parsed.Neighbor(v, i) >= parsed.num_nodes();
            float w = parsed.weighted() ? parsed.PropertyWeight(parsed.EdgesBegin(v) + i) : 1.0f;
            bad_weights += !(std::isfinite(w) && w >= 0.0f);
          }
        }
      } catch (const std::runtime_error&) {
        ++rejected;
      }
      EXPECT_EQ(bad_ids, 0u) << "mutant " << m << " num_nodes=" << num_nodes;
      EXPECT_EQ(bad_weights, 0u) << "mutant " << m << " num_nodes=" << num_nodes;
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST(EdgeListIo, DeduplicatesRepeatedEdges) {
  std::istringstream in("0 1\n0 1\n0 1\n");
  EXPECT_EQ(ReadEdgeList(in, 2).num_edges(), 1u);
}

TEST(EdgeListIo, TextRoundTripPreservesStructure) {
  Graph original = GenerateErdosRenyi(100, 5.0, 3);
  AssignWeights(original, WeightDistribution::kUniform, 0.0, 4);
  AssignLabels(original, 5, 5);
  std::stringstream buffer;
  WriteEdgeList(original, buffer);
  Graph parsed = ReadEdgeList(buffer, original.num_nodes());
  ASSERT_EQ(parsed.num_nodes(), original.num_nodes());
  ASSERT_EQ(parsed.num_edges(), original.num_edges());
  for (NodeId v = 0; v < original.num_nodes(); ++v) {
    ASSERT_EQ(parsed.Degree(v), original.Degree(v)) << v;
    for (uint32_t i = 0; i < original.Degree(v); ++i) {
      EXPECT_EQ(parsed.Neighbor(v, i), original.Neighbor(v, i));
      EXPECT_NEAR(parsed.PropertyWeight(parsed.EdgesBegin(v) + i),
                  original.PropertyWeight(original.EdgesBegin(v) + i), 1e-4);
      EXPECT_EQ(parsed.EdgeLabel(parsed.EdgesBegin(v) + i),
                original.EdgeLabel(original.EdgesBegin(v) + i));
    }
  }
}

}  // namespace
}  // namespace flexi
