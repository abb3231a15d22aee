// Out-of-core execution tier tests: block-store round-trips and corrupt-file
// rejection, GraphCache pin/evict semantics, the block scheduler's pick
// policy, and the determinism contract — block-cached walks are
// bit-identical to the in-memory engine across every cache size, thread
// count, and wavefront width (out_of_core.h).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <new>
#include <optional>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/graph/block_store.h"
#include "src/graph/generators.h"
#include "src/graph/graph_cache.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walker/out_of_core.h"
#include "src/walks/deepwalk.h"
#include "src/walks/node2vec.h"
#include "src/walks/ppr.h"

// Allocation ceiling for the block-file mutation test: while armed on this
// thread, a single allocation above it is recorded and refused with
// std::bad_alloc, so a header that would size a vector past the file fails
// the test without allocating anything.
namespace {
thread_local size_t alloc_ceiling = 0;  // 0 = unarmed
thread_local size_t alloc_refused = 0;  // largest refused request
}  // namespace

void* operator new(std::size_t bytes) {
  if (alloc_ceiling != 0 && bytes > alloc_ceiling) {
    alloc_refused = std::max(alloc_refused, bytes);
    throw std::bad_alloc();
  }
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace flexi {
namespace {

// Each test writes its own file so parallel ctest shards never collide.
std::string BlockFilePath(const char* tag) {
  return std::string("/tmp/flexi_outofcore_test_") + tag + ".blk";
}

Graph TestGraph(NodeId nodes = 500, double degree = 6.0, uint64_t seed = 13) {
  Graph g = GenerateErdosRenyi(nodes, degree, seed);
  AssignWeights(g, WeightDistribution::kUniform, 0.0, seed + 1);
  return g;
}

std::vector<NodeId> AllStarts(const Graph& g) {
  std::vector<NodeId> starts(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    starts[v] = v;
  }
  return starts;
}

// ---------------------------------------------------------- block store --

TEST(BlockStore, RoundTripReassemblesTheGraph) {
  Graph g = TestGraph(300, 5.0, 7);
  AssignLabels(g, 4, 8);
  AssignTimestamps(g, 100.0f, 9);
  const std::string path = BlockFilePath("roundtrip");
  size_t blocks = PartitionToBlockFile(g, path, kMinBlockBytes);
  ASSERT_GT(blocks, 1u) << "graph must span several blocks for the test to bite";

  for (bool map : {false, true}) {
    BlockStore store = BlockStore::Open(path, map);
    EXPECT_EQ(store.num_nodes(), g.num_nodes());
    EXPECT_EQ(store.num_edges(), g.num_edges());
    EXPECT_EQ(store.num_blocks(), blocks);
    EXPECT_TRUE(store.weighted());
    EXPECT_TRUE(store.labeled());
    EXPECT_TRUE(store.temporal());
    EXPECT_EQ(store.max_degree(), g.MaxDegree());
    ASSERT_EQ(store.row_offsets().size(), g.num_nodes() + 1u);

    // Blocks tile [0, num_nodes) in order, and BlockOf maps every node in a
    // block's range back to that block.
    NodeId covered = 0;
    for (size_t b = 0; b < store.num_blocks(); ++b) {
      const BlockMeta& meta = store.block(b);
      EXPECT_EQ(meta.first_node, covered);
      for (NodeId v = meta.first_node; v < meta.first_node + meta.node_count; ++v) {
        EXPECT_EQ(store.BlockOf(v), b) << "node " << v;
      }
      covered += meta.node_count;
    }
    EXPECT_EQ(covered, g.num_nodes());

    // Every row read through a block view matches the original graph.
    BlockData data;
    for (size_t b = 0; b < store.num_blocks(); ++b) {
      store.ReadBlock(b, data);
      Graph view = store.MakeBlockView(b, data);
      const BlockMeta& meta = store.block(b);
      for (NodeId v = meta.first_node; v < meta.first_node + meta.node_count; ++v) {
        ASSERT_EQ(view.Degree(v), g.Degree(v)) << "node " << v;
        for (uint32_t i = 0; i < g.Degree(v); ++i) {
          EXPECT_EQ(view.Neighbor(v, i), g.Neighbor(v, i));
          EdgeId e = g.EdgesBegin(v) + i;
          EXPECT_EQ(view.PropertyWeight(e), g.PropertyWeight(e));
          EXPECT_EQ(view.EdgeLabel(e), g.EdgeLabel(e));
          EXPECT_EQ(view.EdgeTimestamp(e), g.EdgeTimestamp(e));
        }
      }
    }
  }
  std::remove(path.c_str());
}

TEST(BlockStore, RejectsBudgetBelowMinimum) {
  Graph g = TestGraph(64, 4.0, 3);
  EXPECT_THROW(PartitionToBlockFile(g, BlockFilePath("tiny"), kMinBlockBytes - 1),
               std::invalid_argument);
}

TEST(BlockStore, OversizedRowGetsItsOwnBlock) {
  // A hub whose single row exceeds the budget must still land in exactly
  // one (oversized) block rather than being split or dropped.
  Graph g = GenerateStar(600);  // hub 0 has 600 out-edges = 2400 B > 1 KiB
  const std::string path = BlockFilePath("hub");
  PartitionToBlockFile(g, path, kMinBlockBytes);
  BlockStore store = BlockStore::Open(path);
  const BlockMeta& hub = store.block(store.BlockOf(0));
  EXPECT_GE(hub.edge_count, 600u);
  EXPECT_EQ(store.BlockOf(0), 0u);
  BlockData data;
  store.ReadBlock(store.BlockOf(0), data);
  Graph view = store.MakeBlockView(store.BlockOf(0), data);
  EXPECT_EQ(view.Degree(0), g.Degree(0));
  std::remove(path.c_str());
}

// Reads the whole file at `path`.
std::vector<char> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void Poke(std::vector<char>& bytes, size_t offset, T value) {
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

// Seeded mutation fuzzing of the block format: byte flips in every region
// of a small file and truncation at every region boundary. Each mutant,
// opened both ways, must either be rejected with std::runtime_error or
// yield only in-range adjacency ids — and no single allocation may exceed
// the file's size. Three mutants that once crashed, were accepted, or
// over-allocated are explicit inputs.
TEST(BlockStore, RejectsCorruptFiles) {
  Graph g = TestGraph(300, 5.0, 7);
  AssignLabels(g, 4, 8);
  AssignTimestamps(g, 100.0f, 9);
  const std::string clean_path = BlockFilePath("mutation_clean");
  ASSERT_EQ(PartitionToBlockFile(g, clean_path, 6000), 4u);
  const std::vector<char> clean = ReadFileBytes(clean_path);
  BlockStore reference = BlockStore::Open(clean_path);
  std::remove(clean_path.c_str());

  // Region starts: magic, header, row_ptr, block index, then each block's
  // adjacency, weights, labels and timestamps.
  const size_t row_ptr_at = 48;
  const size_t index_at = row_ptr_at + (reference.num_nodes() + 1) * sizeof(EdgeId);
  std::vector<size_t> starts = {0, 8, row_ptr_at, index_at};
  for (size_t b = 0; b < reference.num_blocks(); ++b) {
    size_t at = reference.block(b).payload_offset;
    size_t edges = reference.block(b).edge_count;
    for (size_t bytes_per_edge : {sizeof(NodeId), sizeof(float), sizeof(uint8_t)}) {
      starts.push_back(at);
      at += edges * bytes_per_edge;
    }
    starts.push_back(at);  // timestamps
  }
  starts.push_back(clean.size());

  std::vector<std::vector<char>> mutants;
  std::mt19937_64 rng(0x5EED);
  for (size_t r = 0; r + 1 < starts.size(); ++r) {
    const size_t begin = starts[r];
    const size_t end = starts[r + 1];
    for (int flip = 0; flip < 16 && end > begin; ++flip) {
      std::vector<char> mutant = clean;
      mutant[begin + rng() % (end - begin)] ^= static_cast<char>(1 + rng() % 255);
      mutants.push_back(std::move(mutant));
    }
    mutants.emplace_back(clean.begin(), clean.begin() + static_cast<std::ptrdiff_t>(begin));
  }
  // An index entry is first_node, node_count (u32), first_edge, edge_count,
  // payload_offset (u64): block 1's payload_offset sits 32 + 24 bytes in.
  std::vector<char> wrapping_offset = clean;  // wrapped ReadAt's bound; mapped reads segfaulted
  Poke<uint64_t>(wrapping_offset, index_at + 32 + 24, ~uint64_t{0} - 7);
  mutants.push_back(wrapping_offset);
  std::vector<char> bad_id = clean;  // was accepted by ReadBlock
  Poke<uint32_t>(bad_id, reference.block(0).payload_offset, 0xFFFFFF00u);
  mutants.push_back(bad_id);
  std::vector<char> huge_nodes = clean;  // sized row_ptr at 32 GiB
  Poke<uint32_t>(huge_nodes, 8, 0xFFFFFFF0u);
  mutants.push_back(huge_nodes);

  const std::string path = BlockFilePath("mutation");
  size_t rejected = 0;
  for (size_t m = 0; m < mutants.size(); ++m) {
    WriteFileBytes(path, mutants[m]);
    for (bool map : {false, true}) {
      size_t out_of_range = 0;
      std::string unexpected;
      alloc_refused = 0;
      // The file's size, plus room for error strings on the tiniest mutants.
      alloc_ceiling = mutants[m].size() + 4096;
      try {
        BlockStore store = BlockStore::Open(path, map);
        BlockData data;
        for (size_t b = 0; b < store.num_blocks(); ++b) {
          store.ReadBlock(b, data);
          out_of_range += static_cast<size_t>(
              std::count_if(data.adjacency.begin(), data.adjacency.end(),
                            [&store](NodeId id) { return id >= store.num_nodes(); }));
        }
      } catch (const std::runtime_error&) {
        ++rejected;
      } catch (const std::exception& e) {
        unexpected = e.what();
      }
      alloc_ceiling = 0;
      EXPECT_EQ(out_of_range, 0u) << "mutant " << m << " map=" << map;
      EXPECT_EQ(unexpected, "") << "mutant " << m << " map=" << map
                                << ": largest refused allocation " << alloc_refused
                                << " bytes for a " << mutants[m].size() << "-byte file";
    }
  }
  EXPECT_GT(rejected, 0u);
  std::remove(path.c_str());
}

// ---------------------------------------------------------- graph cache --

TEST(GraphCache, EvictsLeastRecentlyUsedAndCounts) {
  Graph g = TestGraph(400, 5.0, 21);
  const std::string path = BlockFilePath("cache");
  size_t blocks = PartitionToBlockFile(g, path, kMinBlockBytes);
  ASSERT_GE(blocks, 4u);
  BlockStore store = BlockStore::Open(path);
  GraphCache cache(&store, 2);

  const Graph& b0 = cache.Touch(0);
  EXPECT_EQ(b0.num_nodes(), g.num_nodes());  // views share the global node space
  EXPECT_TRUE(cache.IsResident(0));
  cache.Touch(1);
  EXPECT_EQ(cache.stats().loads, 2u);
  EXPECT_EQ(cache.stats().evictions, 0u);
  // Touching a resident block is a hit, not a load, and makes it the most
  // recently used: the next miss evicts block 1, not block 0.
  cache.Touch(0);
  EXPECT_EQ(cache.stats().loads, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  cache.Touch(2);
  EXPECT_TRUE(cache.IsResident(0));
  EXPECT_FALSE(cache.IsResident(1));
  EXPECT_TRUE(cache.IsResident(2));
  // Block 0 is now the least recently used.
  cache.Touch(3);
  EXPECT_FALSE(cache.IsResident(0));
  EXPECT_TRUE(cache.IsResident(2));
  EXPECT_TRUE(cache.IsResident(3));
  EXPECT_EQ(cache.stats().loads, 4u);
  EXPECT_EQ(cache.stats().evictions, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
  uint64_t payload = 0;
  for (uint32_t b = 0; b < 4; ++b) {
    payload += store.BlockPayloadBytes(b);
  }
  EXPECT_EQ(cache.stats().bytes_read, payload);
  std::remove(path.c_str());
}

// ------------------------------------------------------ block scheduler --

TEST(BlockScheduler, PicksByPendingPerByteAmongNonResidentBlocks) {
  // Hub 0's 600-edge row is a block of its own; the leaves' one-edge rows
  // fill blocks of 256 nodes (1 KiB), the last one short.
  Graph g = GenerateStar(600);
  const std::string path = BlockFilePath("pick");
  ASSERT_EQ(PartitionToBlockFile(g, path, kMinBlockBytes), 4u);
  BlockStore store = BlockStore::Open(path);
  ASSERT_GT(store.BlockPayloadBytes(0), 2 * store.BlockPayloadBytes(1));
  ASSERT_EQ(store.BlockPayloadBytes(1), store.BlockPayloadBytes(2));
  GraphCache cache(&store, 1);
  BlockScheduler scheduler(&store, &cache);

  // A small block beats a marginally-more-pending large one.
  EXPECT_EQ(scheduler.PickNext(std::vector<uint64_t>{11, 10, 0, 0}), 1u);
  // Ties go to the lowest id.
  EXPECT_EQ(scheduler.PickNext(std::vector<uint64_t>{0, 5, 5, 0}), 1u);
  // A resident block is never picked, however much work it holds.
  cache.Touch(1);
  EXPECT_EQ(scheduler.PickNext(std::vector<uint64_t>{0, 1000, 1, 0}), 2u);
  EXPECT_EQ(scheduler.PickNext(std::vector<uint64_t>{0, 1000, 0, 0}), std::nullopt);
  std::remove(path.c_str());
}

// ------------------------------------------------- out-of-core execution --

// The acceptance matrix: out-of-core paths bit-identical to the in-memory
// engine for every cache budget (thrashing single block through
// all-resident), thread count, and wavefront width.
TEST(OutOfCore, MatchesInMemoryAcrossCacheThreadsAndWavefront) {
  Graph g = TestGraph();
  const std::string path = BlockFilePath("parity");
  size_t blocks = PartitionToBlockFile(g, path, 2048);
  ASSERT_GE(blocks, 4u) << "cache=1 must be well under 1/4 of the blocks";
  BlockStore store = BlockStore::Open(path);
  std::vector<NodeId> starts = AllStarts(g);
  DeepWalk walk(12);

  FlexiWalkerOptions base;
  base.edge_cost_ratio = 4.0;  // a given ratio other than the default
  WalkResult reference = FlexiWalkerEngine(base).Run(g, walk, starts, uint64_t{4242});

  for (uint32_t cache_blocks : {1u, 2u, static_cast<uint32_t>(blocks)}) {
    for (unsigned threads : {1u, 2u, 8u}) {
      for (uint32_t wavefront : {1u, 8u}) {
        FlexiWalkerOptions options = base;
        options.host_threads = threads;
        options.wavefront = wavefront;
        OutOfCoreStats stats;
        WalkResult ooc = RunFlexiWalkerOutOfCore(store, walk, options, cache_blocks, starts,
                                                 uint64_t{4242}, &stats);
        ASSERT_EQ(ooc.paths, reference.paths)
            << "cache=" << cache_blocks << " threads=" << threads
            << " wavefront=" << wavefront;
        EXPECT_GE(stats.block_loads, 1u);
        if (cache_blocks == blocks) {
          // Every block fits: one round, and no walk ever parks.
          EXPECT_EQ(stats.parks, 0u);
          EXPECT_EQ(stats.block_activations, 1u);
        }
      }
    }
  }
  std::remove(path.c_str());
}

// Both tiers default to the host's EdgeCost ratio, so an out-of-core run
// needs no pinned ratio to reproduce the in-memory engine's paths and
// eRJS/eRVS choices.
TEST(OutOfCore, DefaultOptionsMatchInMemoryDefaults) {
  Graph g = TestGraph();
  const std::string path = BlockFilePath("defaults");
  size_t blocks = PartitionToBlockFile(g, path, 2048);
  ASSERT_GE(blocks, 4u);
  BlockStore store = BlockStore::Open(path);
  std::vector<NodeId> starts = AllStarts(g);
  DeepWalk walk(12);

  WalkResult reference = FlexiWalkerEngine().Run(g, walk, starts, uint64_t{4242});
  for (uint32_t cache_blocks : {1u, 4u, static_cast<uint32_t>(blocks)}) {
    WalkResult ooc = RunFlexiWalkerOutOfCore(store, walk, FlexiWalkerOptions(), cache_blocks,
                                             starts, uint64_t{4242});
    EXPECT_EQ(ooc.paths, reference.paths) << "cache=" << cache_blocks;
    EXPECT_EQ(ooc.selection.chose_rjs, reference.selection.chose_rjs) << "cache=" << cache_blocks;
    EXPECT_EQ(ooc.selection.chose_rvs, reference.selection.chose_rvs) << "cache=" << cache_blocks;
  }
  std::remove(path.c_str());
}

// An unset ratio asks for profiling, which samples the whole graph: the
// out-of-core tier refuses it and says why.
TEST(OutOfCore, ProfiledRatioIsRefused) {
  Graph g = TestGraph(200, 4.0, 43);
  const std::string path = BlockFilePath("profiled");
  PartitionToBlockFile(g, path, 2048);
  BlockStore store = BlockStore::Open(path);
  std::vector<NodeId> starts = AllStarts(g);
  DeepWalk walk(8);

  FlexiWalkerOptions profiled;
  profiled.edge_cost_ratio = std::nullopt;
  try {
    RunFlexiWalkerOutOfCore(store, walk, profiled, 2, starts, 1);
    ADD_FAILURE() << "an unset edge_cost_ratio must be refused out of core";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("profiling"), std::string::npos) << e.what();
  }
  std::remove(path.c_str());
}

TEST(OutOfCore, PprTeleportsAcrossBlockBoundaries) {
  // PPR restarts teleport the walker to its start node mid-walk — a park
  // decision that must be taken on the post-update position. Parity across
  // a thrashing cache proves the RNG order survives every re-park.
  Graph g = TestGraph(400, 5.0, 29);
  const std::string path = BlockFilePath("ppr");
  size_t blocks = PartitionToBlockFile(g, path, 2048);
  ASSERT_GE(blocks, 4u);
  BlockStore store = BlockStore::Open(path);
  std::vector<NodeId> starts = AllStarts(g);
  PersonalizedPageRankWalk walk(0.25, 16);

  FlexiWalkerOptions options;
  options.edge_cost_ratio = 4.0;
  WalkResult reference = FlexiWalkerEngine(options).Run(g, walk, starts, 777);
  OutOfCoreStats stats;
  WalkResult ooc = RunFlexiWalkerOutOfCore(store, walk, options, 1, starts, 777, &stats);
  EXPECT_EQ(ooc.paths, reference.paths);
  // cache=1 with several blocks must thrash: more loads than blocks.
  EXPECT_GT(stats.block_loads, static_cast<uint64_t>(blocks));
  EXPECT_GT(stats.block_evictions, 0u);
  EXPECT_GT(stats.parks, 0u);
  std::remove(path.c_str());
}

TEST(OutOfCore, SecondOrderWorkloadIsRejected) {
  Graph g = TestGraph(200, 4.0, 31);
  const std::string path = BlockFilePath("reject");
  PartitionToBlockFile(g, path, 2048);
  BlockStore store = BlockStore::Open(path);
  std::vector<NodeId> starts = AllStarts(g);
  Node2VecWalk walk(2.0, 0.5, 8);  // prev-node terms: not first-order
  FlexiWalkerOptions options;
  options.edge_cost_ratio = 4.0;
  EXPECT_THROW(RunFlexiWalkerOutOfCore(store, walk, options, 2, starts, 1),
               std::invalid_argument);
  std::remove(path.c_str());
}

TEST(OutOfCore, ResidentOnlyOptionsAreRejected) {
  Graph g = TestGraph(200, 4.0, 37);
  const std::string path = BlockFilePath("options");
  PartitionToBlockFile(g, path, 2048);
  BlockStore store = BlockStore::Open(path);
  std::vector<NodeId> starts = AllStarts(g);
  DeepWalk walk(8);

  FlexiWalkerOptions int8;
  int8.edge_cost_ratio = 4.0;
  int8.use_int8_weights = true;  // O(edges) resident store
  EXPECT_THROW(RunFlexiWalkerOutOfCore(store, walk, int8, 2, starts, 1),
               std::invalid_argument);

  FlexiWalkerOptions cached;
  cached.edge_cost_ratio = 4.0;
  cached.cache_static_tables = true;  // O(edges) resident alias tables
  EXPECT_THROW(RunFlexiWalkerOutOfCore(store, walk, cached, 2, starts, 1),
               std::invalid_argument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace flexi
