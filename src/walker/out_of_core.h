// Out-of-core walk execution: run walks over a block-partitioned graph
// (block_store.h) whose edges do not fit in memory.
//
// The design follows the block-cache + walk-parking architecture of
// out-of-core walk systems: a bounded GraphCache holds N resident edge
// blocks, and every not-currently-executing walk is *parked* in the buffer
// of the block holding its current node's row. The driver runs in rounds:
// it loads the BlockScheduler's pick — by pending walks per payload byte —
// and more picks while the cache has a free slot, then steps the pending
// walks of every resident block in one pool job through WalkScheduler's
// worker loop (RunOutOfCoreRound). A walk follows its path across resident
// blocks and parks only at a non-resident one; a finished walk retires.
//
// Kernel choice is not made here: RunFlexiWalkerOutOfCore runs
// MakeFlexiWorkerFactory (flexiwalker_engine.h), the factory the in-memory
// engine and the WalkService use, building each worker's kernel once per
// run and folding the workers' tallies and costs in worker order.
//
// Eligibility: first-order workloads only (IsFirstOrderProgram) — a step at
// node v may read only v's row, so block residency of v is sufficient.
// Second-order workloads (Node2Vec, 2nd-order PageRank) probe the previous
// node's adjacency and are rejected.
//
// Determinism contract (identical to scheduler.h): a walk's randomness is
// PhiloxStream(seed, query_id), consumed strictly in step order. A parked
// walk records its stream offset and the stream is reconstructed there on
// resume — seek-then-read is bit-identical to sequential consumption
// (philox.h) — so park/resume interleaving, cache size, block size, thread
// count, wavefront width, and steal schedule can never change a path:
// out-of-core paths are bit-identical to the in-memory engine's
// (outofcore_test.cc, OutOfCore.MatchesInMemory*).
#ifndef FLEXIWALKER_SRC_WALKER_OUT_OF_CORE_H_
#define FLEXIWALKER_SRC_WALKER_OUT_OF_CORE_H_

#include <cstdint>
#include <optional>
#include <span>

#include "src/graph/block_store.h"
#include "src/graph/graph_cache.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walker/scheduler.h"

namespace flexi {

struct OutOfCoreStats {
  uint64_t block_loads = 0;        // disk reads (GraphCache misses)
  uint64_t block_evictions = 0;
  uint64_t cache_hits = 0;
  uint64_t bytes_read = 0;         // payload bytes loaded from disk
  uint64_t parks = 0;              // walks parked at a non-resident block
  uint64_t block_activations = 0;  // rounds (one if every block fits)
};

// Picks the next block to load. Policy: among non-resident blocks with
// parked walks, the best pending-walks-per-payload-byte ratio, so a
// nearly-free small block beats a marginally-more-pending huge one. Ties
// break toward the lowest block id — the policy is deterministic, though
// paths never depend on it. A resident block is never picked: a round
// steps every resident block's walks without a load.
class BlockScheduler {
 public:
  BlockScheduler(const BlockStore* store, const GraphCache* cache)
      : store_(store), cache_(cache) {}

  // `pending[b]` = parked walks on block b. Returns the chosen block id, or
  // nullopt when no non-resident block has pending walks.
  std::optional<uint32_t> PickNext(std::span<const uint64_t> pending) const;

 private:
  const BlockStore* store_;
  const GraphCache* cache_;
};

// Streamed h_MAX / h_SUM preprocessing: one pass over the blocks through
// `cache`, reducing each node's row with RunPreprocess's ReduceRow — the
// arrays are bit-identical to the in-memory preprocess, which the
// out-of-core parity guarantee depends on (bound estimators read them).
PreprocessedData PreprocessOutOfCore(const BlockStore& store, GraphCache& cache,
                                     const PreprocessPlan& plan, DeviceContext& device);

// FlexiWalker over a block store: the out-of-core counterpart of
// FlexiWalkerEngine::Run. `cache_blocks` is the resident-block budget
// (GraphCache capacity), so the run's edge-array memory is bounded by
// cache_blocks * block payload bytes. Each requirement below throws
// std::invalid_argument when violated:
//   * `logic` must be first-order (IsFirstOrderProgram).
//   * options.edge_cost_ratio must not be std::nullopt, which asks for
//     profiling: profiling samples the whole graph, which is exactly what
//     out-of-core execution cannot assume is loadable. The default,
//     kHostEdgeCostRatio, is the in-memory engine's default too.
//   * use_int8_weights and cache_static_tables are rejected: both build
//     O(edges) resident structures, defeating the memory bound.
// The options' threads and wavefront (0 = auto by the *full* graph's
// payload) shape execution only; each round's walks are claimed as every
// scheduler run claims queries (query_queue.h). With the same seed, starts
// and options, paths are bit-identical to FlexiWalkerEngine::Run on the
// unpartitioned graph.
WalkResult RunFlexiWalkerOutOfCore(const BlockStore& store, const WalkLogic& logic,
                                   const FlexiWalkerOptions& options, uint32_t cache_blocks,
                                   std::span<const NodeId> starts, uint64_t seed,
                                   OutOfCoreStats* stats = nullptr);

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_WALKER_OUT_OF_CORE_H_
