// GraphCache: the bounded set of resident edge blocks behind out-of-core
// walk execution.
//
// The cache owns `capacity` slots, each holding one loaded block's edge
// arrays (BlockData) plus the non-owning Graph view over them. Touch(bid)
// returns the view and marks the block most recently used, loading it —
// into the least-recently-used slot, evicting that slot's block — when it
// is not resident. A view stays valid until a Touch loads another block
// into its slot. Slot buffers are reused across loads, so steady-state
// residency costs capacity * block payload bytes with no allocation churn —
// the bound the out-of-core bench's peak-RSS numbers hold against.
//
// Not thread-safe: the out-of-core driver (out_of_core.cc) and
// PreprocessOutOfCore are its callers, one after the other, and the driver
// calls it only between rounds. It loads blocks there, and touches every
// block a round's walks stepped on, so eviction follows use. During a round
// the workers step against the resident views (workers share the const
// views) while nothing calls the cache, so no view is evicted under them.
#ifndef FLEXIWALKER_SRC_GRAPH_GRAPH_CACHE_H_
#define FLEXIWALKER_SRC_GRAPH_GRAPH_CACHE_H_

#include <cstdint>
#include <vector>

#include "src/graph/block_store.h"
#include "src/graph/graph.h"

namespace flexi {

class GraphCache {
 public:
  struct Stats {
    uint64_t loads = 0;       // blocks read from disk
    uint64_t hits = 0;        // touches served from a resident slot
    uint64_t evictions = 0;   // resident blocks displaced
    uint64_t bytes_read = 0;  // payload bytes loaded
  };

  // `store` must outlive the cache. capacity_blocks is clamped to >= 1.
  GraphCache(const BlockStore* store, uint32_t capacity_blocks);

  // Returns the resident view of block `bid` and marks it most recently
  // used; on a miss, first loads it into the least-recently-used slot.
  const Graph& Touch(uint32_t bid);

  bool IsResident(uint32_t bid) const { return SlotOf(bid) >= 0; }
  uint32_t capacity() const { return static_cast<uint32_t>(slots_.size()); }
  const Stats& stats() const { return stats_; }

 private:
  struct Slot {
    static constexpr uint32_t kEmpty = static_cast<uint32_t>(-1);
    uint32_t bid = kEmpty;
    uint64_t last_use = 0;
    BlockData data;
    Graph view;
  };

  int SlotOf(uint32_t bid) const;

  const BlockStore* store_;
  std::vector<Slot> slots_;
  uint64_t use_clock_ = 0;
  Stats stats_;
};

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_GRAPH_GRAPH_CACHE_H_
