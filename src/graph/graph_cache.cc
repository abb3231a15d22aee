#include "src/graph/graph_cache.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "src/obs/metrics.h"

namespace flexi {
namespace {

// Registry mirror of GraphCache::Stats (obs/metrics.h): the per-run struct
// stays the authoritative single-threaded count; these series make the cache
// visible in any live scrape (--stats, --metrics-out) alongside the serving
// metrics. Every GraphCache in the process folds into the same series.
struct CacheMetrics {
  obs::Counter& loads;
  obs::Counter& hits;
  obs::Counter& evictions;
  obs::Counter& bytes_read;

  static CacheMetrics& Get() {
    static CacheMetrics* metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return new CacheMetrics{
          registry.GetCounter("flexi_graph_cache_loads_total"),
          registry.GetCounter("flexi_graph_cache_hits_total"),
          registry.GetCounter("flexi_graph_cache_evictions_total"),
          registry.GetCounter("flexi_graph_cache_bytes_read_total"),
      };
    }();
    return *metrics;
  }
};

}  // namespace

GraphCache::GraphCache(const BlockStore* store, uint32_t capacity_blocks) : store_(store) {
  uint32_t capacity = std::max(1u, capacity_blocks);
  // Never hold more slots than the graph has blocks — the spare slots would
  // just sit empty while the RSS bound charges for them.
  if (store_->num_blocks() > 0) {
    capacity = std::min<uint64_t>(capacity, store_->num_blocks());
  }
  slots_.resize(capacity);
}

int GraphCache::SlotOf(uint32_t bid) const {
  for (size_t s = 0; s < slots_.size(); ++s) {
    if (slots_[s].bid == bid) {
      return static_cast<int>(s);
    }
  }
  return -1;
}

const Graph& GraphCache::Acquire(uint32_t bid) {
  int s = SlotOf(bid);
  if (s >= 0) {
    Slot& slot = slots_[s];
    ++slot.pins;
    slot.last_use = ++use_clock_;
    ++stats_.hits;
    CacheMetrics::Get().hits.Add(1);
    return slot.view;
  }
  // Miss: pick the least-recently-used unpinned slot (empty slots have
  // last_use 0, so they win first).
  int victim = -1;
  for (size_t i = 0; i < slots_.size(); ++i) {
    if (slots_[i].pins != 0) {
      continue;
    }
    if (victim < 0 || slots_[i].last_use < slots_[static_cast<size_t>(victim)].last_use) {
      victim = static_cast<int>(i);
    }
  }
  if (victim < 0) {
    throw std::runtime_error("GraphCache: all " + std::to_string(slots_.size()) +
                             " slots pinned; cannot load block " + std::to_string(bid));
  }
  Slot& slot = slots_[static_cast<size_t>(victim)];
  if (slot.bid != Slot::kEmpty) {
    ++stats_.evictions;
    CacheMetrics::Get().evictions.Add(1);
  }
  // Empty while loading: a read that throws (a corrupt block) must not
  // leave the old block's id on overwritten data.
  slot.bid = Slot::kEmpty;
  store_->ReadBlock(bid, slot.data);
  slot.view = store_->MakeBlockView(bid, slot.data);
  slot.bid = bid;
  slot.pins = 1;
  slot.last_use = ++use_clock_;
  ++stats_.loads;
  uint64_t payload_bytes = store_->BlockPayloadBytes(bid);
  stats_.bytes_read += payload_bytes;
  CacheMetrics& metrics = CacheMetrics::Get();
  metrics.loads.Add(1);
  metrics.bytes_read.Add(payload_bytes);
  return slot.view;
}

void GraphCache::Release(uint32_t bid) {
  int s = SlotOf(bid);
  if (s < 0 || slots_[static_cast<size_t>(s)].pins == 0) {
    throw std::logic_error("GraphCache: Release of an unpinned block");
  }
  --slots_[static_cast<size_t>(s)].pins;
}

}  // namespace flexi
