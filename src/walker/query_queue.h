// Dynamic query scheduling (§5.3): an immutable array of start nodes indexed
// by a global ticket counter; every processing unit (GPU lane in the
// simulation, host thread for CPU engines) fetches queries by advancing the
// counter. Exactly-once dispensation under concurrency is what the paper's
// design relies on — and what the tests hammer with real threads.
//
// Dispensation modes (SchedulerOptions picks; the default is chunked with
// stealing):
//
//   kPerQuery      the original design: one fetch_add on the global counter
//                  per query. Simple, but at high core counts the counter's
//                  cache line bounces between every worker on every query.
//   kChunked       workers claim contiguous ranges of K ids per global RMW
//                  and drain them from a private, cache-line-isolated
//                  cursor: the hot loop touches only worker-local state and
//                  the global atomic is hit O(total / K) times.
//   kChunkedSteal  kChunked plus bounded work-stealing: a worker whose own
//                  chunk drains after the global counter is exhausted takes
//                  the back half of a victim's remaining range, so one slow
//                  worker holding a large chunk can't serialize the tail.
//
// Determinism: a query's randomness and its path row are keyed by its global
// id alone (scheduler.h), so which worker dispenses an id — and in what
// order — cannot affect any walk. Paths are bit-identical across modes,
// chunk sizes, steal schedules, and thread counts; scheduler_test.cc proves
// it over the full matrix. The same modes drive both execution tiers: an
// in-memory run dispenses start nodes directly, and an out-of-core round
// (WalkScheduler::RunOutOfCoreRound) dispenses the parked walks of every
// resident block through the index-only constructor.
#ifndef FLEXIWALKER_SRC_WALKER_QUERY_QUEUE_H_
#define FLEXIWALKER_SRC_WALKER_QUERY_QUEUE_H_

#include <algorithm>
#include <atomic>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "src/graph/graph.h"

namespace flexi {

enum class DispenseMode : uint8_t {
  kPerQuery,      // one global fetch_add per query (the paper's literal design)
  kChunked,       // chunked claiming from the global counter
  kChunkedSteal,  // chunked claiming + bounded stealing between workers
};

// Hard ceiling on one claimed chunk. Bounds the tail imbalance a fixed chunk
// size can cause (without stealing, a worker can be left holding at most
// this many queries while the others idle).
inline constexpr uint32_t kMaxDispenseChunk = 1024;

struct DispenseOptions {
  DispenseMode mode = DispenseMode::kChunkedSteal;
  // Ids per global claim. 0 = adaptive: max(1, remaining / (workers * 8)),
  // so early claims are big (few global RMWs) and late claims shrink toward
  // 1 (tail balance). Any value is clamped to [1, kMaxDispenseChunk].
  uint32_t chunk_size = 0;
};

class QueryQueue {
 public:
  struct Query {
    uint64_t id;
    NodeId start;
  };

  // `workers` sizes the per-worker chunk cursors (ignored in kPerQuery
  // mode). The bare single-argument form keeps the original per-query
  // semantics so direct users of the queue see no behavior change; the
  // WalkScheduler passes its worker count and SchedulerOptions::dispense.
  explicit QueryQueue(std::span<const NodeId> starts, unsigned workers = 1,
                      DispenseOptions options = {DispenseMode::kPerQuery, 0})
      : starts_(starts.begin(), starts.end()), count_(starts.size()), options_(options) {
    Init(workers);
  }

  // Index-only queue: dispenses ids in [0, count) with Query::start left
  // kInvalidNode. Every mode and chunking/stealing behavior applies
  // unchanged — this is how an out-of-core round dispenses its parked
  // walks (the pending walks of every resident block), whose entries carry
  // their own state, so both execution tiers share one dispensation
  // subsystem (and the same DispenseOptions validation at the CLI).
  explicit QueryQueue(uint64_t count, unsigned workers = 1,
                      DispenseOptions options = {DispenseMode::kPerQuery, 0})
      : count_(count), options_(options) {
    Init(workers);
  }

  // Thread-safe: each call returns a distinct query until the queue drains.
  // `worker` selects the caller's chunk cursor. In the chunked modes each
  // worker index must have at most one concurrent caller (the scheduler
  // gives every pool worker its own index): the owner's pop is an
  // unconditional fetch_add on its cursor, sound only because nobody else
  // advances begin. kPerQuery mode has no such requirement.
  //
  // Memory-ordering contract: all atomics here are relaxed on purpose.
  // Exactly-once needs atomicity, not ordering. The global counter is a
  // single RMW. A cursor word packs (begin << 32 | end): only its owner
  // advances begin (fetch_add), only thieves shrink end (CAS), and a thief
  // always leaves at least one id, so the owner's check-then-add can never
  // run past end. A thief's stale compare can never succeed (no ABA):
  // a live word (begin < end) asserts that ids [begin, end) are all
  // undispensed, and since every id is dispensed exactly once, a live
  // word that was ever replaced can never recur — in this slot or any
  // other. (Note begin values are *not* monotonic per slot once stealing
  // moves ranges around; recurrence-freedom, not monotonicity, is the
  // invariant.) The start array is immutable after construction, and
  // whatever a worker writes under an id it drew (e.g. a path row) is
  // published to the draining thread by the scheduler's job-completion
  // handshake, which is a full happens-before edge.
  std::optional<Query> Next(unsigned worker = 0) {
    if (options_.mode == DispenseMode::kPerQuery) {
      uint64_t id = counter_.fetch_add(1, std::memory_order_relaxed);
      if (id >= count_) {
        return std::nullopt;
      }
      return Query{id, StartOf(id)};
    }
    unsigned w = worker < slot_count_ ? worker : worker % slot_count_;
    for (;;) {
      if (std::optional<uint64_t> id = PopFront(slots_[w])) {
        return Query{*id, StartOf(*id)};
      }
      if (RefillFromGlobal(w)) {
        continue;
      }
      if (options_.mode != DispenseMode::kChunkedSteal || !StealInto(w)) {
        return std::nullopt;
      }
    }
  }

  size_t size() const { return count_; }

  // Number of queries actually handed out of the global counter so far
  // (into workers' private cursors in the chunked modes), clamped to
  // size(). Safe for any user-facing progress or dispatch-count number:
  // never exceeds 100% even while racing claimants overshoot the raw ticket
  // counter on an empty queue.
  uint64_t dispensed() const {
    return std::min<uint64_t>(counter_.load(std::memory_order_relaxed), count_);
  }

  // Raw ticket counter (may transiently overshoot size() by the racing
  // claimants' chunk widths once the queue empties). Prefer dispensed() for
  // any reported dispatch count.
  uint64_t counter() const { return counter_.load(std::memory_order_relaxed); }

  // Successful range steals so far (kChunkedSteal only). A load-balance
  // observability number: paths never depend on it.
  uint64_t steals() const { return steals_.load(std::memory_order_relaxed); }

  // Global claims that refilled a worker cursor (chunked modes). The
  // contention the chunking exists to cut: per-query dispatch performs
  // size() global RMWs, chunked dispatch performs refills() ≈ size() / K.
  uint64_t refills() const { return refills_.load(std::memory_order_relaxed); }

 private:
  void Init(unsigned workers) {
    // The packed range cursors hold two 32-bit indices, and the owner's
    // unconditional overshoot pop bumps begin a little past end — so keep a
    // whole power of two of headroom rather than reason about the exact
    // wrap boundary: a queue at or past 2^31 ids (never seen in practice)
    // falls back to per-query mode, which has no packed words at all.
    if (count_ >= (uint64_t{1} << 31)) {
      options_.mode = DispenseMode::kPerQuery;
    }
    if (options_.mode != DispenseMode::kPerQuery) {
      slot_count_ = std::max(1u, workers);
      slots_ = std::make_unique<RangeSlot[]>(slot_count_);
    }
  }

  NodeId StartOf(uint64_t id) const { return starts_.empty() ? kInvalidNode : starts_[id]; }

  // One worker's claimed-but-unexecuted id range, packed (begin << 32) | end
  // so pops, refills, and steals are single-word CAS transitions. Padded to
  // its own cache line — per-worker isolation is the entire point.
  struct alignas(64) RangeSlot {
    std::atomic<uint64_t> range{0};  // begin == end == 0: empty
  };

  static constexpr uint64_t Pack(uint64_t begin, uint64_t end) {
    return (begin << 32) | end;
  }
  static constexpr uint64_t Begin(uint64_t packed) { return packed >> 32; }
  static constexpr uint64_t End(uint64_t packed) { return packed & 0xFFFFFFFFull; }

  // Claims the front id of `slot`, or nullopt when the range is empty.
  // Owner-only (see Next): exactly one RMW per pop — the same per-ticket
  // cost as per-query mode, but on a line no other worker's hot loop
  // touches. The add is unconditional, so an empty slot overshoots to
  // begin == end + 1; that is harmless: the claimed id is discarded (it was
  // never in the range), thieves skip any begin >= end word, and the
  // owner's next refill overwrites the slot. Concurrent thieves can only
  // shrink end, and never below begin + 1 of the word they CASed, so a pop
  // that lands inside the range is always a uniquely owned id.
  std::optional<uint64_t> PopFront(RangeSlot& slot) {
    uint64_t packed = slot.range.fetch_add(uint64_t{1} << 32, std::memory_order_relaxed);
    if (Begin(packed) >= End(packed)) {
      return std::nullopt;
    }
    return Begin(packed);
  }

  // Claims the next chunk from the global counter into worker `w`'s cursor.
  // False when the counter is exhausted.
  bool RefillFromGlobal(unsigned w) {
    uint64_t total = count_;
    uint64_t seen = counter_.load(std::memory_order_relaxed);
    if (seen >= total) {
      return false;
    }
    uint64_t k = options_.chunk_size;
    if (k == 0) {
      k = std::max<uint64_t>(1, (total - seen) / (uint64_t{slot_count_} * 8));
    }
    k = std::clamp<uint64_t>(k, 1, kMaxDispenseChunk);
    uint64_t begin = counter_.fetch_add(k, std::memory_order_relaxed);
    if (begin >= total) {
      return false;
    }
    // Only the owner installs into its own slot, and it does so only after
    // observing the slot empty; a plain store is safe because any thief's
    // CAS still compares against the full word, and a stale expected value
    // can never match (see the no-ABA recurrence argument above).
    slots_[w].range.store(Pack(begin, std::min(begin + k, total)),
                          std::memory_order_relaxed);
    refills_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // One bounded sweep over the other cursors: take the back half of the
  // first victim with at least two remaining ids (a single remaining id is
  // cheaper to let the victim finish). The back half, so the victim's
  // front-pops and the thief's claim meet only in the CAS. False when the
  // sweep finds nothing — a range mid-claim (counter bumped, cursor not yet
  // written) is invisible and stays with its claimant, which is what keeps
  // stealing bounded instead of a spin.
  bool StealInto(unsigned w) {
    for (unsigned hop = 1; hop < slot_count_; ++hop) {
      RangeSlot& victim = slots_[(w + hop) % slot_count_];
      uint64_t packed = victim.range.load(std::memory_order_relaxed);
      for (;;) {
        uint64_t begin = Begin(packed), end = End(packed);
        uint64_t take = (end - begin) / 2;
        if (begin >= end || take == 0) {
          break;
        }
        if (victim.range.compare_exchange_weak(packed, Pack(begin, end - take),
                                               std::memory_order_relaxed)) {
          slots_[w].range.store(Pack(end - take, end), std::memory_order_relaxed);
          steals_.fetch_add(1, std::memory_order_relaxed);
          return true;
        }
      }
    }
    return false;
  }

  std::vector<NodeId> starts_;  // empty in the index-only form
  uint64_t count_ = 0;
  DispenseOptions options_;
  unsigned slot_count_ = 0;
  std::unique_ptr<RangeSlot[]> slots_;
  std::atomic<uint64_t> counter_{0};
  std::atomic<uint64_t> steals_{0};
  std::atomic<uint64_t> refills_{0};
};

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_WALKER_QUERY_QUEUE_H_
