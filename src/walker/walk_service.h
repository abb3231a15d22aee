// Streaming front-end over the WalkScheduler: walk batch after batch
// instead of one-shot Run() calls (the ROADMAP serving item).
//
// ClaimQueryIds(n) hands out the next n *global* query ids from a monotonic
// cursor, and RunClaimed walks a batch under ids it claimed on the calling
// thread, which joins the persistent WorkerPool as one of the batch's
// workers. The service owns no threads: the network server's
// BatchCoalescer runs up to pipeline_depth batches at once from its own
// runner threads, and Submit is claim-and-run in one call for in-process
// users. Because every query's randomness is a Philox subsequence keyed by
// its global id — PhiloxStream(seed, query_id) — results are bit-identical
// regardless of which thread runs a batch, how many run at once, or the
// worker count: claiming A and B and running them concurrently yields the
// same paths as running A, then B. The full determinism contract, batch
// format, and CLI usage live in docs/SERVING.md; walk_service_test.cc
// enforces the contract.
#ifndef FLEXIWALKER_SRC_WALKER_WALK_SERVICE_H_
#define FLEXIWALKER_SRC_WALKER_WALK_SERVICE_H_

#include <atomic>
#include <future>
#include <memory>
#include <mutex>
#include <span>

#include "src/walker/flexiwalker_engine.h"
#include "src/walker/scheduler.h"

namespace flexi {

// One submitted unit of serving work: a set of start nodes walked under the
// service's (graph, workload, seed). Queries get one path row each, in
// `starts` order.
struct WalkBatch {
  std::vector<NodeId> starts;
};

struct BatchResult {
  WalkResult walk;
  // Global id of starts[0]; the batch occupies [first_query_id,
  // first_query_id + walk.num_queries). Replaying query q standalone —
  // PhiloxStream(seed, first_query_id + q) — reproduces its path exactly.
  uint64_t first_query_id = 0;
  uint64_t batch_index = 0;  // claim order, 0-based
};

class WalkService {
 public:
  struct Options {
    SchedulerOptions scheduler;
    uint64_t seed = 0;
    // Batches that may walk on the WorkerPool at once: the BatchCoalescer
    // serving this service runs one batch runner thread per slot, so small
    // coalesced batches overlap instead of queueing behind each other.
    // Paths are unaffected — global ids are fixed at claim time, so
    // pipelining moves execution, never randomness (docs/SERVING.md).
    unsigned pipeline_depth = 1;
  };

  // A contiguous run of global query ids: the claimed batch occupies
  // [first, first + count) and was the batch_index-th claim.
  struct QueryIds {
    uint64_t first = 0;
    uint64_t batch_index = 0;
  };

  // `make_step` builds each scheduler worker's kernel, exactly as in
  // WalkScheduler::RunWithWorkers; it must tolerate every worker index below
  // the resolved thread count for the service's lifetime. `kernel_state`
  // optionally pins shared ownership of whatever the factory captures (for
  // FlexiWalker, the FlexiPreparation); per-(batch, worker) state rides in
  // each returned WorkerKernel's own keepalive.
  WalkService(const Graph& graph, const WalkLogic& logic, Options options,
              WorkerStepFactory make_step, std::shared_ptr<void> kernel_state = nullptr);

  // Convenience: one step kernel shared by all workers.
  WalkService(const Graph& graph, const WalkLogic& logic, Options options, StepKernel step);

  WalkService(const WalkService&) = delete;
  WalkService& operator=(const WalkService&) = delete;

  // Claims the next `count` global query ids. Claim order fixes every
  // query's Philox subsequence, so a caller that needs arrival order to
  // decide ids (the BatchCoalescer) claims under its own ordering lock.
  QueryIds ClaimQueryIds(size_t count);

  // Walks `starts` under ids claimed by ClaimQueryIds(starts.size()), on the
  // calling thread. With an empty `out` the rows land in the result's
  // walk.paths. Otherwise they are written straight into `out` — caller-owned
  // arena storage with stride == path_stride() and at least starts.size()
  // rows — and walk.paths stays empty: the zero-copy serving path, where
  // the BatchCoalescer's rows go into response frames or a per-batch
  // PathArena. A mismatched arena throws std::invalid_argument before any
  // walk starts.
  //
  // `cancel_at_us` (obs::NowMicros() timebase; 0 = never) arms mid-run
  // cancellation: the scheduler stops claiming and advancing walks at the
  // first pass boundary at or past it (SchedulerOptions::cancel_at_us), and
  // the rows of abandoned walks are left incomplete. The ids stay consumed
  // either way, so a cancelled batch never shifts a later batch's Philox
  // subsequences.
  BatchResult RunClaimed(QueryIds ids, std::span<const NodeId> starts, PathArenaView out = {},
                         uint64_t cancel_at_us = 0);

  // ClaimQueryIds + RunClaimed on the calling thread. The returned future
  // is already ready; it stays a future for in-process callers that fan
  // several batches out before reading any.
  std::future<BatchResult> Submit(WalkBatch batch);

  // Worker threads each batch fans out over (resolved at construction).
  unsigned num_threads() const { return num_threads_; }

  // Nodes per path row every served batch produces (walk length + 1) — the
  // row pitch a caller sizing a RunClaimed arena must use.
  uint32_t path_stride() const { return logic_.walk_length() + 1; }

  // Pipeline depth resolved at construction (>= 1).
  unsigned pipeline_depth() const { return pipeline_depth_; }

  uint64_t queries_submitted() const;
  uint64_t batches_completed() const { return batches_completed_.load(); }

 private:
  const Graph& graph_;
  const WalkLogic& logic_;
  Options options_;
  WorkerStepFactory make_step_;
  std::shared_ptr<void> kernel_state_;
  unsigned num_threads_;
  unsigned pipeline_depth_ = 1;  // resolved (clamped) at construction

  mutable std::mutex claim_mutex_;
  uint64_t next_query_id_ = 0;  // guarded by claim_mutex_: the global id cursor
  uint64_t next_batch_index_ = 0;
  std::atomic<uint64_t> batches_completed_{0};
};

// Builds a serving FlexiWalker: runs PrepareFlexiWalker once — helper
// generation (§4.2), EdgeCost profiling (§5.1), preprocessing reductions,
// optional INT8 quantization, the cached static-walk alias tables when
// options.cache_static_tables applies, and the optional compiled kernel —
// then serves every batch through MakeFlexiWorkerFactory, the same kernel
// choice the one-shot engine makes. The factory runs per (batch, worker),
// so pipelined batches share no mutable state, a --jit auto kernel swaps
// in at the first batch after it compiles, and every batch's
// walk.selection reports its own eRJS/eRVS tally. A single batch submitted
// first thing reproduces FlexiWalkerEngine::Run's paths, cost and
// selection bit-for-bit (same seed, same starts, same options).
// `pipeline_depth` > 1 lets that many batches overlap on the pool.
std::unique_ptr<WalkService> MakeFlexiWalkerService(const Graph& graph, const WalkLogic& logic,
                                                    FlexiWalkerOptions options, uint64_t seed,
                                                    unsigned pipeline_depth = 1);

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_WALKER_WALK_SERVICE_H_
