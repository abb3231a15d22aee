// Request-batch coalescing with backpressure for the serving front-end.
//
// Network clients send small requests (often a single start node); the
// WalkService is happiest with scheduler-sized batches. The BatchCoalescer
// sits between them: TryEnqueue() admits a request into the pending window,
// and batch runners — one thread per service pipeline slot
// (WalkService::pipeline_depth()) — turn windows into batches. The runner
// holding the open window takes it when it fills (max_batch_queries) or its
// deadline expires (max_delay_ms after the first pending arrival), claims
// the batch's global query ids, walks it on its own thread through
// WalkService::RunClaimed, then carves the rows back into per-request
// results and invokes the request callbacks with their own path rows and
// service-global first query id. One runner holds the window at a time;
// the others are walking earlier batches or waiting for the next window.
//
// Ordering and determinism: requests join the merged batch in admission
// order, and a runner claims its batch's ids under the same lock that takes
// the window, so the mapping from arrival order to global query ids is
// exactly the mapping a client would get submitting the same requests
// directly — for any number of runners, coalescing (any window, any flush
// carving) cannot change a single path (docs/SERVING.md).
//
// Backpressure: admission is bounded by max_outstanding_queries, counting
// pending *and* in-flight queries — the window cannot hide a service that
// has fallen behind. Admission never waits. On overflow it either answers
// kWouldBlock (kBlock: nothing is dropped; the WalkServer parks the request
// and stops reading that connection until a batch completion frees space,
// so TCP flow control carries the stall) or rejects (kReject: the server
// answers kOverloaded and the client decides). A request larger than the
// whole bound is admitted only when the coalescer is idle, so it can never
// deadlock.
#ifndef FLEXIWALKER_SRC_NET_BATCH_COALESCER_H_
#define FLEXIWALKER_SRC_NET_BATCH_COALESCER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "src/obs/metrics.h"
#include "src/walker/path_arena.h"
#include "src/walker/walk_service.h"

namespace flexi {

class BatchCoalescer {
 public:
  enum class OverflowPolicy {
    kBlock,   // TryEnqueue answers kWouldBlock; the server parks the request
    kReject,  // TryEnqueue answers kRejected; the server answers kOverloaded
  };

  struct Options {
    // Flush as soon as this many queries are pending, regardless of the
    // window. Sized to keep one batch within a few scheduler quanta.
    size_t max_batch_queries = 512;
    // Coalesce window: how long after the first pending arrival the runner
    // holding it waits for more requests before flushing. <= 0 disables coalescing
    // entirely — every admitted request becomes its own service batch, in
    // admission order (the baseline bench_net_serving compares against).
    double max_delay_ms = 0.2;
    // Adaptive coalesce window (ROADMAP serving item): track an EWMA of
    // request inter-arrival gaps and, when a window opens after the queue
    // has been idle longer than the window — and the EWMA agrees traffic is
    // sparse — flush immediately instead of holding the window open.
    // Sparse traffic then pays walk latency, not max_delay_ms; dense
    // traffic (bursts, sustained load) quickly drags the EWMA under the
    // window and keeps full coalescing. The first request of a burst after
    // an idle period flushes alone; everything behind it coalesces. Off by
    // default so fixed-window behavior is exact; the CLI serving mode turns
    // it on (--adaptive-window).
    bool adaptive_window = false;
    // Admission bound: pending + in-flight queries. Beyond it, TryEnqueue
    // answers per `overflow`.
    size_t max_outstanding_queries = 1 << 16;
    OverflowPolicy overflow = OverflowPolicy::kBlock;
    // The workload="<label>" value on this coalescer's registry series
    // (obs/metrics.h). The WalkServer sets it to the workload's registered
    // name; standalone coalescers share the default series.
    std::string metrics_label = "default";
  };

  // Where an admitted request's path rows should be written. A request's
  // PlaceFn (optional TryEnqueue argument) is called once, on the runner
  // thread, just before its batch is walked: return `rows` pointing at
  // caller-owned storage of num_queries * path_stride NodeIds — contiguous,
  // sizeof(NodeId)-aligned, prefilled with kInvalidNode — and the
  // scheduler's workers write the request's rows straight there instead of
  // into a batch arena. The WalkServer places rows inside preallocated
  // response frames (wire.h BuildPlacedResponseFrame), which removes the
  // last arena -> frame copy from the serving path. `keepalive` pins the
  // storage; the coalescer holds it until the batch retires and the
  // RequestResult carries it beyond. Returning rows == nullptr declines
  // placement (the request falls back to the shared batch arena, e.g. on a
  // big-endian host where native stores are not wire order).
  struct Placement {
    NodeId* rows = nullptr;
    std::shared_ptr<const void> keepalive;
  };
  using PlaceFn = std::function<Placement(size_t num_queries, uint32_t path_stride)>;

  // One admitted request's slice of a finished batch. `paths` is a view of
  // the rows the scheduler's workers wrote — the request's Placement when
  // `placed`, otherwise the batch's shared fallback PathArena — never
  // copied, valid for as long as `keepalive` (held by this result, or any
  // copy of it) lives. A callback that needs the nodes past its own
  // lifetime copies the span; the WalkServer instead corks the placed frame
  // the rows already live in.
  struct RequestResult {
    uint64_t first_query_id = 0;  // global id of the request's first query
    uint32_t path_stride = 0;
    size_t num_queries = 0;
    bool placed = false;            // rows live in the request's Placement
    std::span<const NodeId> paths;  // num_queries rows of path_stride nodes
    std::shared_ptr<const void> keepalive;  // keeps `paths` alive
  };

  // Invoked exactly once per admitted request, from the runner thread that
  // walked its batch. Must not call back into TryEnqueue/Shutdown (it may,
  // however, write to sockets — the server's response path).
  using DoneFn = std::function<void(RequestResult)>;

  // Invoked — instead of DoneFn, never both — when the coalescer sheds an
  // admitted request whose deadline lapsed: at flush (dropped from the
  // batch before it is built) or mid-run (the whole batch was cancelled
  // because every member's deadline passed). Runs off the coalescer lock on
  // a runner thread; same reentrancy rules as DoneFn. The server's callback
  // answers the client kDeadlineExceeded.
  using ExpireFn = std::function<void()>;

  // A request's deadline, given at TryEnqueue. `at_us` is absolute
  // on the obs::NowMicros() timebase (the caller anchors the wire's
  // relative budget at decode); 0 = no deadline, never shed. `expired` may
  // be empty (shed silently).
  struct Deadline {
    uint64_t at_us = 0;
    ExpireFn expired;
  };

  // Optional, runs on the runner thread after every callback of one batch
  // has run. The WalkServer uses it to flush per-connection corked
  // response writes — a coalesced batch completing N requests on one
  // connection then costs one send() instead of N. It also frees admission
  // space, so the server unparks connections here. Set before the first
  // TryEnqueue.
  void SetBatchCompleteHook(std::function<void()> hook) { on_batch_complete_ = std::move(hook); }

  // Starts service.pipeline_depth() runner threads. The service must
  // outlive the coalescer — in-flight batches walk through it.
  BatchCoalescer(WalkService& service, Options options);
  ~BatchCoalescer();  // Shutdown()

  BatchCoalescer(const BatchCoalescer&) = delete;
  BatchCoalescer& operator=(const BatchCoalescer&) = delete;

  // Admits the request into the current window, or says why not:
  //  - kRejected: kReject policy with the bound exceeded, or the coalescer
  //    is shut down (callers answer kShuttingDown from their own state);
  //  - kWouldBlock: kBlock policy with the bound exceeded. Nothing was
  //    dropped: the caller parks the request and presents it again after a
  //    batch completes.
  // `done` (and `place`) run only for an admitted request. `place`
  // optionally scatters the request's rows into caller-owned storage (see
  // Placement); requests with and without placements coalesce into the same
  // batches. `deadline` optionally bounds the request's life: a member whose
  // deadline passes before its batch is built is dropped at flush (ExpireFn,
  // not DoneFn), and a flushed batch whose *every* member carries a deadline
  // is cancelled mid-run once the last of them lapses
  // (SchedulerOptions::cancel_at_us through WalkService::RunClaimed).
  //
  // The arguments are lvalue references so a parked retry is free: they are
  // moved from only on kAdmitted and left untouched otherwise — the caller
  // re-presents the very same request later without copying the starts.
  enum class AdmitStatus {
    kAdmitted,
    kRejected,     // kReject overflow, or shut down — answer the client now
    kWouldBlock,   // kBlock overflow — park and retry after a completion
  };
  AdmitStatus TryEnqueue(std::vector<NodeId>& starts, DoneFn& done, PlaceFn& place,
                         Deadline& deadline);
  AdmitStatus TryEnqueue(std::vector<NodeId>& starts, DoneFn& done, PlaceFn& place) {
    Deadline none;
    return TryEnqueue(starts, done, place, none);
  }

  // Pending + in-flight queries right now. Fault-injection tests assert
  // this drains to zero after torn connections — a dropped connection must
  // not leak its admitted slots.
  size_t outstanding_queries() const;

  // Stops admitting, flushes the pending window, waits for every in-flight
  // batch to complete and every callback to run, then joins the runners.
  // Idempotent.
  void Shutdown();

  uint64_t requests_admitted() const { return requests_admitted_.load(); }
  uint64_t requests_rejected() const { return requests_rejected_.load(); }
  uint64_t batches_flushed() const { return batches_flushed_.load(); }
  uint64_t queries_admitted() const { return queries_admitted_.load(); }

 private:
  struct PendingRequest {
    std::vector<NodeId> starts;
    DoneFn done;
    PlaceFn place;  // may be empty: rows fall back to the batch arena
    Deadline deadline;  // at_us == 0: no deadline
  };

  // One runner's life: wait for the window, hold it until it flushes,
  // take it, then walk and complete the batch — until shutdown leaves
  // nothing pending.
  void RunLoop();
  // Walks one taken window's survivors under their claimed ids and
  // completes them (DoneFn, or ExpireFn when the run outlived every
  // member's deadline); then releases their admission slots and fires the
  // batch-complete hook. Runs without mutex_.
  void RunBatch(std::vector<PendingRequest>& requests, WalkService::QueryIds ids, size_t queries);

  WalkService& service_;
  Options options_;
  std::function<void()> on_batch_complete_;  // may be empty

  mutable std::mutex mutex_;
  std::condition_variable cv_idle_;    // runners wait for a window nobody holds
  std::condition_variable cv_window_;  // the holder waits for its window to fill
  bool window_held_ = false;           // a runner holds the pending window
  std::vector<PendingRequest> pending_;
  size_t pending_queries_ = 0;
  size_t inflight_queries_ = 0;
  std::chrono::steady_clock::time_point window_opened_{};
  // Adaptive-window state (guarded by mutex_): when the last admission
  // happened, the inter-arrival EWMA, and whether the currently open window
  // was opened by a sparse arrival (flush it immediately).
  std::chrono::steady_clock::time_point last_arrival_{};
  bool have_last_arrival_ = false;
  // Starts at infinity — a queue that has never seen traffic reads as
  // idle-forever, so the first request is never window-delayed.
  double ewma_gap_ms_ = std::numeric_limits<double>::infinity();
  bool window_sparse_ = false;
  bool shutdown_ = false;

  std::atomic<uint64_t> requests_admitted_{0};
  std::atomic<uint64_t> requests_rejected_{0};
  std::atomic<uint64_t> batches_flushed_{0};
  std::atomic<uint64_t> queries_admitted_{0};

  // Registry handles, resolved once in the constructor against
  // Options::metrics_label (coalescers with the same label share series).
  obs::Counter* m_admitted_ = nullptr;
  obs::Counter* m_rejected_ = nullptr;
  obs::Counter* m_would_block_ = nullptr;
  obs::Histogram* m_batch_queries_ = nullptr;
  obs::Gauge* m_outstanding_ = nullptr;
  // Deadline shedding series (global — the stage label is the split that
  // matters; workload attribution rides on the per-workload reject/admit
  // series): requests shed at flush, requests shed mid-run, and batches
  // cancelled mid-run.
  obs::Counter* m_expired_flush_ = nullptr;
  obs::Counter* m_expired_run_ = nullptr;
  obs::Counter* m_batches_cancelled_ = nullptr;

  std::vector<std::thread> runners_;  // one per service pipeline slot
};

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_NET_BATCH_COALESCER_H_
