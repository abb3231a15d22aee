#include "src/net/batch_coalescer.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "src/obs/trace.h"

namespace flexi {
namespace {

// flexi_coalescer_flushes_total{workload="<label>",reason="<reason>"} —
// labels are plain identifiers here, no escaping needed.
std::string FlushSeriesName(const std::string& label, const char* reason) {
  return std::string("flexi_coalescer_flushes_total{workload=\"") + label + "\",reason=\"" +
         reason + "\"}";
}

}  // namespace

BatchCoalescer::BatchCoalescer(WalkService& service, Options options)
    : service_(service), options_(std::move(options)) {
  auto& registry = obs::MetricsRegistry::Global();
  const std::string& label = options_.metrics_label;
  m_admitted_ = &registry.GetCounter(
      obs::WithLabel("flexi_coalescer_requests_admitted_total", "workload", label));
  m_rejected_ = &registry.GetCounter(
      obs::WithLabel("flexi_coalescer_requests_rejected_total", "workload", label));
  m_would_block_ = &registry.GetCounter(
      obs::WithLabel("flexi_coalescer_requests_would_block_total", "workload", label));
  m_batch_queries_ =
      &registry.GetHistogram(obs::WithLabel("flexi_coalescer_batch_queries", "workload", label));
  m_outstanding_ = &registry.GetGauge(
      obs::WithLabel("flexi_coalescer_outstanding_queries", "workload", label));
  m_expired_flush_ = &registry.GetCounter(
      obs::WithLabel("flexi_requests_deadline_exceeded_total", "stage", "flush"));
  m_expired_run_ = &registry.GetCounter(
      obs::WithLabel("flexi_requests_deadline_exceeded_total", "stage", "run"));
  m_batches_cancelled_ = &registry.GetCounter("flexi_batches_cancelled_total");
  for (unsigned r = 0; r < service_.pipeline_depth(); ++r) {
    runners_.emplace_back([this] { RunLoop(); });
  }
}

BatchCoalescer::~BatchCoalescer() { Shutdown(); }

size_t BatchCoalescer::outstanding_queries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pending_queries_ + inflight_queries_;
}

BatchCoalescer::AdmitStatus BatchCoalescer::TryEnqueue(std::vector<NodeId>& starts, DoneFn& done,
                                                       PlaceFn& place, Deadline& deadline) {
  size_t queries = starts.size();
  std::lock_guard<std::mutex> lock(mutex_);
  // Admission control. The idle special case (outstanding == 0) admits
  // requests larger than the whole bound — otherwise they could never run.
  size_t outstanding = pending_queries_ + inflight_queries_;
  bool has_space = outstanding == 0 || outstanding + queries <= options_.max_outstanding_queries;
  if (shutdown_ || (!has_space && options_.overflow == OverflowPolicy::kReject)) {
    requests_rejected_.fetch_add(1, std::memory_order_relaxed);
    m_rejected_->Add(1);
    return AdmitStatus::kRejected;
  }
  if (!has_space) {
    // Not a rejection: nothing was dropped, the caller will re-present
    // the same request after a batch completion frees space.
    m_would_block_->Add(1);
    return AdmitStatus::kWouldBlock;
  }
  auto now = std::chrono::steady_clock::now();
  if (options_.adaptive_window) {
    // One gap computation feeds both the sparse decision and the EWMA, so
    // the two can never disagree about the same arrival. A cold-start
    // queue (no prior arrival) counts as idle-forever.
    double gap_ms = have_last_arrival_
                        ? std::chrono::duration<double, std::milli>(now - last_arrival_).count()
                        : std::numeric_limits<double>::infinity();
    if (pending_.empty()) {
      // The satellite contract: a window opening after the queue sat idle
      // longer than the window flushes immediately — whatever the EWMA
      // remembers from before the idle period, nobody is coming inside
      // this window, so holding it open is pure latency.
      window_sparse_ = gap_ms > options_.max_delay_ms;
    }
    if (have_last_arrival_ && gap_ms <= options_.max_delay_ms) {
      // Half-weight EWMA over *intra-window* gaps only: idle-period gaps
      // are already handled by the sparse immediate flush above, and
      // blending them in would poison the dense-traffic estimate for many
      // windows after every idle stretch. The first real gap seeds the
      // estimate outright (blending with the cold-start infinity would
      // pin it there). The window's holder uses this to shrink its
      // deadline under dense traffic (see RunLoop).
      ewma_gap_ms_ = std::isinf(ewma_gap_ms_) ? gap_ms : 0.5 * gap_ms + 0.5 * ewma_gap_ms_;
    }
    have_last_arrival_ = true;
    last_arrival_ = now;
  } else if (pending_.empty()) {
    window_sparse_ = false;
  }
  if (pending_.empty()) {
    window_opened_ = now;
  }
  pending_.push_back({std::move(starts), std::move(done), std::move(place), std::move(deadline)});
  pending_queries_ += queries;
  requests_admitted_.fetch_add(1, std::memory_order_relaxed);
  queries_admitted_.fetch_add(queries, std::memory_order_relaxed);
  m_admitted_->Add(1);
  m_outstanding_->Set(static_cast<int64_t>(pending_queries_ + inflight_queries_));
  // Wake a runner to take a window nobody holds, or the holder once its
  // window has filled; the holder's deadline needs no wake.
  if (!window_held_) {
    cv_idle_.notify_one();
  } else if (pending_queries_ >= options_.max_batch_queries) {
    cv_window_.notify_one();
  }
  return AdmitStatus::kAdmitted;
}

void BatchCoalescer::RunLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_idle_.wait(lock, [this] { return !window_held_ && (shutdown_ || !pending_.empty()); });
    if (pending_.empty()) {
      return;  // shut down with nothing left to flush
    }
    window_held_ = true;
    size_t request_count = 1;
    const char* reason = "single";  // coalescing disabled: one batch per request
    if (options_.max_delay_ms > 0.0) {
      if (!shutdown_ && pending_queries_ < options_.max_batch_queries &&
          !(options_.adaptive_window && window_sparse_)) {
        // Hold the window open for stragglers: flush at the deadline or as
        // soon as the batch-size threshold trips, whichever is first. A
        // sparse-opened window (adaptive mode) skips the wait entirely —
        // the queue sat idle longer than the window, so nobody is coming.
        double delay_ms = options_.max_delay_ms;
        if (options_.adaptive_window && !std::isinf(ewma_gap_ms_)) {
          // Dense traffic: companions land within ~one EWMA gap of each
          // other, so a few multiples of it catch the batch; holding the
          // window longer only adds latency. Clamped to [5% of the window,
          // the window], so the estimate can shrink but never stretch it.
          delay_ms = std::clamp(4.0 * ewma_gap_ms_, 0.05 * options_.max_delay_ms,
                                options_.max_delay_ms);
        }
        auto deadline = window_opened_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                             std::chrono::duration<double, std::milli>(delay_ms));
        cv_window_.wait_until(lock, deadline, [this] {
          return shutdown_ || pending_queries_ >= options_.max_batch_queries;
        });
      }
      reason = shutdown_                                             ? "shutdown"
               : pending_queries_ >= options_.max_batch_queries      ? "size"
               : (options_.adaptive_window && window_sparse_)        ? "sparse"
                                                                     : "deadline";
      // Everything pending, including what arrived while every runner was
      // walking: a busy service grows the next batch instead of queueing.
      request_count = pending_.size();
    }
    std::vector<PendingRequest> requests(
        std::make_move_iterator(pending_.begin()),
        std::make_move_iterator(pending_.begin() + request_count));
    pending_.erase(pending_.begin(), pending_.begin() + request_count);

    // Flush-stage shedding: a member whose deadline already passed is
    // dropped here — answered kDeadlineExceeded through its ExpireFn
    // instead of burning scheduler time on rows nobody will read.
    // stable_partition keeps the survivors in arrival order.
    std::vector<PendingRequest> expired;
    uint64_t now_us = obs::NowMicros();
    auto lapsed = [now_us](const PendingRequest& request) {
      return request.deadline.at_us != 0 && request.deadline.at_us <= now_us;
    };
    if (std::any_of(requests.begin(), requests.end(), lapsed)) {
      auto keep = std::stable_partition(requests.begin(), requests.end(),
                                        [&](const PendingRequest& r) { return !lapsed(r); });
      expired.assign(std::make_move_iterator(keep), std::make_move_iterator(requests.end()));
      requests.erase(keep, requests.end());
    }
    size_t queries = 0;
    for (const PendingRequest& request : requests) {
      queries += request.starts.size();
    }
    size_t expired_queries = 0;
    for (const PendingRequest& request : expired) {
      expired_queries += request.starts.size();
    }
    pending_queries_ -= queries + expired_queries;
    inflight_queries_ += queries;
    // The survivors' ids are claimed before the window is released, so
    // the next holder's ids follow these whichever runner walks first: the
    // (arrival order -> global id) mapping is exactly what an unshed,
    // single-runner flush would produce, and a shed member consumes no id.
    WalkService::QueryIds ids;
    if (!requests.empty()) {
      ids = service_.ClaimQueryIds(queries);
    }
    auto window_opened = window_opened_;
    window_held_ = false;
    if (shutdown_) {
      cv_idle_.notify_all();
    } else if (!pending_.empty()) {
      cv_idle_.notify_one();
    }
    lock.unlock();

    if (!expired.empty()) {
      m_expired_flush_->Add(expired.size());
      m_outstanding_->Set(static_cast<int64_t>(outstanding_queries()));
      for (PendingRequest& request : expired) {
        if (request.deadline.expired) {
          request.deadline.expired();
        }
      }
      // The errors the ExpireFns corked need a flush. That normally rides
      // the batch-complete hook, but this batch has not run yet (and never
      // will, when every member lapsed) — fire it now so the
      // kDeadlineExceeded answers don't wait out a walk no shed member
      // joined.
      if (on_batch_complete_) {
        on_batch_complete_();
      }
    }
    if (!requests.empty()) {
      obs::MetricsRegistry::Global()
          .GetCounter(FlushSeriesName(options_.metrics_label, reason))
          .Add(1);
      m_batch_queries_->Record(queries);
      batches_flushed_.fetch_add(1, std::memory_order_relaxed);
      obs::TraceRing& obs_trace = obs::TraceRing::Global();
      if (obs_trace.enabled()) {
        // The coalesce span: window open -> this flush. steady_clock and
        // the NowMicros timebase share an epoch offset, so convert via
        // "ago".
        auto held = std::chrono::duration_cast<std::chrono::microseconds>(
                        std::chrono::steady_clock::now() - window_opened)
                        .count();
        uint64_t held_us = held > 0 ? static_cast<uint64_t>(held) : 0;
        uint64_t flush_us = obs::NowMicros();
        obs_trace.Record("coalesce", 0, 0, flush_us > held_us ? flush_us - held_us : 0, flush_us);
      }
      RunBatch(requests, ids, queries);
    }
    lock.lock();
  }
}

void BatchCoalescer::RunBatch(std::vector<PendingRequest>& requests, WalkService::QueryIds ids,
                              size_t queries) {
  std::vector<NodeId> starts;
  starts.reserve(queries);
  for (const PendingRequest& request : requests) {
    starts.insert(starts.end(), request.starts.begin(), request.starts.end());
  }
  // Resolve each request's row destination. A request with a PlaceFn
  // scatters its rows into caller-owned storage (the server's preallocated
  // response frames); the rest share one fallback arena for the whole
  // batch, so a batch with no placements walks into a single contiguous
  // allocation.
  uint32_t stride = service_.path_stride();
  std::vector<Placement> placements(requests.size());
  size_t placed_queries = 0;
  for (size_t r = 0; r < requests.size(); ++r) {
    PendingRequest& request = requests[r];
    if (request.place) {
      placements[r] = request.place(request.starts.size(), stride);
      if (placements[r].rows != nullptr) {
        placed_queries += request.starts.size();
      }
    }
  }
  // Always present, possibly zero rows: completion slices it for every
  // unplaced request (including empty ones). Shared so straggling
  // RequestResult holders keep it alive after the batch retires.
  auto arena = std::make_shared<PathArena>(queries - placed_queries, stride);
  PathArenaView view = arena->view();
  // Scattered layout: batch query id -> row pointer, placed requests into
  // their frames, the rest packed front-to-back in the fallback arena (in
  // request order, so completion can still slice it contiguously).
  std::vector<NodeId*> row_ptrs;
  if (placed_queries != 0) {
    row_ptrs.resize(queries);
    size_t query = 0;
    size_t fallback_row = 0;
    for (size_t r = 0; r < requests.size(); ++r) {
      NodeId* placed = placements[r].rows;
      for (size_t i = 0; i < requests[r].starts.size(); ++i) {
        row_ptrs[query++] = placed != nullptr ? placed + i * stride : view.Row(fallback_row++);
      }
    }
    view = PathArenaView{nullptr, stride, queries, row_ptrs.data()};
  }
  // Mid-run cancellation arms only when every member carries a deadline —
  // one deadline-free member means someone always wants the batch's rows,
  // so it must run to completion. Past the last member's deadline nobody
  // does: the scheduler abandons the walk at its next pass boundary.
  uint64_t cancel_at_us = 0;
  for (const PendingRequest& request : requests) {
    if (request.deadline.at_us == 0) {
      cancel_at_us = 0;
      break;
    }
    cancel_at_us = std::max(cancel_at_us, request.deadline.at_us);
  }

  obs::TraceRing& obs_trace = obs::TraceRing::Global();
  uint64_t run_start_us = obs::NowMicros();
  BatchResult result = service_.RunClaimed(ids, starts, view, cancel_at_us);
  uint64_t run_end_us = obs::NowMicros();
  if (obs_trace.enabled()) {
    obs_trace.Record("schedule", 0, 0, run_start_us, run_end_us);
  }
  if (cancel_at_us != 0 && run_end_us >= cancel_at_us) {
    // The run outlived every member's deadline: answer them all
    // kDeadlineExceeded through the ExpireFn — DoneFn never runs for a
    // shed request. Cancellation never reorders anyone's Philox draws, so
    // other batches' paths are untouched.
    m_batches_cancelled_->Add(1);
    m_expired_run_->Add(requests.size());
    for (PendingRequest& request : requests) {
      if (request.deadline.expired) {
        request.deadline.expired();
      }
    }
  } else {
    uint64_t complete_start_us = obs_trace.enabled() ? obs::NowMicros() : 0;
    size_t offset = 0;
    size_t fallback_row = 0;
    for (size_t r = 0; r < requests.size(); ++r) {
      PendingRequest& request = requests[r];
      RequestResult slice;
      slice.first_query_id = result.first_query_id + offset;
      slice.path_stride = result.walk.path_stride;
      slice.num_queries = request.starts.size();
      // Zero-copy: the slice aliases the rows the workers wrote — the
      // request's own Placement, or its stretch of the fallback arena;
      // shared ownership keeps them alive for as long as any callback
      // holds its result.
      if (placements[r].rows != nullptr) {
        slice.placed = true;
        slice.paths = {placements[r].rows, slice.num_queries * slice.path_stride};
        slice.keepalive = placements[r].keepalive;
      } else {
        slice.paths = arena->Slice(fallback_row, slice.num_queries);
        slice.keepalive = arena;
        fallback_row += slice.num_queries;
      }
      offset += slice.num_queries;
      request.done(std::move(slice));
    }
    if (obs_trace.enabled()) {
      obs_trace.Record("complete", 0, 0, complete_start_us, obs::NowMicros());
    }
  }
  // Release the admission slots BEFORE the hook: the hook unparks
  // connections, whose re-admission TryEnqueue must see the freed quota.
  // The reverse order re-parks them against a full quota, and if this was
  // the last in-flight batch no later hook ever rescues them — a
  // permanently parked connection. The hook also flushes the frames the
  // callbacks corked.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    inflight_queries_ -= queries;
    m_outstanding_->Set(static_cast<int64_t>(pending_queries_ + inflight_queries_));
  }
  if (on_batch_complete_) {
    on_batch_complete_();
  }
}

void BatchCoalescer::Shutdown() {
  std::vector<std::thread> runners;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    // Claim the handles under the lock so concurrent Shutdown calls (e.g.
    // explicit Shutdown racing the destructor) join only once.
    runners.swap(runners_);
  }
  cv_idle_.notify_all();
  cv_window_.notify_all();
  for (std::thread& runner : runners) {
    runner.join();
  }
}

}  // namespace flexi
