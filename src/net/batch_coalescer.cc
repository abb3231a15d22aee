#include "src/net/batch_coalescer.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
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
  flusher_ = std::thread([this] { FlushLoop(); });
  completer_ = std::thread([this] { CompleteLoop(); });
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
      // pin it there). The flusher uses this to shrink an open window's
      // deadline under dense traffic (see FlushLoop).
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
  cv_flush_.notify_one();
  return AdmitStatus::kAdmitted;
}

void BatchCoalescer::FlushWithLock(std::unique_lock<std::mutex>& lock, size_t request_count,
                                   const char* reason) {
  InFlightBatch batch;
  batch.requests.assign(std::make_move_iterator(pending_.begin()),
                        std::make_move_iterator(pending_.begin() + request_count));
  pending_.erase(pending_.begin(), pending_.begin() + request_count);

  // Flush-stage shedding: a member whose deadline already passed is dropped
  // here — answered kDeadlineExceeded through its ExpireFn instead of
  // burning scheduler time on rows nobody will read. stable_partition keeps
  // the survivors in arrival order, so the (arrival order -> global id)
  // mapping of every walked query is exactly what an unshed flush would
  // have produced for the same survivors.
  std::vector<PendingRequest> expired;
  uint64_t now_us = obs::NowMicros();
  auto lapsed = [now_us](const PendingRequest& request) {
    return request.deadline.at_us != 0 && request.deadline.at_us <= now_us;
  };
  if (std::any_of(batch.requests.begin(), batch.requests.end(), lapsed)) {
    auto keep = std::stable_partition(batch.requests.begin(), batch.requests.end(),
                                      [&](const PendingRequest& r) { return !lapsed(r); });
    expired.assign(std::make_move_iterator(keep), std::make_move_iterator(batch.requests.end()));
    batch.requests.erase(keep, batch.requests.end());
  }
  size_t queries = 0;
  for (const PendingRequest& request : batch.requests) {
    queries += request.starts.size();
  }
  size_t expired_queries = 0;
  for (const PendingRequest& request : expired) {
    expired_queries += request.starts.size();
  }
  pending_queries_ -= queries + expired_queries;
  inflight_queries_ += queries;
  // Cooperative mid-run cancellation arms only when every surviving member
  // carries a deadline — one deadline-free member means someone always
  // wants the batch's rows, so it must run to completion.
  if (!batch.requests.empty()) {
    uint64_t max_deadline = 0;
    for (const PendingRequest& request : batch.requests) {
      if (request.deadline.at_us == 0) {
        max_deadline = 0;
        break;
      }
      max_deadline = std::max(max_deadline, request.deadline.at_us);
    }
    if (max_deadline != 0) {
      batch.cancel = std::make_shared<std::atomic<bool>>(false);
      batch.max_deadline_us = max_deadline;
    }
  }
  if (!batch.requests.empty()) {
    obs::MetricsRegistry::Global()
        .GetCounter(FlushSeriesName(options_.metrics_label, reason))
        .Add(1);
    m_batch_queries_->Record(queries);
  }
  obs::TraceRing& obs_trace = obs::TraceRing::Global();
  if (obs_trace.enabled()) {
    // The coalesce span: window open -> this flush. steady_clock and the
    // NowMicros timebase share an epoch offset, so convert via "ago".
    uint64_t now_us = obs::NowMicros();
    auto held = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - window_opened_)
                    .count();
    uint64_t held_us = held > 0 ? static_cast<uint64_t>(held) : 0;
    obs_trace.Record("coalesce", 0, 0, now_us > held_us ? now_us - held_us : 0, now_us);
  }

  // Build and submit the batch outside the lock: concatenating starts and
  // prefilling a potentially multi-megabyte arena must not stall every
  // concurrent admission. The flusher is the only submitter and this
  // function is only ever entered from its loop, so dropping the lock
  // cannot reorder submissions — the (arrival order -> global id) mapping
  // is pinned by the single-threaded flush order itself.
  lock.unlock();
  if (!expired.empty()) {
    m_expired_flush_->Add(expired.size());
    m_outstanding_->Set(static_cast<int64_t>(outstanding_queries()));
    for (PendingRequest& request : expired) {
      if (request.deadline.expired) {
        request.deadline.expired();
      }
    }
    // The errors the ExpireFns corked need a flush. That normally rides the
    // batch-complete hook, but this batch hasn't completed yet (and never
    // will, when every member lapsed) — fire it now so the kDeadlineExceeded
    // answers don't wait out a walk nobody shed ever joined.
    if (on_batch_complete_) {
      on_batch_complete_();
    }
  }
  if (batch.requests.empty()) {
    lock.lock();
    return;
  }
  WalkBatch walk_batch;
  walk_batch.starts.reserve(queries);
  for (const PendingRequest& request : batch.requests) {
    walk_batch.starts.insert(walk_batch.starts.end(), request.starts.begin(),
                             request.starts.end());
  }
  // Resolve each request's row destination. A request with a PlaceFn
  // scatters its rows into caller-owned storage (the server's preallocated
  // response frames); the rest share one fallback arena for the whole
  // batch, so a batch with no placements keeps the original single-
  // allocation contiguous submit.
  uint32_t stride = service_.path_stride();
  batch.placements.resize(batch.requests.size());
  size_t placed_queries = 0;
  for (size_t r = 0; r < batch.requests.size(); ++r) {
    PendingRequest& request = batch.requests[r];
    if (request.place) {
      batch.placements[r] = request.place(request.starts.size(), stride);
      if (batch.placements[r].rows != nullptr) {
        placed_queries += request.starts.size();
      }
    }
  }
  // Always present, possibly zero rows: completion slices it for every
  // unplaced request (including empty ones), and the contiguous-submit
  // branch hands its view to the service even for an all-empty batch.
  batch.arena = std::make_shared<PathArena>(queries - placed_queries, stride);
  if (placed_queries == 0) {
    batch.placements.clear();
    batch.future = service_.SubmitInto(std::move(walk_batch), batch.arena->view(), batch.cancel);
  } else {
    // Scattered layout: batch query id -> row pointer, placed requests into
    // their frames, the rest packed front-to-back in the fallback arena (in
    // request order, so completion can still slice it contiguously).
    batch.row_ptrs.resize(queries);
    PathArenaView fallback = batch.arena->view();
    size_t query = 0;
    size_t fallback_row = 0;
    for (size_t r = 0; r < batch.requests.size(); ++r) {
      size_t rows = batch.requests[r].starts.size();
      NodeId* placed = batch.placements[r].rows;
      for (size_t i = 0; i < rows; ++i) {
        batch.row_ptrs[query++] =
            placed != nullptr ? placed + i * stride : fallback.Row(fallback_row++);
      }
    }
    PathArenaView view;
    view.stride = stride;
    view.rows = queries;
    view.row_ptrs = batch.row_ptrs.data();
    batch.future = service_.SubmitInto(std::move(walk_batch), view, batch.cancel);
  }
  batch.submit_us = obs::NowMicros();
  lock.lock();
  inflight_.push_back(std::move(batch));
  batches_flushed_.fetch_add(1, std::memory_order_relaxed);
  cv_complete_.notify_one();
}

void BatchCoalescer::FlushLoop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_flush_.wait(lock, [this] { return shutdown_ || !pending_.empty(); });
    if (pending_.empty()) {
      break;  // shutdown with nothing left to flush
    }
    if (options_.max_delay_ms <= 0.0) {
      // Coalescing disabled: one batch per request, in admission order.
      FlushWithLock(lock, 1, "single");
      continue;
    }
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
      cv_flush_.wait_until(lock, deadline, [this] {
        return shutdown_ || pending_queries_ >= options_.max_batch_queries;
      });
    }
    const char* reason = shutdown_                                             ? "shutdown"
                         : pending_queries_ >= options_.max_batch_queries      ? "size"
                         : (options_.adaptive_window && window_sparse_)        ? "sparse"
                                                                               : "deadline";
    FlushWithLock(lock, pending_.size(), reason);
  }
  flusher_done_ = true;
  cv_complete_.notify_all();
}

void BatchCoalescer::CompleteLoop() {
  for (;;) {
    InFlightBatch batch;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_complete_.wait(lock, [this] { return flusher_done_ || !inflight_.empty(); });
      if (inflight_.empty()) {
        return;  // flusher exited and everything in flight has completed
      }
      batch = std::move(inflight_.front());
      inflight_.pop_front();
    }
    // Batches complete roughly FIFO; blocking on the oldest first keeps the
    // completer simple and, with pipelining, still overlaps execution.
    //
    // Mid-run cancellation: when the batch armed a token (every member
    // deadlined), wait only until the last member's deadline; past that,
    // nobody wants the rows, so set the token — the per-batch scheduler
    // abandons at its next pass boundary — and answer every member through
    // its ExpireFn. The future still resolves (the scheduler run returns
    // normally, just truncated); paths of other, non-cancelled batches are
    // untouched because cancellation never reorders anyone's Philox draws.
    bool cancelled = false;
    if (batch.cancel != nullptr) {
      uint64_t now_us = obs::NowMicros();
      auto deadline_tp = std::chrono::steady_clock::now() +
                         std::chrono::microseconds(batch.max_deadline_us > now_us
                                                       ? batch.max_deadline_us - now_us
                                                       : 0);
      if (batch.future.wait_until(deadline_tp) == std::future_status::timeout) {
        batch.cancel->store(true, std::memory_order_relaxed);
        cancelled = true;
        m_batches_cancelled_->Add(1);
        m_expired_run_->Add(batch.requests.size());
      }
    }
    BatchResult result;
    bool completed = true;
    obs::TraceRing& obs_trace = obs::TraceRing::Global();
    try {
      result = batch.future.get();
      if (obs_trace.enabled()) {
        obs_trace.Record("schedule", 0, 0, batch.submit_us, obs::NowMicros());
      }
    } catch (const std::exception& e) {
      // Only reachable when the service was shut down under us — a teardown
      // order the API forbids (coalescer first, then service). Dropping the
      // callbacks is the survivable response; letting the exception escape
      // this thread would be std::terminate.
      std::fprintf(stderr, "BatchCoalescer: batch failed, dropping %zu request(s): %s\n",
                   batch.requests.size(), e.what());
      completed = false;
    }
    size_t offset = 0;
    if (!completed) {
      std::lock_guard<std::mutex> lock(mutex_);
      for (const PendingRequest& request : batch.requests) {
        inflight_queries_ -= request.starts.size();
      }
      m_outstanding_->Set(static_cast<int64_t>(pending_queries_ + inflight_queries_));
      continue;
    }
    if (cancelled) {
      // Every member's deadline passed: answer them all kDeadlineExceeded
      // (through the ExpireFn — DoneFn never runs for a shed request) and
      // release their admission slots. The hook still fires so the error
      // frames the ExpireFns corked actually reach the sockets.
      size_t cancelled_queries = 0;
      for (PendingRequest& request : batch.requests) {
        cancelled_queries += request.starts.size();
        if (request.deadline.expired) {
          request.deadline.expired();
        }
      }
      // Release the admission slots BEFORE the hook: the hook unparks
      // connections, whose re-admission TryEnqueue must see the freed
      // quota. The reverse order re-parks them against a full quota, and
      // if this was the last in-flight batch no later hook ever rescues
      // them — a permanently parked connection.
      {
        std::lock_guard<std::mutex> lock(mutex_);
        inflight_queries_ -= cancelled_queries;
        m_outstanding_->Set(static_cast<int64_t>(pending_queries_ + inflight_queries_));
      }
      if (on_batch_complete_) {
        on_batch_complete_();
      }
      continue;
    }
    uint64_t complete_start_us = obs_trace.enabled() ? obs::NowMicros() : 0;
    size_t fallback_row = 0;
    for (size_t r = 0; r < batch.requests.size(); ++r) {
      PendingRequest& request = batch.requests[r];
      RequestResult slice;
      slice.first_query_id = result.first_query_id + offset;
      slice.path_stride = result.walk.path_stride;
      slice.num_queries = request.starts.size();
      // Zero-copy: the slice aliases the rows the workers wrote — the
      // request's own Placement, or its stretch of the fallback arena;
      // shared ownership keeps them alive for as long as any callback
      // holds its result.
      const Placement* placed =
          r < batch.placements.size() && batch.placements[r].rows != nullptr
              ? &batch.placements[r]
              : nullptr;
      if (placed != nullptr) {
        slice.placed = true;
        slice.paths = {placed->rows, slice.num_queries * slice.path_stride};
        slice.keepalive = placed->keepalive;
      } else {
        slice.paths = batch.arena->Slice(fallback_row, slice.num_queries);
        slice.keepalive = batch.arena;
        fallback_row += slice.num_queries;
      }
      offset += slice.num_queries;
      request.done(std::move(slice));
    }
    if (obs_trace.enabled()) {
      obs_trace.Record("complete", 0, 0, complete_start_us, obs::NowMicros());
    }
    // Slot release precedes the hook (same reasoning as the cancelled
    // path): the hook's unparked connections retry admission immediately,
    // and must not race a quota that still counts this batch — if this was
    // the last in-flight batch, a lost retry here parks them forever.
    {
      std::lock_guard<std::mutex> lock(mutex_);
      inflight_queries_ -= offset;
      m_outstanding_->Set(static_cast<int64_t>(pending_queries_ + inflight_queries_));
    }
    if (on_batch_complete_) {
      on_batch_complete_();
    }
  }
}

void BatchCoalescer::Shutdown() {
  std::thread flusher;
  std::thread completer;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    // Claim the handles under the lock so concurrent Shutdown calls (e.g.
    // explicit Shutdown racing the destructor) join only once.
    flusher = std::move(flusher_);
    completer = std::move(completer_);
  }
  cv_flush_.notify_all();
  cv_complete_.notify_all();
  if (flusher.joinable()) {
    flusher.join();
  }
  if (completer.joinable()) {
    completer.join();
  }
}

}  // namespace flexi
