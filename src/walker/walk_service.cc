#include "src/walker/walk_service.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace flexi {

WalkService::WalkService(const Graph& graph, const WalkLogic& logic, Options options,
                         WorkerStepFactory make_step, std::shared_ptr<void> kernel_state)
    : graph_(graph),
      logic_(logic),
      options_(std::move(options)),
      make_step_(std::move(make_step)),
      kernel_state_(std::move(kernel_state)) {
  // Resolve the worker count once, on the constructing thread, so a
  // ScopedWorkerBudget active here sticks for the service's lifetime and the
  // dispatcher thread (which carries no budget) can't widen it later.
  num_threads_ = WalkScheduler(options_.scheduler).num_threads();
  options_.scheduler.num_threads = num_threads_;
  // One dispatcher per pipeline slot: each claims the oldest queued batch,
  // so up to pipeline_depth batches run on the pool at once. Depth shares
  // the kMaxHostWorkers rationale — a wild value must not spawn thousands
  // of threads.
  pipeline_depth_ = std::clamp(options_.pipeline_depth, 1u, kMaxHostWorkers);
  unsigned depth = pipeline_depth_;
  dispatchers_.reserve(depth);
  for (unsigned d = 0; d < depth; ++d) {
    dispatchers_.emplace_back([this] { ServeLoop(); });
  }
}

WalkService::WalkService(const Graph& graph, const WalkLogic& logic, Options options,
                         StepKernel step)
    : WalkService(graph, logic, std::move(options),
                  [step](unsigned, DeviceContext&) { return WorkerKernel(step); }) {}

WalkService::~WalkService() { Shutdown(); }

std::future<BatchResult> WalkService::Submit(WalkBatch batch) {
  return SubmitInto(std::move(batch), PathArenaView{});
}

std::future<BatchResult> WalkService::SubmitInto(WalkBatch batch, PathArenaView out,
                                                 std::shared_ptr<const std::atomic<bool>> cancel) {
  Pending pending;
  pending.batch = std::move(batch);
  pending.out = out;
  pending.cancel = std::move(cancel);
  std::future<BatchResult> future = pending.promise.get_future();
  // A mismatched arena would have scheduler workers writing past the
  // caller's allocation; fail the future on the submitting thread instead
  // of corrupting memory on a dispatcher.
  if (!out.empty() && (out.stride != path_stride() || out.rows < pending.batch.starts.size())) {
    pending.promise.set_exception(std::make_exception_ptr(std::invalid_argument(
        "SubmitInto arena mismatch: need stride " + std::to_string(path_stride()) + " and " +
        std::to_string(pending.batch.starts.size()) + " rows, got stride " +
        std::to_string(out.stride) + " and " + std::to_string(out.rows) + " rows")));
    return future;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (shutdown_) {
      pending.promise.set_exception(
          std::make_exception_ptr(std::runtime_error("WalkService is shut down")));
      return future;
    }
    // The id cursor advances under the same lock that orders the queue, so
    // batch k's ids are exactly the cursor values between submissions k and
    // k+1 — the property the determinism contract hangs off.
    pending.first_query_id = next_query_id_;
    next_query_id_ += pending.batch.starts.size();
    pending.batch_index = next_batch_index_++;
    queue_.push_back(std::move(pending));
  }
  cv_.notify_one();
  return future;
}

void WalkService::ServeLoop() {
  for (;;) {
    Pending pending;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutdown, everything drained
      }
      pending = std::move(queue_.front());
      queue_.pop_front();
    }
    SchedulerOptions batch_options = options_.scheduler;
    batch_options.query_id_offset = pending.first_query_id;
    batch_options.cancel = pending.cancel.get();
    WalkScheduler scheduler(batch_options);
    BatchResult result;
    if (pending.out.empty()) {
      result.walk = scheduler.RunWithWorkers(graph_, logic_, pending.batch.starts,
                                             options_.seed, make_step_);
    } else {
      // Zero-copy path: rows land in the submitter's arena; walk.paths
      // stays empty on purpose.
      result.walk = scheduler.RunWithWorkersInto(graph_, logic_, pending.batch.starts,
                                                 options_.seed, make_step_, pending.out);
    }
    result.first_query_id = pending.first_query_id;
    result.batch_index = pending.batch_index;
    batches_completed_.fetch_add(1, std::memory_order_relaxed);
    pending.promise.set_value(std::move(result));
  }
}

void WalkService::Shutdown() {
  std::vector<std::thread> to_join;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
    // Claim the dispatcher handles under the lock so concurrent Shutdown
    // calls (e.g. explicit Shutdown racing the destructor) join only once.
    to_join.swap(dispatchers_);
  }
  cv_.notify_all();
  for (std::thread& dispatcher : to_join) {
    if (dispatcher.joinable()) {
      dispatcher.join();
    }
  }
}

uint64_t WalkService::queries_submitted() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return next_query_id_;
}

std::unique_ptr<WalkService> MakeFlexiWalkerService(const Graph& graph, const WalkLogic& logic,
                                                    FlexiWalkerOptions options, uint64_t seed,
                                                    unsigned pipeline_depth) {
  // The engine's one-time phases — the same PrepareFlexiWalker call
  // FlexiWalkerEngine::Run makes, so a served batch reproduces the engine.
  // The service owns the preparation through its kernel_state handle.
  DeviceContext device(options.device);
  auto prep = std::make_shared<FlexiPreparation>(PrepareFlexiWalker(graph, logic, options, device));

  WalkService::Options service_options;
  service_options.seed = seed;
  service_options.pipeline_depth = pipeline_depth;
  service_options.scheduler = FlexiSchedulerOptions(options, *prep);
  // The factory runs once per (batch, worker) and gives each call its own
  // selector or compiled-kernel state, so pipelined batches share no
  // mutable state and each batch reports its own selection tally.
  WorkerStepFactory factory = MakeFlexiWorkerFactory(*prep, options.strategy, seed);
  return std::make_unique<WalkService>(graph, logic, std::move(service_options),
                                       std::move(factory), std::move(prep));
}

}  // namespace flexi
