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
  // Resolve the worker count once, so every batch runs at the width the
  // service was built with, whatever SetDefaultWorkerThreads says later.
  num_threads_ = WalkScheduler(options_.scheduler).num_threads();
  options_.scheduler.num_threads = num_threads_;
  // Depth sizes the coalescer's runner threads, so it shares the
  // kMaxHostWorkers rationale — a wild value must not spawn thousands of
  // threads.
  pipeline_depth_ = std::clamp(options_.pipeline_depth, 1u, kMaxHostWorkers);
}

WalkService::WalkService(const Graph& graph, const WalkLogic& logic, Options options,
                         StepKernel step)
    : WalkService(graph, logic, std::move(options),
                  [step](unsigned, DeviceContext&) { return WorkerKernel(step); }) {}

WalkService::QueryIds WalkService::ClaimQueryIds(size_t count) {
  std::lock_guard<std::mutex> lock(claim_mutex_);
  QueryIds ids{next_query_id_, next_batch_index_++};
  next_query_id_ += count;
  return ids;
}

BatchResult WalkService::RunClaimed(QueryIds ids, std::span<const NodeId> starts,
                                    PathArenaView out, uint64_t cancel_at_us) {
  // A mismatched arena would have scheduler workers writing past the
  // caller's allocation; refuse before any walk starts.
  if (!out.empty() && (out.stride != path_stride() || out.rows < starts.size())) {
    throw std::invalid_argument("RunClaimed arena mismatch: need stride " +
                                std::to_string(path_stride()) + " and " +
                                std::to_string(starts.size()) + " rows, got stride " +
                                std::to_string(out.stride) + " and " + std::to_string(out.rows) +
                                " rows");
  }
  SchedulerOptions batch_options = options_.scheduler;
  batch_options.query_id_offset = ids.first;
  batch_options.cancel_at_us = cancel_at_us;
  WalkScheduler scheduler(batch_options);
  BatchResult result;
  result.walk = out.empty()
                    ? scheduler.RunWithWorkers(graph_, logic_, starts, options_.seed, make_step_)
                    : scheduler.RunWithWorkersInto(graph_, logic_, starts, options_.seed,
                                                   make_step_, out);
  result.first_query_id = ids.first;
  result.batch_index = ids.batch_index;
  batches_completed_.fetch_add(1, std::memory_order_relaxed);
  return result;
}

std::future<BatchResult> WalkService::Submit(WalkBatch batch) {
  std::promise<BatchResult> done;
  done.set_value(RunClaimed(ClaimQueryIds(batch.starts.size()), batch.starts));
  return done.get_future();
}

uint64_t WalkService::queries_submitted() const {
  std::lock_guard<std::mutex> lock(claim_mutex_);
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
  // selector or compiled-kernel state, so concurrent batches share no
  // mutable state and each batch reports its own selection tally.
  WorkerStepFactory factory = MakeFlexiWorkerFactory(*prep, options.strategy, seed);
  return std::make_unique<WalkService>(graph, logic, std::move(service_options),
                                       std::move(factory), std::move(prep));
}

}  // namespace flexi
