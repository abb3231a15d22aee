#include "src/walker/scheduler.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <vector>

#include "src/obs/metrics.h"
#include "src/sampling/sampler.h"

namespace flexi {
namespace {

// Registry series for the scheduler layer, resolved once (obs/metrics.h).
// Workers accumulate into stack-local counters during the drain and fold
// them in with one sharded Add each on the way out — nothing per-step ever
// touches a shared line.
struct SchedulerMetrics {
  obs::Counter& batches;
  obs::Counter& queries;
  obs::Counter& steps;
  obs::Counter& wavefront_passes;
  obs::Counter& dispensed;
  obs::Counter& steals;
  obs::Counter& refills;

  static SchedulerMetrics& Get() {
    static SchedulerMetrics* metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return new SchedulerMetrics{
          registry.GetCounter("flexi_scheduler_batches_total"),
          registry.GetCounter("flexi_scheduler_queries_total"),
          registry.GetCounter("flexi_scheduler_steps_total"),
          registry.GetCounter("flexi_scheduler_wavefront_passes_total"),
          registry.GetCounter("flexi_scheduler_queries_dispensed_total"),
          registry.GetCounter("flexi_scheduler_steals_total"),
          registry.GetCounter("flexi_scheduler_refills_total"),
      };
    }();
    return *metrics;
  }
};

// One in-flight walk in a worker's wavefront: the query's state, its Philox
// stream (consumed strictly in per-query order — interleaving slots can
// never reorder a query's own draws), its arena row, and the number of path
// nodes written so far. `path == nullptr` marks an idle slot.
struct WalkSlot {
  QueryState q;
  PhiloxStream stream;
  NodeId* path = nullptr;
  uint32_t written = 0;
};

}  // namespace

WalkScheduler::WalkScheduler(SchedulerOptions options) : options_(std::move(options)) {
  unsigned requested =
      options_.num_threads == 0 ? DefaultWorkerThreads() : options_.num_threads;
  // A thread-local budget (RunMultiDevice's per-device share) caps even
  // explicit requests: the budget owner decided how much of the machine this
  // context may use. Captured here, at construction time, because Run may
  // later execute on pool threads that carry no budget of their own.
  unsigned budget = ScopedWorkerBudget::Current();
  if (budget != 0) {
    requested = std::min(requested, budget);
  }
  num_threads_ = std::clamp(requested, 1u, kMaxHostWorkers);
  // 0 stays 0 — the auto width is resolved per Run against the graph's
  // footprint (see RunWithWorkersInto); explicit widths are clamped here.
  wavefront_ = options_.wavefront == 0 ? 0 : std::clamp(options_.wavefront, 1u, kMaxWavefront);
}

WalkResult WalkScheduler::Run(const Graph& graph, const WalkLogic& logic,
                              std::span<const NodeId> starts, uint64_t seed,
                              StepKernel step) const {
  return RunWithWorkers(graph, logic, starts, seed,
                        [step](unsigned, DeviceContext&) { return WorkerKernel(step); });
}

WalkResult WalkScheduler::RunWithWorkers(const Graph& graph, const WalkLogic& logic,
                                         std::span<const NodeId> starts, uint64_t seed,
                                         const WorkerStepFactory& make_step) const {
  // One contiguous arena, one row per query; the storage moves into
  // result.paths at drain time, so the classic vector-of-paths result is
  // the arena, not a copy of it.
  PathArena arena(starts.size(), logic.walk_length() + 1);
  WalkResult result = RunWithWorkersInto(graph, logic, starts, seed, make_step, arena.view());
  result.paths = arena.TakeNodes();
  return result;
}

WalkResult WalkScheduler::RunWithWorkersInto(const Graph& graph, const WalkLogic& logic,
                                             std::span<const NodeId> starts, uint64_t seed,
                                             const WorkerStepFactory& make_step,
                                             PathArenaView out) const {
  uint32_t length = logic.walk_length();
  // Contract (see header): the caller's arena rows/stride must fit this
  // run. WalkService::SubmitInto validates user-facing submissions; this
  // assert catches direct scheduler misuse before any out-of-arena write.
  assert(starts.empty() || (out.stride == length + 1 && out.rows >= starts.size()));
  WalkResult result;
  result.path_stride = length + 1;
  result.num_queries = starts.size();

  // Never occupy more workers than there are queries; tiny batches run inline.
  unsigned workers = static_cast<unsigned>(
      std::clamp<size_t>(starts.size(), 1, num_threads_));

  QueryQueue queue(starts, workers, options_.dispense);
  std::vector<DeviceContext> devices(workers, DeviceContext(options_.profile));
  // Worker kernels live until the run returns: the fold after the join
  // reads each one's selection tally out of its keepalive.
  std::vector<WorkerKernel> kernels(workers);

  // One worker: drain the queue through a wavefront of up to W in-flight
  // walks, advancing every live slot one step per pass. Every write a
  // worker makes — path rows, its private DeviceContext and kernel slot —
  // is keyed by the query ids it drew or owned outright, so workers never
  // touch the same memory; the pool's job-completion handshake publishes
  // everything to this thread.
  //
  // Auto width: wavefronts pay a small staging cost per step and win it
  // back by overlapping CSR row misses — which only exist when the graph
  // outgrows the cache. Below the threshold the default is walk-at-a-time;
  // an explicit SchedulerOptions::wavefront is always honored (the parity
  // tests and benches sweep widths on small graphs).
  uint32_t width = wavefront_;
  if (width == 0) {
    width = graph.MemoryFootprintBytes() > kWavefrontAutoBytes ? kDefaultWavefront : 1;
  }
  auto worker_body = [&](unsigned w) {
    DeviceContext& device = devices[w];
    WalkContext ctx{&graph, &device, options_.preprocessed, options_.int8_weights};
    kernels[w] = make_step(w, device);
    const StepKernel step = kernels[w].step;

    // Cooperative cancellation check, evaluated at pass/claim boundaries
    // only (see SchedulerOptions::cancel) — one relaxed load when armed,
    // constant-false when not. Never consulted mid-walk between draws, so a
    // query either runs its steps exactly as an uncancelled run would or is
    // never launched.
    const std::atomic<bool>* cancel = options_.cancel;
    auto cancelled = [cancel] {
      return cancel != nullptr && cancel->load(std::memory_order_relaxed);
    };

    // Worker-local telemetry, folded into the registry exactly once per
    // worker body (RAII so every drain-loop exit path flushes). Purely
    // observational: no effect on dispensation order or Philox draws.
    struct LocalCounters {
      uint64_t steps = 0;
      uint64_t passes = 0;
      ~LocalCounters() {
        if (steps > 0 || passes > 0) {
          SchedulerMetrics& metrics = SchedulerMetrics::Get();
          metrics.steps.Add(steps);
          metrics.wavefront_passes.Add(passes);
        }
      }
    } local;

    // Claims the next query into `slot`; false once the queue has drained.
    // Stages the new walk's row offsets so the pass that first samples it
    // finds them cached.
    auto launch = [&](WalkSlot& slot) {
      std::optional<QueryQueue::Query> next = queue.Next(w);
      if (!next.has_value()) {
        slot.path = nullptr;
        return false;
      }
      slot.q = QueryState{};
      // Per-query Philox subsequence: the walk's randomness is a pure
      // function of (seed, global query id), independent of the worker
      // running it, the wavefront slot it lands in, and how batches were
      // carved up.
      slot.q.query_id = options_.query_id_offset + next->id;
      slot.q.start = next->start;
      slot.q.cur = next->start;
      logic.Init(slot.q);
      slot.stream = PhiloxStream(seed, /*subsequence=*/slot.q.query_id);
      slot.path = out.Row(next->id);
      slot.path[0] = slot.q.cur;
      slot.written = 0;
      PrefetchRowOffsets(ctx, slot.q.cur);
      return true;
    };

    // Advances `slot` one step; false when the walk finished (dead end or
    // full length — padding after a dead end is already in the row). On a
    // live continuation, stages the next node's row offsets: by the time
    // the next pass returns to this slot, the offsets are cached and the
    // pass-head span prefetch can compute the row's addresses cheaply.
    auto advance = [&](WalkSlot& slot) {
      KernelRng rng(slot.stream, device.mem());
      StepResult step_result = step(ctx, logic, slot.q, rng);
      if (!step_result.ok()) {
        return false;
      }
      NodeId next_node = graph.Neighbor(slot.q.cur, step_result.index);
      logic.Update(ctx, slot.q, next_node, step_result.index);
      slot.path[++slot.written] = next_node;
      ++local.steps;
      device.mem().StoreCoalesced(1, sizeof(NodeId));
      if (slot.written == length) {
        return false;
      }
      PrefetchRowOffsets(ctx, next_node);
      return true;
    };

    if (length == 0) {
      // Degenerate walks: every query is just its start node.
      WalkSlot slot;
      while (!cancelled() && launch(slot)) {
      }
      return;
    }
    if (width == 1) {
      // Walk-at-a-time: one slot run to completion per claim. With a single
      // walk in flight there is no other slot's work to hide prefetch
      // latency behind, so no span staging happens here. The cancellation
      // boundary is the claim: a launched walk always runs to completion.
      WalkSlot slot;
      while (!cancelled() && launch(slot)) {
        while (advance(slot)) {
        }
      }
      return;
    }

    std::vector<WalkSlot> slots(width);
    size_t active = 0;
    for (WalkSlot& slot : slots) {
      if (!launch(slot)) {
        break;
      }
      ++active;
    }
    while (active > 0) {
      if (cancelled()) {
        // Abandon mid-flight walks where they stand: their rows are never
        // delivered (the caller set the token because every requester gave
        // up), and no other query's draws depend on theirs.
        break;
      }
      ++local.passes;
      // One pass: each live slot stages the following slot's adjacency +
      // weight spans (whose row offsets the previous pass prefetched) and
      // then takes its own step — so every span prefetch has one full
      // slot-step of sampling work to hide behind, and the wrap-around
      // stages slot 0 for the next pass. A finished slot immediately
      // relaunches on the next dispensed query so the wavefront stays full
      // until the queue drains.
      for (uint32_t i = 0; i < width; ++i) {
        WalkSlot& slot = slots[i];
        if (slot.path == nullptr) {
          continue;
        }
        WalkSlot& staged = slots[(i + 1) % width];
        if (staged.path != nullptr) {
          PrefetchEdgeSpans(ctx, staged.q.cur);
        }
        if (!advance(slot) && !launch(slot)) {
          --active;
        }
      }
    }
  };

  auto t0 = std::chrono::steady_clock::now();
  RunOnWorkers(workers, worker_body);
  auto t1 = std::chrono::steady_clock::now();

  if (obs::MetricsEnabled()) {
    SchedulerMetrics& metrics = SchedulerMetrics::Get();
    metrics.batches.Add(1);
    metrics.queries.Add(starts.size());
    metrics.dispensed.Add(queue.dispensed());
    metrics.steals.Add(queue.steals());
    metrics.refills.Add(queue.refills());
  }

  // Deterministic drain: fold per-worker counters and selection tallies in
  // worker-index order. The counts are integer sums, so the merged totals
  // equal the single-thread totals exactly, whatever the interleaving was.
  CostCounters merged;
  for (unsigned w = 0; w < workers; ++w) {
    merged += devices[w].mem().counters();
    if (kernels[w].selection != nullptr) {
      result.selection += *kernels[w].selection;
    }
  }
  result.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  result.cost = merged;
  result.sim_ms = options_.profile.SimulatedMsFor(merged);
  result.joules = options_.profile.SimulatedJoulesFor(merged);
  return result;
}

}  // namespace flexi
