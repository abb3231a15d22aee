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

// Residency policies for WalkWorker. Launch fills a slot from a dispensed
// id; Bind points the context at the graph holding the slot's row; Stay,
// after each step of an unfinished walk, says whether it keeps stepping.
//
// In memory the one graph holds every row: no lookup, no view switch.
struct InMemory {
  using Slot = WalkSlot;
  const WalkLogic& logic;
  uint64_t seed;
  uint64_t query_id_offset;
  PathArenaView out;

  void Launch(Slot& slot, const QueryQueue::Query& next) {
    slot.q = QueryState{};
    // Per-query Philox subsequence: the walk's randomness is a pure
    // function of (seed, global query id), independent of the worker
    // running it, the wavefront slot it lands in, and how batches were
    // carved up.
    slot.q.query_id = query_id_offset + next.id;
    slot.q.start = next.start;
    slot.q.cur = next.start;
    logic.Init(slot.q);
    slot.stream = PhiloxStream(seed, /*subsequence=*/slot.q.query_id);
    slot.path = out.Row(next.id);
    slot.path[0] = slot.q.cur;
    slot.written = 0;
  }
  static void Bind(WalkContext&, const Slot&) {}
  static bool Stay(Slot&) { return true; }
};

// Out of core a slot resumes a parked walk at its stream offset and
// follows it across resident blocks' views; at a non-resident block the
// walk parks back into its round entry. Stay reads q.cur after logic.Update:
// PPR's teleport moves the walker somewhere other than the sampled
// neighbor, and the next step reads the post-update node's row.
struct OutOfCore {
  struct Slot : WalkSlot {
    const Graph* view = nullptr;
    uint64_t entry = 0;  // index in round.walks
  };
  const OutOfCoreRound& round;
  uint64_t seed;
  uint64_t query_id_offset;
  PathArenaView out;

  void Launch(Slot& slot, const QueryQueue::Query& next) {
    const ParkedWalk& parked = round.walks[next.id];
    slot.q = parked.q;
    slot.stream = PhiloxStream(seed, /*subsequence=*/parked.q.query_id, parked.rng_offset);
    slot.path = out.Row(parked.q.query_id - query_id_offset);
    slot.written = parked.written;
    slot.entry = next.id;
    [[maybe_unused]] const bool resident = Stay(slot);
    assert(resident && "a round resumes only walks on resident blocks");
  }
  static void Bind(WalkContext& ctx, const Slot& slot) { ctx.graph = slot.view; }
  bool Stay(Slot& slot) {
    const uint32_t block = round.block_of[slot.q.cur];
    if (round.views[block] == nullptr) {
      round.walks[slot.entry] = ParkedWalk{slot.q, slot.stream.offset(), slot.written};
      return false;
    }
    slot.view = round.views[block];
    if (round.used[block] == 0) {  // read-mostly: the flag's line stays shared
      round.used[block] = 1;
    }
    return true;
  }
};

// The configured wavefront width, or — for 0 — the auto width for a graph
// of `graph_bytes`: wavefronts pay a small staging cost per step and win it
// back by overlapping CSR row misses, which only exist when the graph
// outgrows the cache. Below the threshold the default is walk-at-a-time;
// an explicit width is always honored (the parity tests and benches sweep
// widths on small graphs).
uint32_t WidthFor(uint32_t wavefront, size_t graph_bytes) {
  if (wavefront != 0) {
    return wavefront;
  }
  return graph_bytes > kWavefrontAutoBytes ? kDefaultWavefront : 1;
}

// One worker: drain `queue` through a wavefront of up to `width` in-flight
// walks, advancing every live slot one step per pass. Every write a worker
// makes — path rows and round entries, its private DeviceContext and kernel
// state — is keyed by the ids it drew or owned outright, so workers never
// touch the same memory; the pool's job-completion handshake publishes
// everything to the submitting thread.
template <typename Residency>
void WalkWorker(Residency& residency, QueryQueue& queue, unsigned w, const WalkLogic& logic,
                WalkContext ctx, const StepKernel step, uint32_t width, uint64_t cancel_at_us) {
  using Slot = typename Residency::Slot;
  const uint32_t length = logic.walk_length();
  DeviceContext& device = *ctx.device;

  // Cancellation check, evaluated at pass/claim boundaries only (see
  // SchedulerOptions::cancel_at_us) — one clock read when armed,
  // constant-false when not. Never consulted mid-walk between draws, so a
  // query either runs its steps exactly as an unarmed run would or is
  // never launched.
  auto cancelled = [cancel_at_us] {
    return cancel_at_us != 0 && obs::NowMicros() >= cancel_at_us;
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
  // Stages the walk's row offsets so the pass that first samples it finds
  // them cached.
  auto launch = [&](Slot& slot) {
    std::optional<QueryQueue::Query> next = queue.Next(w);
    if (!next.has_value()) {
      slot.path = nullptr;
      return false;
    }
    residency.Launch(slot, *next);
    residency.Bind(ctx, slot);
    PrefetchRowOffsets(ctx, slot.q.cur);
    return true;
  };

  // Advances `slot` one step; false when the walk leaves this worker's
  // wavefront — finished (dead end or full length; padding after a dead end
  // is already in the row) or parked by the residency policy. On a live
  // continuation, stages the next row's offsets: by the time the next pass
  // returns to this slot, the offsets are cached and the pass-head span
  // prefetch can compute the row's addresses cheaply.
  auto advance = [&](Slot& slot) {
    residency.Bind(ctx, slot);
    KernelRng rng(slot.stream, device.mem());
    StepResult step_result = step(ctx, logic, slot.q, rng);
    if (!step_result.ok()) {
      return false;
    }
    NodeId next_node = ctx.graph->Neighbor(slot.q.cur, step_result.index);
    logic.Update(ctx, slot.q, next_node, step_result.index);
    slot.path[++slot.written] = next_node;
    ++local.steps;
    device.mem().StoreCoalesced(1, sizeof(NodeId));
    if (slot.written == length || !residency.Stay(slot)) {
      return false;
    }
    PrefetchRowOffsets(ctx, slot.q.cur);
    return true;
  };

  if (length == 0) {
    // Degenerate walks: every query is just its start node.
    Slot slot;
    while (!cancelled() && launch(slot)) {
    }
    return;
  }
  if (width == 1) {
    // Walk-at-a-time: one slot run until it leaves the worker, per claim.
    // With a single walk in flight there is no other slot's work to hide
    // prefetch latency behind, so no span staging happens here. The
    // cancellation boundary is the claim: a launched walk always runs on.
    Slot slot;
    while (!cancelled() && launch(slot)) {
      while (advance(slot)) {
      }
    }
    return;
  }

  std::vector<Slot> slots(width);
  size_t active = 0;
  for (Slot& slot : slots) {
    if (!launch(slot)) {
      break;
    }
    ++active;
  }
  while (active > 0) {
    if (cancelled()) {
      // Abandon mid-flight walks where they stand: their rows are never
      // delivered (the deadline is the last requester's), and no other
      // query's draws depend on theirs.
      break;
    }
    ++local.passes;
    // One pass: each live slot stages the following slot's adjacency +
    // weight spans (whose row offsets the previous pass prefetched) and
    // then takes its own step — so every span prefetch has one full
    // slot-step of sampling work to hide behind, and the wrap-around
    // stages slot 0 for the next pass. A slot whose walk left relaunches
    // on the next dispensed query so the wavefront stays full until the
    // queue drains.
    for (uint32_t i = 0; i < width; ++i) {
      Slot& slot = slots[i];
      if (slot.path == nullptr) {
        continue;
      }
      Slot& staged = slots[(i + 1) % width];
      if (staged.path != nullptr) {
        residency.Bind(ctx, staged);
        PrefetchEdgeSpans(ctx, staged.q.cur);
      }
      if (!advance(slot) && !launch(slot)) {
        --active;
      }
    }
  }
}

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
  // footprint (WidthFor); explicit widths are clamped here.
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
  // run. WalkService::RunClaimed validates caller-supplied arenas; this
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
  const uint32_t width = WidthFor(wavefront_, graph.MemoryFootprintBytes());

  auto t0 = std::chrono::steady_clock::now();
  RunOnWorkers(workers, [&](unsigned w) {
    DeviceContext& device = devices[w];
    kernels[w] = make_step(w, device);
    InMemory residency{logic, seed, options_.query_id_offset, out};
    WalkWorker(residency, queue, w, logic,
               WalkContext{&graph, &device, options_.preprocessed, options_.int8_weights},
               kernels[w].step, width, options_.cancel_at_us);
  });
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

void WalkScheduler::RunOutOfCoreRound(const WalkLogic& logic, uint64_t seed,
                                      const OutOfCoreRound& round, PathArenaView out) const {
  const unsigned workers = static_cast<unsigned>(
      std::clamp<size_t>(round.walks.size(), 1, num_threads_));
  QueryQueue queue(static_cast<uint64_t>(round.walks.size()), workers, options_.dispense);
  const uint32_t width = WidthFor(wavefront_, round.graph_bytes);

  RunOnWorkers(workers, [&](unsigned w) {
    OutOfCore residency{round, seed, options_.query_id_offset, out};
    WalkWorker(residency, queue, w, logic,
               WalkContext{nullptr, &round.devices[w], options_.preprocessed,
                           options_.int8_weights},
               round.kernels[w].step, width, options_.cancel_at_us);
  });
}

}  // namespace flexi
