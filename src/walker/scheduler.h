// WalkScheduler: the thread-parallel execution core shared by every engine.
//
// The paper's dynamic query scheduling (§5.3) pairs a global atomic ticket
// counter with a pool of concurrent processing units. This subsystem is that
// design realized on the host: workers from the persistent process-wide
// WorkerPool (worker_pool.h) claim adaptive chunks of query ids from a
// QueryQueue, stealing from each other's cursors once the counter drains
// (query_queue.h) — the one way every run, in memory or out of core, hands
// out work. Each worker owns a private DeviceContext so kernel accounting
// is contention-free, and the per-worker CostCounters are merged
// deterministically (worker-index order) at drain time. A Run spawns no
// threads — it borrows parked pool
// workers and the calling thread — so repeated small batches (the serving
// stack's batch runners) cost only the walks themselves.
//
// The worker inner loop executes *wavefronts*: each worker advances a batch
// of W in-flight walks one step per pass, staging the next access's CSR
// cache lines with prefetch hints while the current slot samples — the CPU
// recovery of the memory-level parallelism the paper's warp-lockstep GPU
// kernels get from their lanes (docs/ARCHITECTURE.md, "The hot loop"). Step
// kernels are invoked through StepKernel, a non-allocating trivially
// copyable delegate, so no std::function sits on the per-step path. The
// out-of-core tier's rounds (RunOutOfCoreRound) step through the same loop.
//
// Seed-stable parallelism: every query's randomness comes from its own
// Philox subsequence — PhiloxStream(seed, query_id) — and every query writes
// only its own path row. Which worker runs a query — and how its steps
// interleave with other wavefront slots — therefore cannot affect its walk,
// so paths are bit-identical for 1, 2, or N worker threads, any wavefront
// width, and across batch boundaries when the WalkService assigns global
// query ids. scheduler_test.cc and walk_service_test.cc enforce this;
// docs/ARCHITECTURE.md spells out the full contract with examples.
#ifndef FLEXIWALKER_SRC_WALKER_SCHEDULER_H_
#define FLEXIWALKER_SRC_WALKER_SCHEDULER_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <functional>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <utility>

#include "src/walker/engine.h"
#include "src/walker/path_arena.h"
#include "src/walker/query_queue.h"
#include "src/walker/worker_pool.h"

namespace flexi {

// Samples one neighbor for the query's current node. A non-allocating
// delegate: the callable (any lambda whose captures are trivially copyable
// and fit kMaxStateBytes — kernel/table/selector pointers, pinned bounds)
// is stored inline and invoked through one function pointer, so the
// per-step cost is a direct indirect call with no std::function dispatch or
// heap traffic. Engines needing owned per-run state pair one of these with
// a keepalive in WorkerKernel.
class StepKernel {
 public:
  static constexpr size_t kMaxStateBytes = 48;

  StepKernel() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, StepKernel> &&
                std::is_invocable_r_v<StepResult, const std::decay_t<F>&, const WalkContext&,
                                      const WalkLogic&, const QueryState&, KernelRng&>>>
  StepKernel(F fn) {  // NOLINT(google-explicit-constructor): adapter by design
    using Fn = std::decay_t<F>;
    static_assert(sizeof(Fn) <= kMaxStateBytes,
                  "step kernel captures exceed StepKernel::kMaxStateBytes; "
                  "capture pointers to run-owned state instead");
    static_assert(std::is_trivially_copyable_v<Fn>,
                  "step kernel captures must be trivially copyable (no "
                  "owning captures — put ownership in WorkerKernel::state)");
    static_assert(alignof(Fn) <= alignof(std::max_align_t));
    ::new (static_cast<void*>(state_)) Fn(fn);
    invoke_ = [](const void* state, const WalkContext& ctx, const WalkLogic& logic,
                 const QueryState& q, KernelRng& rng) -> StepResult {
      return (*static_cast<const Fn*>(state))(ctx, logic, q, rng);
    };
  }

  StepResult operator()(const WalkContext& ctx, const WalkLogic& logic, const QueryState& q,
                        KernelRng& rng) const {
    // A default-constructed kernel has no callable; fail diagnosably (the
    // std::function it replaced threw bad_function_call) rather than
    // jumping through null. Free in release builds.
    assert(invoke_ != nullptr);
    return invoke_(state_, ctx, logic, q, rng);
  }

  explicit operator bool() const { return invoke_ != nullptr; }

 private:
  using InvokeFn = StepResult (*)(const void*, const WalkContext&, const WalkLogic&,
                                  const QueryState&, KernelRng&);

  alignas(std::max_align_t) unsigned char state_[kMaxStateBytes] = {};
  InvokeFn invoke_ = nullptr;
};

// What a worker runs with for one Run: the step delegate plus optional
// shared ownership of whatever per-run state the delegate's captured
// pointers reach (e.g. FlexiWalker's per-worker SamplerSelector). The run
// holds `state` alive until every worker has drained; the delegate itself
// stays trivially copyable. `selection`, when set, points into that state
// at the worker's eRJS/eRVS tally, which the run folds into
// WalkResult::selection in worker order, like the CostCounters.
struct WorkerKernel {
  StepKernel step;
  std::shared_ptr<void> state;
  const SelectionCounters* selection = nullptr;

  WorkerKernel() = default;
  WorkerKernel(StepKernel s, std::shared_ptr<void> keepalive = nullptr,  // NOLINT
               const SelectionCounters* tally = nullptr)
      : step(s), state(std::move(keepalive)), selection(tally) {}
};

// Builds a worker's kernel. Called once per worker per Run — never on the
// per-step path — before it starts pulling queries.
using WorkerStepFactory = std::function<WorkerKernel(unsigned worker, DeviceContext& device)>;

// A walk waiting for its block in an out-of-core run (out_of_core.h), in
// arena row q.query_id - query_id_offset. Its Philox stream is stored as a
// draw offset: seek-then-read is bit-identical to sequential consumption.
struct ParkedWalk {
  QueryState q;         // q.cur is the node whose row the next step reads
  uint64_t rng_offset;  // draws consumed so far from PhiloxStream(seed, query_id)
  uint32_t written;     // path nodes written after the start node
};

// One out-of-core round: the walks to resume, the resident set, and the
// run's per-worker DeviceContexts and kernels (at least num_threads()).
struct OutOfCoreRound {
  // Each one's q.cur lies in a resident block. A walk that parks is written
  // back over its own entry, so afterwards an entry whose q.cur lies in a
  // non-resident block is a parked walk; any other entry retired.
  std::span<ParkedWalk> walks;
  std::span<const uint32_t> block_of;  // node -> block (BlockStore::block_of())
  std::span<const Graph* const> views;  // block -> resident view; nullptr if not resident
  std::span<std::atomic<uint8_t>> used;  // set to 1 for every block a walk steps on
  size_t graph_bytes = 0;  // the full graph's payload, for the auto wavefront width
  std::span<DeviceContext> devices;
  std::span<const WorkerKernel> kernels;
};

// Wavefront width bounds. The default is wide enough to hide one DRAM miss
// behind the other slots' sampling work on current cores; the cap keeps a
// worker's staged cache lines from evicting each other (W rows x up to
// ~6 lines per row stays well inside L1).
inline constexpr uint32_t kDefaultWavefront = 8;
inline constexpr uint32_t kMaxWavefront = 64;

// Auto-width threshold: with SchedulerOptions::wavefront == 0, batched
// passes (width kDefaultWavefront) engage only when the graph's CSR
// footprint exceeds this — smaller graphs are cache-resident, so there are
// no row misses to overlap and the staging cost would be pure loss. Sized
// past the L3 of typical serving hosts.
inline constexpr size_t kWavefrontAutoBytes = size_t{32} << 20;

struct SchedulerOptions {
  DeviceProfile profile = DeviceProfile::SimulatedGpu();
  unsigned num_threads = 0;  // 0 => DefaultWorkerThreads()
  // Global id of the batch's first query. One-shot engine Runs leave this 0;
  // the WalkService sets it to its monotonic submission cursor so a query's
  // Philox subsequence — (seed, query_id_offset + local id) — is unique
  // across every batch the service ever runs. Path rows stay batch-local.
  uint64_t query_id_offset = 0;
  // In-flight walks each worker advances in lockstep passes. 0 = auto:
  // kDefaultWavefront when the graph outgrows kWavefrontAutoBytes,
  // walk-at-a-time otherwise. Explicit widths (1 = walk-at-a-time, no
  // prefetch staging) are always honored, clamped to kMaxWavefront. Pure
  // execution shaping: every query's draws come from its own Philox stream
  // consumed in per-query order, so paths are bit-identical for every
  // width (scheduler_test.cc, WavefrontPathParityMatrix).
  uint32_t wavefront = 0;
  // Read-only per-run data shared by all workers' WalkContexts.
  const PreprocessedData* preprocessed = nullptr;
  const Int8WeightStore* int8_weights = nullptr;
  // Mid-run cancellation deadline on the obs::NowMicros() timebase; 0 =
  // never. When set, workers stop claiming and advancing walks at the first
  // pass boundary at or past it — once per wavefront pass in batched mode,
  // per claimed walk at width 1 — so a batch whose every requester gave up
  // stops burning CPU mid-run. Cancellation truncates *delivery* only,
  // never randomness: every query still draws from its own Philox
  // subsequence in per-query order, so any query that does complete (and
  // every query of a run that finishes first) is bit-identical to an
  // unarmed execution. The serving stack sets it to the last member's
  // deadline of a batch whose every member carries one
  // (batch_coalescer.h); one-shot Runs leave it 0.
  uint64_t cancel_at_us = 0;
};

class WalkScheduler {
 public:
  // Resolves num_threads once, here: a Run's worker count depends only on
  // the options and the batch size, never on the calling thread.
  explicit WalkScheduler(SchedulerOptions options = {});

  unsigned num_threads() const { return num_threads_; }
  // Configured wavefront width; 0 = auto (resolved per Run against the
  // graph's footprint).
  uint32_t wavefront() const { return wavefront_; }
  const DeviceProfile& profile() const { return options_.profile; }

  // Runs every query in `starts` to completion with one step kernel shared
  // by all workers (the single-kernel engines).
  WalkResult Run(const Graph& graph, const WalkLogic& logic,
                 std::span<const NodeId> starts, uint64_t seed,
                 StepKernel step) const;

  // As Run, but each worker builds its own kernel — for engines that keep
  // mutable per-worker state such as selection counters.
  WalkResult RunWithWorkers(const Graph& graph, const WalkLogic& logic,
                            std::span<const NodeId> starts, uint64_t seed,
                            const WorkerStepFactory& make_step) const;

  // As RunWithWorkers, but path rows are written into caller-owned arena
  // storage instead of a result-owned allocation: `out` must have
  // stride == logic.walk_length() + 1 and at least starts.size() rows, and
  // row i must be prefilled with kInvalidNode (PathArena's constructor
  // does) so dead-end padding holds. The returned WalkResult carries the
  // run's metadata and cost with `paths` left empty — the serving stack
  // uses this to walk straight into a per-batch arena whose slices feed the
  // wire writer with no intermediate copy.
  WalkResult RunWithWorkersInto(const Graph& graph, const WalkLogic& logic,
                                std::span<const NodeId> starts, uint64_t seed,
                                const WorkerStepFactory& make_step, PathArenaView out) const;

  // Steps every walk in round.walks through the same worker loop, across
  // resident blocks, until it finishes or parks at a non-resident block.
  // Rows go into `out`; the caller folds cost.
  void RunOutOfCoreRound(const WalkLogic& logic, uint64_t seed, const OutOfCoreRound& round,
                         PathArenaView out) const;

 private:
  SchedulerOptions options_;
  unsigned num_threads_;
  uint32_t wavefront_;
};

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_WALKER_SCHEDULER_H_
