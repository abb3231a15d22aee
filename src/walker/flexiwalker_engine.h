// The FlexiWalker engine: compile-time specialization (Flexi-Compiler) +
// runtime per-step sampler selection (Flexi-Runtime) + the optimized eRJS /
// eRVS kernels (Flexi-Kernel), executed as the concurrent mixed warp kernel
// of §5.2 with dynamic query scheduling (§5.3): the scheduler's workers
// claim query ids in adaptive chunks with stealing (query_queue.h).
//
// This header is the execution core every FlexiWalker tier shares. Each
// tier — the one-shot engine below, the serving WalkService
// (walk_service.h) and the out-of-core driver (out_of_core.h) — does the
// same three things: prepare once (PrepareFlexiWalker, or the out-of-core
// tier's streamed equivalent), build MakeFlexiWorkerFactory over that
// preparation, and run the factory on its scheduler. The factory is the
// only code that decides what a worker's step runs: the compiled kernel,
// the cached static table, or the interpreted eRJS/eRVS selector.
#ifndef FLEXIWALKER_SRC_WALKER_FLEXIWALKER_ENGINE_H_
#define FLEXIWALKER_SRC_WALKER_FLEXIWALKER_ENGINE_H_

#include <memory>
#include <optional>

#include "src/compiler/generator.h"
#include "src/compiler/jit.h"
#include "src/runtime/cost_model.h"
#include "src/runtime/preprocess.h"
#include "src/sampling/alias.h"
#include "src/walker/engine.h"
#include "src/walker/scheduler.h"

namespace flexi {

struct FlexiWalkerOptions {
  SelectionStrategy strategy = SelectionStrategy::kCostModel;
  // The EdgeCost ratio of Eq. 11. The engine, the service and the
  // out-of-core driver walk on the host CPU, so the default is the host's
  // constant and no profiling phase runs. std::nullopt profiles the ratio
  // on `device` at startup (§5.1): the figure benches ask for that, because
  // they report that device's simulated time. The out-of-core driver
  // refuses it, since profiling samples the whole graph.
  std::optional<double> edge_cost_ratio = kHostEdgeCostRatio;
  uint32_t degree_threshold = 1000;
  bool use_int8_weights = false;  // §7.2 extension
  // Cached static-walk fast path (ROADMAP serving item): when the workload's
  // transition weight is static (IsStaticTransitionProgram — DeepWalk,
  // unweighted first-order walks), build every node's alias table once via
  // BuildNodeAliasTables and sample each step in O(1) from the cache instead
  // of running the per-step eRJS/eRVS kernels. Same per-node distribution,
  // different RNG draw sequence — paths differ from the uncached
  // configuration but stay bit-identical across thread counts, batch
  // carvings, and engine-vs-service for a fixed seed and options. No effect
  // on dynamic workloads. Off by default so existing one-shot results are
  // unchanged; the serving CLI enables it for static workloads.
  bool cache_static_tables = false;
  DeviceProfile device = DeviceProfile::SimulatedGpu();
  // Host worker threads for the WalkScheduler (0 = process default). Walk
  // paths are bit-identical for any value — see scheduler.h.
  unsigned host_threads = 0;
  // Wavefront width for the scheduler's batched inner loop (scheduler.h):
  // in-flight walks each worker advances per pass. 0 = kDefaultWavefront,
  // 1 = walk-at-a-time. Any width leaves walk paths bit-identical; the
  // CLI's --wavefront flag lands here.
  uint32_t wavefront = 0;
  // Compiled step kernels (src/compiler/jit.h): emit the workload's step as
  // one specialized C++ function, compile it to a dlopen'd .so cached by
  // program hash, and run it instead of the interpreted eRJS/eRVS step.
  // Paths and cost counters are bit-identical either way (jit_test's parity
  // matrix enforces it); kAuto compiles in the background and swaps in when
  // ready, kOn blocks until the kernel is available (or falls back with a
  // warning). Off by default. Any compile/load failure silently degrades to
  // the interpreted kernel, counted in jit_fallbacks_total{reason=...}.
  jit::JitMode jit = jit::JitMode::kOff;
  // On-disk .so cache directory; empty = jit::DefaultCacheDir().
  std::string jit_cache_dir;
};

// Everything FlexiWalker computes once per (graph, workload) before any
// query runs: the generated helper bundle (§4.2), the calibrated cost-model
// parameters (§5.1), the preprocessing reductions, and the optional INT8
// store. Shared by the one-shot engine (rebuilt per Run), the streaming
// WalkService (built once at service construction) and the out-of-core
// driver (built per run) so the tiers can never drift — a service's first
// batch reproduces an engine Run bit-for-bit.
struct FlexiPreparation {
  GeneratedHelpers helpers;
  CostModelParams params;  // params.edge_cost_ratio is the given or profiled ratio
  PreprocessedData preprocessed;
  Int8WeightStore int8_store;
  // One alias table per node when the cached static-walk fast path applies
  // (options.cache_static_tables and a static program); empty otherwise.
  // Non-empty tables route every step through CachedAliasStep.
  std::vector<AliasTable> static_tables;
  // The compiled step kernel (possibly still compiling, possibly failed);
  // null when options.jit was kOff or the emitter rejected the program.
  // Holding the preparation pins the dlopen'd code.
  std::shared_ptr<jit::JitKernel> jit_kernel;
  // Simulated cost of the profiling / preprocessing phases (Table 3);
  // zero when the phase was skipped.
  double profile_sim_ms = 0.0;
  double preprocess_sim_ms = 0.0;
};

// Runs the one-time phases, charging profiling and preprocessing traffic to
// `device`. Profiling runs only when options.edge_cost_ratio is unset.
FlexiPreparation PrepareFlexiWalker(const Graph& graph, const WalkLogic& logic,
                                    const FlexiWalkerOptions& options, DeviceContext& device);

// Where `options` take the EdgeCost ratio from, for reports: "profiled"
// when it is unset (§5.1), "host" at kHostEdgeCostRatio, "given" otherwise.
inline const char* EdgeCostRatioSource(const FlexiWalkerOptions& options) {
  if (!options.edge_cost_ratio.has_value()) {
    return "profiled";
  }
  return *options.edge_cost_ratio == kHostEdgeCostRatio ? "host" : "given";
}

// The compiled step kernel for `logic` under options.strategy — the JIT
// preparation PrepareFlexiWalker and the out-of-core tier share. Null when
// options.jit is kOff or the emitter rejects the program (counted as an
// unsupported_program fallback). kAuto returns a kernel that may still be
// compiling; kOn waits for it and warns on stderr when it failed, in which
// case the run stays interpreted.
std::shared_ptr<jit::JitKernel> PrepareFlexiJitKernel(const WalkLogic& logic,
                                                      const FlexiWalkerOptions& options,
                                                      bool use_static_tables);

// The scheduler configuration of a FlexiWalker run: the options' device,
// thread count and wavefront, plus the preparation's read-only arrays (null
// when empty).
SchedulerOptions FlexiSchedulerOptions(const FlexiWalkerOptions& options,
                                       const FlexiPreparation& prep);

// Builds each worker's step kernel for every FlexiWalker tier. In order:
//   * the compiled kernel, when prep.jit_kernel->TryGet() answers — asked
//     on every call, so a --jit auto compile that lands mid-service swaps
//     in at the next run (compiled and interpreted steps are bit-identical);
//   * the O(1) cached alias-table step, when prep.static_tables is set;
//   * the interpreted mixed kernel (§5.2): ballot accounting, per-step
//     eRJS/eRVS choice through a SamplerSelector, warp-cooperative eRVS.
// Each WorkerKernel owns its mutable state — the selector, or the
// JitStepState plus a pin on the compiled code — in its keepalive and
// exposes its selection tally, which the scheduler and the out-of-core
// driver fold into WalkResult::selection. kRandom's coin flips come from a
// per-(query, step) Philox position keyed on `seed`, never from shared
// state, so selection stays seed-stable under threading and across service
// batches. `prep` must outlive every run the factory serves.
WorkerStepFactory MakeFlexiWorkerFactory(const FlexiPreparation& prep, SelectionStrategy strategy,
                                         uint64_t seed);

class FlexiWalkerEngine : public Engine {
 public:
  explicit FlexiWalkerEngine(FlexiWalkerOptions options = {});

  std::string name() const override;
  WalkResult Run(const Graph& graph, const WalkLogic& logic, std::span<const NodeId> starts,
                 uint64_t seed) override;

  // Exposed for tests and examples: the generated helper bundle of the last
  // Run, and the EdgeCost ratio its selector used (profiled or given).
  const GeneratedHelpers& helpers() const { return helpers_; }
  double last_edge_cost_ratio() const { return last_edge_cost_ratio_; }

 private:
  FlexiWalkerOptions options_;
  GeneratedHelpers helpers_;
  double last_edge_cost_ratio_ = 0.0;
};

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_WALKER_FLEXIWALKER_ENGINE_H_
