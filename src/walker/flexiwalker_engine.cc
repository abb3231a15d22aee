#include "src/walker/flexiwalker_engine.h"

#include <cstdio>

#include "src/compiler/step_emitter.h"
#include "src/sampling/rejection.h"
#include "src/sampling/reservoir.h"
#include "src/simt/warp.h"
#include "src/walker/scheduler.h"

namespace flexi {

FlexiPreparation PrepareFlexiWalker(const Graph& graph, const WalkLogic& logic,
                                    const FlexiWalkerOptions& options, DeviceContext& device) {
  FlexiPreparation prep;

  // --- Compile time: analyze the workload and generate helpers (§4.2). ---
  Generator generator;
  prep.helpers = generator.Generate(logic.program());

  // --- Profiling kernels (§5.1): calibrate the EdgeCost ratio on `device`
  // when the options leave it unset. The sample is sharded over the worker
  // pool; the traffic drains into `device` so the phase's simulated cost is
  // reported separately. ---
  prep.params.degree_threshold = options.degree_threshold;
  if (options.edge_cost_ratio.has_value()) {
    prep.params.edge_cost_ratio = *options.edge_cost_ratio;
  } else {
    CostCounters before = device.mem().counters();
    prep.params.edge_cost_ratio = ProfileEdgeCostRatio(graph, logic, device, 256, 32,
                                                       0x9E0F11E5, options.host_threads);
    CostCounters delta = device.mem().counters() - before;
    prep.profile_sim_ms = device.profile().SimulatedMsFor(delta);
  }

  // --- Preprocessing: h_MAX / h_SUM reductions when the plan needs them
  // and the graph actually stores property weights. ---
  if (prep.helpers.valid() && graph.weighted()) {
    CostCounters before = device.mem().counters();
    prep.preprocessed = RunPreprocess(graph, prep.helpers.plan(), device, options.host_threads);
    CostCounters delta = device.mem().counters() - before;
    prep.preprocess_sim_ms = device.profile().SimulatedMsFor(delta);
  }

  if (options.use_int8_weights && graph.weighted()) {
    prep.int8_store = Int8WeightStore::Quantize(graph);
  }

  // --- Cached static-walk fast path: when the transition distribution is
  // fixed per node (static program) and actually proportional to what
  // BuildNodeAliasTables encodes — h when the program reads it, uniform on
  // an unweighted graph — build all tables once. The one-time build traffic
  // (full edge scan + table write-back) is charged as preprocessing. ---
  bool uses_h = false;
  if (options.cache_static_tables && IsStaticTransitionProgram(logic.program(), &uses_h) &&
      (uses_h || !graph.weighted())) {
    CostCounters before = device.mem().counters();
    device.mem().LoadCoalesced(1, graph.num_edges() * (sizeof(NodeId) + sizeof(float)));
    device.mem().StoreCoalesced(1, graph.num_edges() * 8);  // prob + alias per slot
    prep.static_tables = BuildNodeAliasTables(graph, options.host_threads);
    CostCounters delta = device.mem().counters() - before;
    prep.preprocess_sim_ms += device.profile().SimulatedMsFor(delta);
  }

  // --- Compiled step kernel (opt-in): specialize the whole step for this
  // program + strategy. Failures degrade silently to the interpreted kernel
  // — paths are bit-identical either way, so a kernel that arrives
  // mid-service can swap in without anyone noticing. ---
  prep.jit_kernel = PrepareFlexiJitKernel(logic, options, !prep.static_tables.empty());
  return prep;
}

std::shared_ptr<jit::JitKernel> PrepareFlexiJitKernel(const WalkLogic& logic,
                                                      const FlexiWalkerOptions& options,
                                                      bool use_static_tables) {
  if (options.jit == jit::JitMode::kOff) {
    return nullptr;
  }
  jit::StepKernelSpec spec;
  spec.strategy = options.strategy;
  spec.use_static_tables = use_static_tables;
  std::string reject_reason;
  std::string source = jit::EmitStepKernelSource(logic.program(), spec, &reject_reason);
  if (source.empty()) {
    jit::CountFallback("unsupported_program");
    return nullptr;
  }
  bool async = options.jit == jit::JitMode::kAuto;
  std::shared_ptr<jit::JitKernel> kernel =
      jit::KernelCache::Global().GetOrCompile(source, options.jit_cache_dir, async);
  if (options.jit == jit::JitMode::kOn && !kernel->WaitReady()) {
    std::fprintf(stderr,
                 "flexiwalker: --jit on could not produce a compiled kernel (%s); "
                 "running interpreted\n",
                 kernel->fallback_reason().c_str());
  }
  return kernel;
}

SchedulerOptions FlexiSchedulerOptions(const FlexiWalkerOptions& options,
                                       const FlexiPreparation& prep) {
  SchedulerOptions scheduler;
  scheduler.profile = options.device;
  scheduler.num_threads = options.host_threads;
  scheduler.wavefront = options.wavefront;
  scheduler.preprocessed = prep.preprocessed.empty() ? nullptr : &prep.preprocessed;
  scheduler.int8_weights = prep.int8_store.empty() ? nullptr : &prep.int8_store;
  return scheduler;
}

namespace {

// The per-step mixed-kernel body (§5.2): ballot accounting, per-step
// sampler selection through `selector`, then eRJS / warp-cooperative eRVS
// dispatch. Non-allocating; the selector lives in the WorkerKernel
// keepalive.
StepKernel MakeFlexiStep(SamplerSelector* selector, uint64_t selector_seed) {
  return [selector, selector_seed](const WalkContext& ctx, const WalkLogic& l,
                                   const QueryState& q, KernelRng& rng) {
    // Ballot (§5.2): on the GPU one ballot per warp round decides which
    // lanes take the warp-cooperative eRVS service. A round is kWarpSize
    // lane-steps, so the amortized charge lands on every kWarpSize-th step
    // of a query — query-local, hence independent of worker count.
    if (q.step % kWarpSize == 0) {
      ctx.mem().CountCollective(1);
    }
    // The kRandom strategy's coin flips come from a per-(query, step)
    // Philox position instead of a worker-shared stream, keeping
    // selection — and therefore paths — seed-stable under threading.
    PhiloxStream selector_rng(selector_seed, q.query_id, /*offset=*/q.step);
    double bound = 0.0;
    bool use_rjs = selector->PreferRjs(ctx, q, &bound, selector_rng);
    if (use_rjs) {
      return ERjsStep(ctx, l, q, rng, bound);
    }
    // Warp-cooperative service: the query's parameters are shared via
    // shuffles before the warp executes eRVS together.
    ctx.mem().CountCollective(2);
    return ERvsJumpStep(ctx, l, q, rng);
  };
}

// A worker's mutable state, one heap object per worker and cache-line
// aligned so neighbouring workers' per-step tally increments never share a
// line.
struct alignas(64) InterpretedWorker {
  SamplerSelector selector;
};

struct alignas(64) CompiledWorker {
  jit::JitStepState state;
  SelectionCounters counters;
  std::shared_ptr<jit::JitKernel> pin;  // keeps the dlopen'd code mapped
};

}  // namespace

WorkerStepFactory MakeFlexiWorkerFactory(const FlexiPreparation& prep, SelectionStrategy strategy,
                                         uint64_t seed) {
  const FlexiPreparation* p = &prep;
  // The kRandom coin's seed, derived from the walk seed.
  const uint64_t selector_seed = seed ^ 0x5E1EC7;
  return [p, strategy, selector_seed](unsigned, DeviceContext&) -> WorkerKernel {
    jit::JitStepFn jit_fn = p->jit_kernel != nullptr ? p->jit_kernel->TryGet() : nullptr;
    if (jit_fn != nullptr) {
      auto worker = std::make_shared<CompiledWorker>();
      worker->state.selector_seed = selector_seed;
      worker->state.edge_cost_ratio = p->params.edge_cost_ratio;
      worker->state.degree_threshold = p->params.degree_threshold;
      worker->state.static_tables = p->static_tables.empty() ? nullptr : &p->static_tables;
      worker->state.counters = &worker->counters;
      worker->pin = p->jit_kernel;
      const jit::JitStepState* st = &worker->state;
      return WorkerKernel(StepKernel([jit_fn, st](const WalkContext& ctx, const WalkLogic&,
                                                  const QueryState& q, KernelRng& rng) {
                            return jit_fn(st, &ctx, &q, &rng);
                          }),
                          worker, &worker->counters);
    }
    if (!p->static_tables.empty()) {
      // Static fast path: every step is an O(1) cached-table lookup; no
      // per-step selection happens, so there is no tally.
      const std::vector<AliasTable>* tables = &p->static_tables;
      return StepKernel([tables](const WalkContext& ctx, const WalkLogic&, const QueryState& q,
                                 KernelRng& rng) { return CachedAliasStep(ctx, *tables, q, rng); });
    }
    auto worker = std::make_shared<InterpretedWorker>(
        SamplerSelector(strategy, p->params, &p->helpers));
    return WorkerKernel(MakeFlexiStep(&worker->selector, selector_seed), worker,
                        &worker->selector.counters());
  };
}

FlexiWalkerEngine::FlexiWalkerEngine(FlexiWalkerOptions options)
    : options_(std::move(options)) {}

std::string FlexiWalkerEngine::name() const {
  switch (options_.strategy) {
    case SelectionStrategy::kCostModel:
      return "FlexiWalker";
    case SelectionStrategy::kRandom:
      return "FlexiWalker(random)";
    case SelectionStrategy::kDegreeThreshold:
      return "FlexiWalker(degree)";
    case SelectionStrategy::kAlwaysRvs:
      return "FlexiWalker(eRVS-only)";
    case SelectionStrategy::kAlwaysRjs:
      return "FlexiWalker(eRJS-only)";
  }
  return "FlexiWalker";
}

WalkResult FlexiWalkerEngine::Run(const Graph& graph, const WalkLogic& logic,
                                  std::span<const NodeId> starts, uint64_t seed) {
  DeviceContext device(options_.device);

  // One-time phases (compile, profile, preprocess, quantize) — the same
  // PrepareFlexiWalker the serving factory calls once per service.
  FlexiPreparation prep = PrepareFlexiWalker(graph, logic, options_, device);

  // --- Main walk: the mixed kernel (§5.2) over the dynamically scheduled
  // queue (§5.3), executed on the persistent worker pool. Each worker owns
  // a private DeviceContext and kernel state so per-step selection and
  // accounting are contention-free; the scheduler merges the counters and
  // selection tallies at drain time, keeping the result's cost scoped to
  // the walk phase alone (profile and preprocess costs are reported
  // separately, Table 3).
  WalkScheduler scheduler(FlexiSchedulerOptions(options_, prep));
  WalkResult result = scheduler.RunWithWorkers(
      graph, logic, starts, seed, MakeFlexiWorkerFactory(prep, options_.strategy, seed));
  result.profile_sim_ms = prep.profile_sim_ms;
  result.preprocess_sim_ms = prep.preprocess_sim_ms;
  helpers_ = std::move(prep.helpers);
  last_edge_cost_ratio_ = prep.params.edge_cost_ratio;
  return result;
}

}  // namespace flexi
