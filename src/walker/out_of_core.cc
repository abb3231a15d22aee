#include "src/walker/out_of_core.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <vector>

#include "src/compiler/analyzer.h"

namespace flexi {

std::optional<uint32_t> BlockScheduler::PickNext(std::span<const uint64_t> pending) const {
  // One pass: the non-resident block with the best pending-per-byte ratio.
  // Strict > keeps ties on the lowest id.
  std::optional<uint32_t> best;
  double best_ratio = 0.0;
  for (size_t b = 0; b < pending.size(); ++b) {
    if (pending[b] == 0) {
      continue;
    }
    double cost = static_cast<double>(std::max<size_t>(1, store_->BlockPayloadBytes(b)));
    double ratio = static_cast<double>(pending[b]) / cost;
    if ((!best.has_value() || ratio > best_ratio) &&
        !cache_->IsResident(static_cast<uint32_t>(b))) {
      best = static_cast<uint32_t>(b);
      best_ratio = ratio;
    }
  }
  return best;
}

PreprocessedData PreprocessOutOfCore(const BlockStore& store, GraphCache& cache,
                                     const PreprocessPlan& plan, DeviceContext& device) {
  PreprocessedData data;
  if (!plan.need_h_max && !plan.need_h_sum) {
    return data;
  }
  NodeId n = store.num_nodes();
  data.h_max.assign(n, 1.0f);
  data.h_sum.assign(n, 0.0f);
  // Identical charge formula to RunPreprocess — the phase does the same
  // logical work, just one resident block at a time.
  device.mem().LoadCoalesced(1, store.num_edges() * sizeof(float));
  device.mem().StoreCoalesced(1, static_cast<size_t>(n) * 2 * sizeof(float));
  device.mem().CountAlu(store.num_edges() * 2);
  for (size_t b = 0; b < store.num_blocks(); ++b) {
    const Graph& view = cache.Acquire(static_cast<uint32_t>(b));
    const BlockMeta& meta = store.block(b);
    for (NodeId v = meta.first_node; v < meta.first_node + meta.node_count; ++v) {
      uint32_t degree = view.Degree(v);
      float max_h = 0.0f;
      float sum_h = 0.0f;
      // Same per-row float evaluation order as RunPreprocess, so the arrays
      // are bit-identical to the in-memory preprocess.
      for (uint32_t i = 0; i < degree; ++i) {
        float h = view.PropertyWeight(view.EdgesBegin(v) + i);
        max_h = std::max(max_h, h);
        sum_h += h;
      }
      if (degree == 0) {
        max_h = 1.0f;
      }
      data.h_max[v] = max_h;
      data.h_sum[v] = sum_h;
    }
    cache.Release(static_cast<uint32_t>(b));
  }
  return data;
}

WalkResult RunFlexiWalkerOutOfCore(const BlockStore& store, const WalkLogic& logic,
                                   const FlexiWalkerOptions& options, uint32_t cache_blocks,
                                   std::span<const NodeId> starts, uint64_t seed,
                                   OutOfCoreStats* stats) {
  if (!IsFirstOrderProgram(logic.program())) {
    throw std::invalid_argument(
        "RunFlexiWalkerOutOfCore: workload '" + logic.name() +
        "' is not first-order (its weight program reads the previous node's "
        "row); out-of-core execution requires first-order walks");
  }
  if (!options.edge_cost_ratio.has_value()) {
    throw std::invalid_argument(
        "RunFlexiWalkerOutOfCore: edge_cost_ratio must be pinned — profiling "
        "samples the full graph, which out-of-core execution cannot load");
  }
  if (options.use_int8_weights || options.cache_static_tables) {
    throw std::invalid_argument(
        "RunFlexiWalkerOutOfCore: INT8 weights and cached static tables "
        "build O(edges) resident structures; disable them for out-of-core runs");
  }
  // The out-of-core FlexiPreparation: the generated helpers, the pinned
  // cost-model parameters, the h reductions streamed one block at a time,
  // and the compiled kernel from the same JIT preparation as the in-memory
  // tier. Never the static-table variant: this tier builds no O(edges)
  // tables. The kernel only sees the block view the worker loop binds for
  // each step, so block residency is transparent to it.
  FlexiPreparation prep;
  prep.helpers = Generator().Generate(logic.program());
  prep.params.edge_cost_ratio = *options.edge_cost_ratio;
  prep.params.degree_threshold = options.degree_threshold;

  GraphCache cache(&store, cache_blocks);
  if (prep.helpers.valid() && store.weighted()) {
    DeviceContext device(options.device);
    prep.preprocessed = PreprocessOutOfCore(store, cache, prep.helpers.plan(), device);
    prep.preprocess_sim_ms = device.profile().SimulatedMsFor(device.mem().counters());
  }
  prep.jit_kernel = PrepareFlexiJitKernel(logic, options, /*use_static_tables=*/false);

  // Kernels and DeviceContexts are built once per run; the wavefront auto
  // width is sized by the *full* graph's payload.
  const SchedulerOptions scheduler_options = FlexiSchedulerOptions(options, prep);
  const WalkScheduler scheduler(scheduler_options);
  const WorkerStepFactory make_step = MakeFlexiWorkerFactory(prep, options.strategy, seed);
  const size_t num_blocks = store.num_blocks();
  std::vector<DeviceContext> devices(scheduler.num_threads(),
                                     DeviceContext(scheduler_options.profile));
  std::vector<WorkerKernel> kernels;
  for (unsigned w = 0; w < devices.size(); ++w) {
    kernels.push_back(make_step(w, devices[w]));
  }

  const uint32_t length = logic.walk_length();
  PathArena arena(starts.size(), length + 1);
  PathArenaView out = arena.view();
  WalkResult result;
  result.path_stride = length + 1;
  result.num_queries = starts.size();
  std::vector<std::vector<ParkedWalk>> buffers(num_blocks);
  std::vector<uint64_t> pending(num_blocks, 0);
  auto park = [&](const ParkedWalk& walk) {
    uint32_t bid = store.BlockOf(walk.q.cur);
    buffers[bid].push_back(walk);
    ++pending[bid];
  };

  auto t0 = std::chrono::steady_clock::now();

  // Seed: write every start node into its path row and park the walk on the
  // block holding the start's row. Zero-length walks retire immediately.
  for (size_t i = 0; i < starts.size(); ++i) {
    QueryState q;
    q.query_id = scheduler_options.query_id_offset + i;
    q.start = starts[i];
    q.cur = starts[i];
    logic.Init(q);
    out.Row(i)[0] = q.cur;
    if (length > 0) {
      park(ParkedWalk{q, /*rng_offset=*/0, /*written=*/0});
    }
  }

  // The resident views, and the next round's walks. Touching a block —
  // acquire + release — marks it used for the cache's LRU order, loading it
  // when absent into the slot (so the view) of the block it evicts; a block
  // new to the driver hands its parked walks to the next round. The driver
  // is the cache's only caller and calls it only between rounds, so no view
  // a round steps against is evicted under it.
  std::vector<const Graph*> views(num_blocks, nullptr);
  std::vector<std::atomic<uint8_t>> used(num_blocks);
  std::vector<ParkedWalk> walks;
  auto touch = [&](uint32_t bid) {
    const Graph* view = &cache.Acquire(bid);
    cache.Release(bid);
    if (views[bid] == nullptr) {
      std::replace(views.begin(), views.end(), view, static_cast<const Graph*>(nullptr));
      views[bid] = view;
      // Freed, not cleared: a block's buffer peaks far above its usual size.
      walks.insert(walks.end(), buffers[bid].begin(), buffers[bid].end());
      buffers[bid] = std::vector<ParkedWalk>();
      pending[bid] = 0;
    }
  };
  for (uint32_t bid = 0; bid < num_blocks; ++bid) {
    if (cache.IsResident(bid)) {  // left resident by the preprocess pass
      touch(bid);
    }
  }

  BlockScheduler block_scheduler(&store, &cache);
  uint64_t parks = 0;
  uint64_t rounds = 0;
  for (;;) {
    // Load the scheduler's picks while a slot is free (every load fills one
    // or evicts), and one more when the round has no walks yet. A round
    // leaves no walk pending on a resident block, so that load evicts the
    // least-recently used block, whose walks a round already drained; and
    // when there is no pick to make, every walk has retired.
    while (walks.empty() || cache.stats().loads - cache.stats().evictions < cache.capacity()) {
      std::optional<uint32_t> pick = block_scheduler.PickNext(pending);
      if (!pick.has_value()) {
        break;
      }
      touch(*pick);
    }
    if (walks.empty()) {
      break;
    }

    // One round: the pending walks of every resident block, in one pool job.
    scheduler.RunOutOfCoreRound(logic, seed,
                                OutOfCoreRound{walks, store.block_of(), views, used,
                                               store.TotalPayloadBytes(), devices, kernels},
                                out);
    ++rounds;

    // Re-park the walks that reached a non-resident block, and touch every
    // block a walk stepped on, so eviction stays least-recently used.
    for (const ParkedWalk& walk : walks) {
      if (views[store.BlockOf(walk.q.cur)] == nullptr) {
        park(walk);
        ++parks;
      }
    }
    walks.clear();
    for (uint32_t bid = 0; bid < num_blocks; ++bid) {
      if (used[bid].exchange(0) != 0) {
        touch(bid);
      }
    }
  }

  auto t1 = std::chrono::steady_clock::now();

  CostCounters merged;
  for (unsigned w = 0; w < devices.size(); ++w) {
    merged += devices[w].mem().counters();
    if (kernels[w].selection != nullptr) {
      result.selection += *kernels[w].selection;
    }
  }
  result.paths = arena.TakeNodes();
  result.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  result.cost = merged;
  result.sim_ms = scheduler_options.profile.SimulatedMsFor(merged);
  result.joules = scheduler_options.profile.SimulatedJoulesFor(merged);
  result.preprocess_sim_ms = prep.preprocess_sim_ms;

  if (stats != nullptr) {
    const GraphCache::Stats& cs = cache.stats();
    stats->block_loads = cs.loads;
    stats->block_evictions = cs.evictions;
    stats->cache_hits = cs.hits;
    stats->bytes_read = cs.bytes_read;
    stats->parks = parks;
    stats->block_activations = rounds;
  }
  return result;
}

}  // namespace flexi
