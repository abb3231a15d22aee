#include "src/walker/out_of_core.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/compiler/analyzer.h"
#include "src/sampling/sampler.h"
#include "src/walker/query_queue.h"
#include "src/walker/worker_pool.h"

namespace flexi {
namespace {

// A walk waiting for its block: everything needed to reconstruct the
// in-flight WalkSlot exactly where it left off. The Philox stream is not
// stored — only its draw offset — because seek-then-read is bit-identical
// to sequential consumption (philox.h), which keeps the record at 48 bytes.
struct ParkedWalk {
  QueryState q;         // q.cur is the node whose row the next step reads
  uint64_t rng_offset;  // draws consumed so far from PhiloxStream(seed, query_id)
  uint32_t row;         // batch-local arena row (== local query index)
  uint32_t written;     // path nodes written after the start node
};

// One in-flight walk in a worker's wavefront, as in scheduler.cc plus the
// arena-row index needed to re-park.
struct OocSlot {
  QueryState q;
  PhiloxStream stream;
  NodeId* path = nullptr;
  uint32_t written = 0;
  uint32_t row = 0;
};

}  // namespace

uint32_t BlockScheduler::PickNext(std::span<const uint64_t> pending) const {
  // Pass 1: resident blocks cost no I/O; take the one with the most work.
  int best = -1;
  uint64_t best_pending = 0;
  for (size_t b = 0; b < pending.size(); ++b) {
    if (pending[b] > 0 && cache_->IsResident(static_cast<uint32_t>(b)) &&
        pending[b] > best_pending) {
      best = static_cast<int>(b);
      best_pending = pending[b];
    }
  }
  if (best >= 0) {
    return static_cast<uint32_t>(best);
  }
  // Pass 2: nothing resident has work — pay for the load with the best
  // pending-per-byte ratio.
  double best_ratio = -1.0;
  for (size_t b = 0; b < pending.size(); ++b) {
    if (pending[b] == 0) {
      continue;
    }
    double cost = static_cast<double>(std::max<size_t>(1, store_->BlockPayloadBytes(b)));
    double ratio = static_cast<double>(pending[b]) / cost;
    if (ratio > best_ratio) {
      best = static_cast<int>(b);
      best_ratio = ratio;
    }
  }
  assert(best >= 0 && "PickNext called with no pending walks");
  return static_cast<uint32_t>(best);
}

namespace {

// Runs every query in `starts` to completion over the partitioned graph,
// using `cache` for residency. `logic` must be first-order
// (IsFirstOrderProgram) — throws std::invalid_argument otherwise. `options`
// carries the same thread, wavefront, dispensation, profile and read-only
// array settings as an in-memory run, with the wavefront auto width sized
// by the *full* graph's payload. Each worker's kernel is built once per
// run, before the first block activation; the result's selection tally and
// cost fold the workers in index order, as in WalkScheduler.
WalkResult RunOutOfCore(const BlockStore& store, GraphCache& cache, const WalkLogic& logic,
                        std::span<const NodeId> starts, uint64_t seed,
                        const WorkerStepFactory& make_step, const SchedulerOptions& options,
                        OutOfCoreStats* stats) {
  if (!IsFirstOrderProgram(logic.program())) {
    throw std::invalid_argument(
        "RunOutOfCore: workload '" + logic.name() +
        "' is not first-order (its weight program reads the previous node's "
        "row); out-of-core execution requires first-order walks");
  }
  const uint32_t length = logic.walk_length();
  PathArena arena(starts.size(), length + 1);
  PathArenaView out = arena.view();
  WalkResult result;
  result.path_stride = length + 1;
  result.num_queries = starts.size();

  // Same worker-count resolution as the in-memory tier (thread budget,
  // clamps) so a pinned --threads behaves identically in both.
  const unsigned max_workers = WalkScheduler(options).num_threads();
  std::vector<DeviceContext> devices(max_workers, DeviceContext(options.profile));
  std::vector<WorkerKernel> kernels;
  kernels.reserve(max_workers);
  for (unsigned w = 0; w < max_workers; ++w) {
    kernels.push_back(make_step(w, devices[w]));
  }

  uint32_t width = options.wavefront == 0
                       ? (store.TotalPayloadBytes() > kWavefrontAutoBytes ? kDefaultWavefront : 1)
                       : std::clamp(options.wavefront, 1u, kMaxWavefront);

  const size_t num_blocks = store.num_blocks();
  std::vector<std::vector<ParkedWalk>> buffers(num_blocks);
  std::vector<uint64_t> pending(num_blocks, 0);

  auto t0 = std::chrono::steady_clock::now();

  // Seed: write every start node into its path row and park the walk on the
  // block holding the start's row. Zero-length walks retire immediately.
  size_t remaining = 0;
  for (size_t i = 0; i < starts.size(); ++i) {
    QueryState q;
    q.query_id = options.query_id_offset + i;
    q.start = starts[i];
    q.cur = starts[i];
    logic.Init(q);
    out.Row(i)[0] = q.cur;
    if (length == 0) {
      continue;
    }
    uint32_t bid = store.BlockOf(q.cur);
    buffers[bid].push_back(ParkedWalk{q, /*rng_offset=*/0, static_cast<uint32_t>(i),
                                      /*written=*/0});
    ++pending[bid];
    ++remaining;
  }

  BlockScheduler block_scheduler(&store, &cache);
  // Per-worker outboxes: walks that crossed out of the resident block this
  // activation, tagged with their destination block. Merged (in worker
  // order) after the parallel section joins — order in a buffer shapes only
  // execution order, never a path.
  std::vector<std::vector<std::pair<uint32_t, ParkedWalk>>> staged(max_workers);
  std::vector<uint64_t> finished(max_workers, 0);
  uint64_t parks = 0;
  uint64_t activations = 0;

  std::vector<ParkedWalk> work;
  while (remaining > 0) {
    uint32_t bid = block_scheduler.PickNext(pending);
    const Graph& view = cache.Acquire(bid);
    const NodeId block_first = store.block(bid).first_node;
    const NodeId block_end = block_first + store.block(bid).node_count;
    work = std::move(buffers[bid]);
    buffers[bid].clear();
    pending[bid] = 0;
    ++activations;

    const unsigned workers =
        static_cast<unsigned>(std::clamp<size_t>(work.size(), 1, max_workers));
    QueryQueue queue(static_cast<uint64_t>(work.size()), workers, options.dispense);

    auto worker_body = [&](unsigned w) {
      DeviceContext& device = devices[w];
      WalkContext ctx{&view, &device, options.preprocessed, options.int8_weights};
      const StepKernel step = kernels[w].step;
      std::vector<std::pair<uint32_t, ParkedWalk>>& outbox = staged[w];

      // Claims the next parked walk into `slot`, reconstructing its Philox
      // stream at the recorded offset; false once the buffer has drained.
      auto launch = [&](OocSlot& slot) {
        std::optional<QueryQueue::Query> next = queue.Next(w);
        if (!next.has_value()) {
          slot.path = nullptr;
          return false;
        }
        const ParkedWalk& parked = work[next->id];
        slot.q = parked.q;
        slot.stream = PhiloxStream(seed, /*subsequence=*/parked.q.query_id, parked.rng_offset);
        slot.path = out.Row(parked.row);
        slot.written = parked.written;
        slot.row = parked.row;
        PrefetchRowOffsets(ctx, slot.q.cur);
        return true;
      };

      // Advances `slot` one step; false when the walk leaves this worker's
      // wavefront — finished (dead end / full length) or re-parked on
      // another block. The park decision reads q.cur *after* logic.Update:
      // workloads may move the walker somewhere other than the sampled
      // neighbor (PPR's teleport), and it is the post-update node whose row
      // the next step needs resident.
      auto advance = [&](OocSlot& slot) {
        KernelRng rng(slot.stream, device.mem());
        StepResult step_result = step(ctx, logic, slot.q, rng);
        if (!step_result.ok()) {
          ++finished[w];
          return false;
        }
        NodeId next_node = view.Neighbor(slot.q.cur, step_result.index);
        logic.Update(ctx, slot.q, next_node, step_result.index);
        slot.path[++slot.written] = next_node;
        device.mem().StoreCoalesced(1, sizeof(NodeId));
        if (slot.written == length) {
          ++finished[w];
          return false;
        }
        if (slot.q.cur < block_first || slot.q.cur >= block_end) {
          outbox.emplace_back(store.BlockOf(slot.q.cur),
                              ParkedWalk{slot.q, slot.stream.offset(), slot.row, slot.written});
          return false;
        }
        PrefetchRowOffsets(ctx, slot.q.cur);
        return true;
      };

      if (width == 1) {
        OocSlot slot;
        while (launch(slot)) {
          while (advance(slot)) {
          }
        }
        return;
      }
      // Wavefront passes, exactly as scheduler.cc: each live slot stages the
      // following slot's adjacency + weight spans, then steps; a slot whose
      // walk left the block relaunches on the next parked walk.
      std::vector<OocSlot> slots(width);
      size_t active = 0;
      for (OocSlot& slot : slots) {
        if (!launch(slot)) {
          break;
        }
        ++active;
      }
      while (active > 0) {
        for (uint32_t i = 0; i < width; ++i) {
          OocSlot& slot = slots[i];
          if (slot.path == nullptr) {
            continue;
          }
          OocSlot& next_slot = slots[(i + 1) % width];
          if (next_slot.path != nullptr) {
            PrefetchEdgeSpans(ctx, next_slot.q.cur);
          }
          if (!advance(slot) && !launch(slot)) {
            --active;
          }
        }
      }
    };

    RunOnWorkers(workers, worker_body);
    cache.Release(bid);

    // Merge outboxes in worker order; drain retire counts.
    for (unsigned w = 0; w < workers; ++w) {
      for (auto& [dest, parked] : staged[w]) {
        buffers[dest].push_back(parked);
        ++pending[dest];
        ++parks;
      }
      staged[w].clear();
      remaining -= finished[w];
      finished[w] = 0;
    }
  }

  auto t1 = std::chrono::steady_clock::now();

  CostCounters merged;
  for (unsigned w = 0; w < max_workers; ++w) {
    merged += devices[w].mem().counters();
    if (kernels[w].selection != nullptr) {
      result.selection += *kernels[w].selection;
    }
  }
  result.paths = arena.TakeNodes();
  result.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  result.cost = merged;
  result.sim_ms = options.profile.SimulatedMsFor(merged);
  result.joules = options.profile.SimulatedJoulesFor(merged);

  if (stats != nullptr) {
    const GraphCache::Stats& cs = cache.stats();
    stats->block_loads = cs.loads;
    stats->block_evictions = cs.evictions;
    stats->cache_hits = cs.hits;
    stats->bytes_read = cs.bytes_read;
    stats->parks = parks;
    stats->block_activations = activations;
  }
  return result;
}

}  // namespace

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
  // tables. The kernel only sees the per-block WalkContext the driver hands
  // every step, so block residency is transparent to it.
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

  WalkResult result = RunOutOfCore(store, cache, logic, starts, seed,
                                   MakeFlexiWorkerFactory(prep, options.strategy, seed),
                                   FlexiSchedulerOptions(options, prep), stats);
  result.preprocess_sim_ms = prep.preprocess_sim_ms;
  return result;
}

}  // namespace flexi
