#include "src/walker/partitioned.h"

#include <algorithm>
#include <vector>

#include "src/sampling/reservoir.h"
#include "src/walker/query_queue.h"
#include "src/walker/scheduler.h"

namespace flexi {

uint32_t PartitionOwner(NodeId v, uint32_t num_devices) {
  uint64_t x = (static_cast<uint64_t>(v) + 0x9E3779B9u) * 0xC2B2AE3D27D4EB4Full;
  return static_cast<uint32_t>((x >> 33) % num_devices);
}

PartitionedRunResult RunPartitioned(const Graph& graph, const WalkLogic& logic,
                                    std::span<const NodeId> starts, uint32_t num_devices,
                                    const InterconnectProfile& link, uint64_t seed,
                                    unsigned host_threads) {
  uint32_t length = logic.walk_length();
  constexpr size_t kQueryStateBytes = 48;  // cur/prev/step/rng state + path cursor

  unsigned requested = host_threads == 0 ? DefaultWorkerThreads() : host_threads;
  requested = std::clamp(requested, 1u, kMaxHostWorkers);
  unsigned workers =
      static_cast<unsigned>(std::clamp<size_t>(starts.size(), 1, requested));

  // Each worker keeps its own image of every simulated device plus private
  // migration tallies; a query's charges land on the devices that own its
  // steps. Per-query Philox subsequences make every charge a pure function
  // of (seed, query_id), so the merged totals below are identical for any
  // worker count.
  struct WorkerState {
    std::vector<DeviceContext> devices;
    uint64_t migrations = 0;
    uint64_t total_steps = 0;
  };
  std::vector<WorkerState> states(workers);
  for (WorkerState& state : states) {
    state.devices.assign(num_devices, DeviceContext(DeviceProfile::SimulatedGpu()));
  }

  // Per-migration link charge; loop-invariant, so the aggregate comm_cost is
  // recovered exactly as migrations * transfer at drain time — no
  // interleaving-dependent floating-point accumulation.
  const double transfer = static_cast<double>(kQueryStateBytes) / link.bytes_per_cost_unit +
                          link.per_message_cost;

  QueryQueue queue(starts, workers, DispenseMode::kChunkedSteal);
  auto worker_body = [&](unsigned w) {
    WorkerState& state = states[w];
    while (std::optional<QueryQueue::Query> next = queue.Next(w)) {
      QueryState q;
      q.query_id = next->id;
      q.start = next->start;
      q.cur = q.start;
      logic.Init(q);
      PhiloxStream stream(seed, next->id);
      uint32_t owner = PartitionOwner(q.cur, num_devices);
      for (uint32_t s = 0; s < length; ++s) {
        DeviceContext& device = state.devices[owner];
        WalkContext ctx{&graph, &device, nullptr, nullptr};
        KernelRng rng(stream, device.mem());
        StepResult step = ERvsJumpStep(ctx, logic, q, rng);
        ++state.total_steps;
        if (!step.ok()) {
          break;
        }
        NodeId next_node = graph.Neighbor(q.cur, step.index);
        logic.Update(ctx, q, next_node, step.index);
        device.mem().StoreCoalesced(1, sizeof(NodeId));
        uint32_t next_owner = PartitionOwner(q.cur, num_devices);
        if (next_owner != owner) {
          // Migrate the walker: serialize its state over the link. Both ends
          // pay the transfer; the fixed message cost models link latency.
          ++state.migrations;
          // Attribute the transfer as ALU-free collective cost on both ends
          // so it flows into each device's simulated time.
          state.devices[owner].mem().CountCollective(static_cast<uint64_t>(transfer / 0.2));
          state.devices[next_owner].mem().CountCollective(
              static_cast<uint64_t>(transfer / 0.2));
          owner = next_owner;
        }
      }
    }
  };

  RunOnWorkers(workers, worker_body);

  // Deterministic drain: fold each device's counters in worker-index order,
  // then derive per-device simulated time from the merged totals.
  PartitionedRunResult result;
  DeviceProfile profile = DeviceProfile::SimulatedGpu();
  for (uint32_t d = 0; d < num_devices; ++d) {
    CostCounters merged;
    for (unsigned w = 0; w < workers; ++w) {
      merged += states[w].devices[d].mem().counters();
    }
    double ms = profile.SimulatedMsFor(merged);
    result.device_sim_ms.push_back(ms);
    result.makespan_sim_ms = std::max(result.makespan_sim_ms, ms);
  }
  for (unsigned w = 0; w < workers; ++w) {
    result.migrations += states[w].migrations;
    result.total_steps += states[w].total_steps;
  }
  result.comm_cost = static_cast<double>(result.migrations) * transfer;
  return result;
}

}  // namespace flexi
