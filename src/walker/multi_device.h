// Multi-device (multi-GPU) execution (§6.6): the graph is duplicated on
// every device and walk queries are partitioned across devices. The paper
// found hash-based start-node mapping balances load better than naive range
// mapping; both are implemented so the Fig. 15 bench can compare them.
#ifndef FLEXIWALKER_SRC_WALKER_MULTI_DEVICE_H_
#define FLEXIWALKER_SRC_WALKER_MULTI_DEVICE_H_

#include <functional>
#include <vector>

#include "src/walker/engine.h"

namespace flexi {

enum class QueryMapping { kHash, kRange };

struct MultiDeviceResult {
  std::vector<WalkResult> per_device;
  // Simulated makespan: the slowest device bounds the run.
  double makespan_sim_ms = 0.0;
  // Aggregate queries processed.
  size_t num_queries = 0;

  double SpeedupOver(double single_device_sim_ms) const {
    return makespan_sim_ms > 0.0 ? single_device_sim_ms / makespan_sim_ms : 0.0;
  }
};

// Partitions `starts` over `num_devices` by the chosen mapping.
std::vector<std::vector<NodeId>> PartitionQueries(std::span<const NodeId> starts,
                                                  uint32_t num_devices, QueryMapping mapping);

// Runs `make_engine()`-produced engines, one per device, each over its query
// partition d at seed + d. The devices run one after another, each engine
// on the whole worker pool; the simulated devices are concurrent only in
// the makespan, the slowest device's counter-derived sim_ms, which is what
// Fig. 15 aggregates.
MultiDeviceResult RunMultiDevice(const std::function<std::unique_ptr<Engine>()>& make_engine,
                                 const Graph& graph, const WalkLogic& logic,
                                 std::span<const NodeId> starts, uint32_t num_devices,
                                 QueryMapping mapping, uint64_t seed);

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_WALKER_MULTI_DEVICE_H_
