// Partitioned multi-device execution — the §7.2 "larger graphs" extension.
//
// Instead of duplicating the graph on every device (Fig. 15's mode), the
// node set is hash-partitioned and each device holds only its partition's
// adjacency. A walker whose next node lives on another device must migrate:
// its query state crosses the inter-device link, paying per-hop transfer
// bytes and link latency. The paper predicts "considerable communication
// overhead due to the I/O-bound nature of random walks"; the partitioned
// bench quantifies it against graph duplication.
#ifndef FLEXIWALKER_SRC_WALKER_PARTITIONED_H_
#define FLEXIWALKER_SRC_WALKER_PARTITIONED_H_

#include <vector>

#include "src/walker/engine.h"

namespace flexi {

struct InterconnectProfile {
  // NVLink-class defaults: high bandwidth, but each migration is a small
  // latency-bound message.
  double bytes_per_cost_unit = 4096.0;  // transfer cost = bytes / this
  double per_message_cost = 8.0;        // fixed latency charge per hop
};

struct PartitionedRunResult {
  std::vector<double> device_sim_ms;
  double makespan_sim_ms = 0.0;
  uint64_t migrations = 0;      // device-crossing steps
  uint64_t total_steps = 0;
  double comm_cost = 0.0;       // aggregate interconnect cost units

  double MigrationRate() const {
    return total_steps == 0 ? 0.0
                            : static_cast<double>(migrations) / static_cast<double>(total_steps);
  }
};

// Runs walks over a hash-partitioned graph on `num_devices` simulated
// devices with eRVS sampling (the §7.1-safe kernel). Each device charges
// only the steps it owns; migrations charge the interconnect and count
// toward the destination device's queue. `host_threads` workers (0 = process
// default) claim queries as every scheduler run does, in adaptive chunks
// with stealing (query_queue.h); each worker keeps private per-device
// accounting, merged deterministically at drain time, so results are
// identical for any worker count.
PartitionedRunResult RunPartitioned(const Graph& graph, const WalkLogic& logic,
                                    std::span<const NodeId> starts, uint32_t num_devices,
                                    const InterconnectProfile& link, uint64_t seed,
                                    unsigned host_threads = 0);

// Owner device of a node under the hash partition.
uint32_t PartitionOwner(NodeId v, uint32_t num_devices);

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_WALKER_PARTITIONED_H_
