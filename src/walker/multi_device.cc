#include "src/walker/multi_device.h"

#include <algorithm>

namespace flexi {
namespace {

// Fibonacci multiplicative hash over start node ids.
uint32_t HashNode(NodeId v) {
  uint64_t x = static_cast<uint64_t>(v) * 0x9E3779B97F4A7C15ull;
  return static_cast<uint32_t>(x >> 32);
}

}  // namespace

std::vector<std::vector<NodeId>> PartitionQueries(std::span<const NodeId> starts,
                                                  uint32_t num_devices, QueryMapping mapping) {
  std::vector<std::vector<NodeId>> parts(num_devices);
  if (mapping == QueryMapping::kHash) {
    for (NodeId start : starts) {
      parts[HashNode(start) % num_devices].push_back(start);
    }
  } else {
    size_t chunk = (starts.size() + num_devices - 1) / num_devices;
    for (uint32_t d = 0; d < num_devices; ++d) {
      size_t begin = std::min(starts.size(), d * chunk);
      size_t end = std::min(starts.size(), begin + chunk);
      parts[d].assign(starts.begin() + static_cast<ptrdiff_t>(begin),
                      starts.begin() + static_cast<ptrdiff_t>(end));
    }
  }
  return parts;
}

MultiDeviceResult RunMultiDevice(const std::function<std::unique_ptr<Engine>()>& make_engine,
                                 const Graph& graph, const WalkLogic& logic,
                                 std::span<const NodeId> starts, uint32_t num_devices,
                                 QueryMapping mapping, uint64_t seed) {
  MultiDeviceResult result;
  result.num_queries = starts.size();
  auto parts = PartitionQueries(starts, num_devices, mapping);
  result.per_device.resize(num_devices);

  // Each device derives its simulated time from its own merged counters,
  // so running them in turn leaves every per-device result, and the
  // makespan, what concurrent devices would report.
  for (uint32_t d = 0; d < num_devices; ++d) {
    result.per_device[d] = make_engine()->Run(graph, logic, parts[d], seed + d);
    result.makespan_sim_ms = std::max(result.makespan_sim_ms, result.per_device[d].sim_ms);
  }
  return result;
}

}  // namespace flexi
