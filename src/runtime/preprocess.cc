#include "src/runtime/preprocess.h"

#include <algorithm>

#include "src/walker/scheduler.h"

namespace flexi {

PreprocessedData RunPreprocess(const Graph& graph, const PreprocessPlan& plan,
                               DeviceContext& device, unsigned host_threads) {
  PreprocessedData data;
  if (!plan.need_h_max && !plan.need_h_sum) {
    return data;
  }
  NodeId n = graph.num_nodes();
  data.h_max.assign(n, 1.0f);
  data.h_sum.assign(n, 0.0f);
  // One coalesced pass over the full weight array plus the output stores.
  // The charge is a closed formula over the graph, so it stays on the
  // caller's device regardless of how the compute below is sharded.
  device.mem().LoadCoalesced(1, graph.num_edges() * sizeof(float));
  device.mem().StoreCoalesced(1, static_cast<size_t>(n) * 2 * sizeof(float));
  device.mem().CountAlu(graph.num_edges() * 2);
  unsigned workers = host_threads == 0 ? DefaultWorkerThreads() : host_threads;
  ParallelForRanges(workers, n, [&](unsigned, size_t begin, size_t end) {
    for (NodeId v = static_cast<NodeId>(begin); v < static_cast<NodeId>(end); ++v) {
      ReduceRow(graph, v, data);
    }
  });
  return data;
}

void ReduceRow(const Graph& graph, NodeId v, PreprocessedData& data) {
  uint32_t degree = graph.Degree(v);
  float max_h = 0.0f;
  float sum_h = 0.0f;
  for (uint32_t i = 0; i < degree; ++i) {
    float h = graph.PropertyWeight(graph.EdgesBegin(v) + i);
    max_h = std::max(max_h, h);
    sum_h += h;
  }
  data.h_max[v] = degree == 0 ? 1.0f : max_h;
  data.h_sum[v] = sum_h;
}

}  // namespace flexi
