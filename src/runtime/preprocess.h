// Preprocessing kernels: materialize the per-node h_MAX / h_SUM reductions
// demanded by the compiler-generated preprocess() plan (Fig. 9d). Run once
// per (graph, workload); the paper reports their cost in Table 3 and notes
// the results are reusable across runs.
#ifndef FLEXIWALKER_SRC_RUNTIME_PREPROCESS_H_
#define FLEXIWALKER_SRC_RUNTIME_PREPROCESS_H_

#include "src/compiler/generator.h"
#include "src/walks/walk_context.h"

namespace flexi {

// Computes the reductions listed in `plan` over the graph's property
// weights, charging the scan to `device`. For unweighted graphs the arrays
// are filled with the implicit h = 1 values so downstream estimators remain
// branch-free. The node range is sharded over `host_threads` scheduler
// workers (0 = process default); each node's reduction is computed in
// isolation, so the arrays are identical for any worker count.
PreprocessedData RunPreprocess(const Graph& graph, const PreprocessPlan& plan,
                               DeviceContext& device, unsigned host_threads = 0);

// Node v's reductions, read from `graph` (the whole graph, or a block view
// holding v's row), into data.h_max[v] and data.h_sum[v]. RunPreprocess and
// the out-of-core PreprocessOutOfCore (out_of_core.h) both reduce every row
// through it, so their arrays are bit-identical.
void ReduceRow(const Graph& graph, NodeId v, PreprocessedData& data);

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_RUNTIME_PREPROCESS_H_
