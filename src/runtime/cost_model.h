// Flexi-Runtime: the first-order cost model that picks the faster sampling
// kernel per node per step (§4.1), and the lightweight profiling kernels
// that calibrate its EdgeCost ratio (§5.1).
//
//   Cost_RVS = EdgeCost_RVS * degree                           (Eq. 9)
//   Cost_RJS = EdgeCost_RJS * degree * max_i(w̃) / Σ_i(w̃)      (Eq. 10)
//
// Prefer eRJS iff (EdgeCost_RJS / EdgeCost_RVS) * max̂ < Σ̂     (Eq. 11)
// with max̂ the compiler-generated upper bound and Σ̂ the generated sum
// estimate (Eq. 12) — both O(1) per step.
#ifndef FLEXIWALKER_SRC_RUNTIME_COST_MODEL_H_
#define FLEXIWALKER_SRC_RUNTIME_COST_MODEL_H_

#include <cstdint>

#include "src/compiler/generator.h"
#include "src/rng/philox.h"
#include "src/walks/walk_context.h"
#include "src/walks/walk_logic.h"

namespace flexi {

// Strategy used to choose between eRJS and eRVS per step. kCostModel is
// FlexiWalker proper; the others exist for the Fig. 13 sensitivity study
// and the Fig. 11 ablations.
enum class SelectionStrategy {
  kCostModel,
  kRandom,
  kDegreeThreshold,  // RVS below 1K degree, RJS above (Fig. 13 baseline)
  kAlwaysRvs,
  kAlwaysRjs,
};

// The EdgeCost ratio of the host CPU that executes the walks: equal
// per-edge costs. eRVS evaluates every neighbour's weight, eRJS one per
// trial, so Eq. 11 then reads "eRJS when its expected trials,
// deg·max̂/Σ̂, are fewer than the degree". A constant, never a wall-clock
// measurement: paths depend on the ratio, and seed + query id -> path must
// hold on every machine.
inline constexpr double kHostEdgeCostRatio = 1.0;

struct CostModelParams {
  // EdgeCost_RJS / EdgeCost_RVS (Eq. 11). Profiled on the simulated GPU
  // (§5.1), where eRJS's random accesses cost more than eRVS's coalesced
  // scans, it is > 1 (21.5 on EU node2vec); on the host it is
  // kHostEdgeCostRatio.
  double edge_cost_ratio = kHostEdgeCostRatio;
  uint32_t degree_threshold = 1000;  // for kDegreeThreshold
};

struct SelectionCounters {
  uint64_t chose_rjs = 0;
  uint64_t chose_rvs = 0;

  // Workers keep private selectors; the engine folds their counters together
  // at drain time, mirroring the scheduler's CostCounters merge.
  SelectionCounters& operator+=(const SelectionCounters& other) {
    chose_rjs += other.chose_rjs;
    chose_rvs += other.chose_rvs;
    return *this;
  }

  double RjsRatio() const {
    uint64_t total = chose_rjs + chose_rvs;
    return total == 0 ? 0.0 : static_cast<double>(chose_rjs) / static_cast<double>(total);
  }
};

// Per-step sampler choice. `helpers` must be the generated bundle for the
// running workload; when it is invalid (§7.1 fallback) the selector always
// answers eRVS regardless of strategy.
class SamplerSelector {
 public:
  SamplerSelector(SelectionStrategy strategy, CostModelParams params,
                  const GeneratedHelpers* helpers)
      : strategy_(strategy), params_(params), helpers_(helpers) {}

  // True => run eRJS for this step; false => eRVS. `selector_rng` drives the
  // kRandom strategy only.
  bool PreferRjs(const WalkContext& ctx, const QueryState& q, double* bound_out,
                 PhiloxStream& selector_rng);

  const SelectionCounters& counters() const { return counters_; }
  SelectionStrategy strategy() const { return strategy_; }

 private:
  SelectionStrategy strategy_;
  CostModelParams params_;
  const GeneratedHelpers* helpers_;
  SelectionCounters counters_;
};

// Profiling kernels (§5.1): measure the per-edge cost of random-access
// (RJS-style) vs sequential (RVS-style) weight evaluation over a small node
// sample, returning the calibrated EdgeCost ratio. The sampled work touches
// `sample_nodes` nodes and at most `neighbors_per_node` neighbors each.
// The sample is sharded over `host_threads` workers (0 = process default);
// each sample draws from its own Philox subsequence, so the sampled nodes,
// the charged traffic, and the returned ratio are identical for any worker
// count. All traffic is merged into `device` when the kernels drain.
double ProfileEdgeCostRatio(const Graph& graph, const WalkLogic& logic, DeviceContext& device,
                            uint32_t sample_nodes = 256, uint32_t neighbors_per_node = 32,
                            uint64_t seed = 0x9E0F11E5, unsigned host_threads = 0);

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_RUNTIME_COST_MODEL_H_
