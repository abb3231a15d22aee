// Flexi-Compiler code generator (Fig. 9d): emits the preprocess() plan and
// the get_weight_max() / get_weight_sum() helper functions.
//
// In the paper the generator emits CUDA source that is compiled into the
// framework; here the "generated code" is a pair of specialized evaluators
// over the analyzed branch expressions, plus a PreprocessPlan stating which
// per-node reductions (h_MAX, h_SUM) the runtime must materialize. The
// evaluators are semantically the generated functions of Fig. 9d:
//
//   get_weight_max(): substitute h -> h_MAX[cur] and the degree terms with
//     their exact per-step values, then fold max over all branch returns.
//     The result upper-bounds max_i w̃(i), the eRJS bound (§3.3).
//
//   get_weight_sum(): substitute h -> h_SUM[cur], accumulate all branch
//     returns weighted by branch selectivity (uniform 1/N when unknown,
//     exactly Fig. 9d's "divide by the number of unique return values"),
//     emulating Σ w̃ ≈ Σ w_i · E[h] (Eq. 12). PER_KERNEL programs multiply
//     the branch average by the degree instead.
//
// Generate() does the substitution ahead of time where it can: a branch
// whose return is h, a scalar atom s (const, aux-pow, time-decay) or h × s
// becomes a folded term (uses_h, factor, share), so a step's helpers are
// one h load and a multiply-max (resp. multiply-add) per branch, with no
// tree walk and no per-step degree terms. The folded arithmetic is the
// tree's, operation for operation, so both give bit-identical values. Only
// programs whose returns read degree atoms (2nd-order PR) or nest deeper
// keep evaluating the expression trees each step.
#ifndef FLEXIWALKER_SRC_COMPILER_GENERATOR_H_
#define FLEXIWALKER_SRC_COMPILER_GENERATOR_H_

#include <string>
#include <vector>

#include "src/compiler/analyzer.h"
#include "src/walks/walk_context.h"

namespace flexi {

struct PreprocessPlan {
  bool need_h_max = false;
  bool need_h_sum = false;
};

// The generated helper bundle. Copyable; holds the analysis by value.
class GeneratedHelpers {
 public:
  // One branch return with the generator's substitution done: the value is
  // factor, times h when uses_h; share is its Σ̂ weight (the branch
  // selectivity, or 1/N when unknown).
  struct FoldedTerm {
    bool uses_h = false;
    double factor = 1.0;
    double share = 0.0;
  };

  GeneratedHelpers() = default;

  // True when the analyzer accepted the program and helpers are usable.
  bool valid() const { return valid_; }
  BoundGranularity granularity() const { return analysis_.granularity; }
  const PreprocessPlan& plan() const { return plan_; }

  // Upper bound on max_i w̃(i) for the current step. Requires
  // ctx.preprocessed when the plan demands h reductions.
  double WeightMax(const WalkContext& ctx, const QueryState& q) const;

  // First-order estimate of Σ_i w̃(i) for the current step.
  double WeightSum(const WalkContext& ctx, const QueryState& q) const;

  // Human-readable rendering of the generated helpers, akin to the source
  // the paper's generator emits (useful for docs/tests/examples).
  std::string EmitSource() const;

  // True when every branch folded, so the helpers never walk a tree.
  bool folded() const { return folded_; }

 private:
  friend class Generator;
  bool valid_ = false;
  AnalysisResult analysis_;
  PreprocessPlan plan_;
  std::string workload_name_;
  // One term per analyzed branch; uses_h and factor are meaningful only
  // when folded_ (otherwise the trees in analysis_ are evaluated).
  std::vector<FoldedTerm> terms_;
  bool folded_ = false;
};

class Generator {
 public:
  // Analyzes and generates in one pass. On unsupported programs the returned
  // bundle has valid() == false (the §7.1 eRVS-only fallback signal).
  GeneratedHelpers Generate(const WeightProgram& program) const;
};

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_COMPILER_GENERATOR_H_
