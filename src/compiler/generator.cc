#include "src/compiler/generator.h"

#include <algorithm>
#include <sstream>

namespace flexi {
namespace {

// Evaluates a branch expression with h substituted by `h_value` and degree
// terms by their per-step values (Fig. 9d's dummy-variable substitution).
double EvalExpr(const WeightExpr& expr, double h_value, double inv_deg_cur,
                double inv_deg_prev, double max_deg) {
  switch (expr.kind) {
    case ExprKind::kConst:
      return expr.value;
    case ExprKind::kPropertyWeight:
      return h_value;
    case ExprKind::kInvDegreeCur:
      return inv_deg_cur;
    case ExprKind::kInvDegreePrev:
      return inv_deg_prev;
    case ExprKind::kMaxDegreeCurPrev:
      return max_deg;
    case ExprKind::kAdd:
      return EvalExpr(*expr.left, h_value, inv_deg_cur, inv_deg_prev, max_deg) +
             EvalExpr(*expr.right, h_value, inv_deg_cur, inv_deg_prev, max_deg);
    case ExprKind::kMul:
      return EvalExpr(*expr.left, h_value, inv_deg_cur, inv_deg_prev, max_deg) *
             EvalExpr(*expr.right, h_value, inv_deg_cur, inv_deg_prev, max_deg);
    case ExprKind::kAuxPow:
      // alpha^(1+aux) <= alpha for alpha in (0,1] and aux >= 0: the stored
      // base is itself the tight upper bound (and the sum estimate).
      return expr.value;
    case ExprKind::kTimeDecay:
      // exp(-lambda*(t[e]-aux)) <= 1 on time-respecting branches.
      return 1.0;
    case ExprKind::kOpaque:
      return 0.0;
  }
  return 0.0;
}

struct StepVars {
  double inv_deg_cur = 1.0;
  double inv_deg_prev = 1.0;
  double max_deg = 1.0;
};

StepVars ComputeStepVars(const WalkContext& ctx, const QueryState& q) {
  StepVars vars;
  double dc = std::max<uint32_t>(ctx.graph->Degree(q.cur), 1);
  vars.inv_deg_cur = 1.0 / dc;
  if (q.prev != kInvalidNode) {
    double dp = std::max<uint32_t>(ctx.graph->Degree(q.prev), 1);
    vars.inv_deg_prev = 1.0 / dp;
    vars.max_deg = std::max(dc, dp);
  } else {
    vars.inv_deg_prev = vars.inv_deg_cur;
    vars.max_deg = dc;
  }
  return vars;
}

bool IsScalarAtom(const WeightExpr& expr) {
  return expr.kind == ExprKind::kConst || expr.kind == ExprKind::kAuxPow ||
         expr.kind == ExprKind::kTimeDecay;
}

// Folds a branch return of the form h, s, h × s or s × h (s a scalar atom)
// into `term`; false for any other shape. s takes the value EvalExpr gives
// it, so folded and tree helpers read every atom alike. The products agree
// bit for bit: IEEE multiplication commutes, and a bare h is h × 1.0, which
// is exact.
bool FoldReturn(const WeightExpr& expr, GeneratedHelpers::FoldedTerm& term) {
  const WeightExpr* scalar = &expr;
  if (expr.kind == ExprKind::kPropertyWeight) {
    term.uses_h = true;
    return true;
  }
  if (expr.kind == ExprKind::kMul) {
    bool h_left = expr.left->kind == ExprKind::kPropertyWeight;
    bool h_right = expr.right->kind == ExprKind::kPropertyWeight;
    if (h_left == h_right) {
      return false;  // h × h, or a product without h
    }
    scalar = h_left ? expr.right.get() : expr.left.get();
    term.uses_h = true;
  }
  if (!IsScalarAtom(*scalar)) {
    return false;
  }
  term.factor = EvalExpr(*scalar, 1.0, 1.0, 1.0, 1.0);
  return true;
}

}  // namespace

GeneratedHelpers Generator::Generate(const WeightProgram& program) const {
  GeneratedHelpers helpers;
  helpers.workload_name_ = program.workload_name;
  Analyzer analyzer;
  helpers.analysis_ = analyzer.Analyze(program);
  helpers.valid_ = helpers.analysis_.supported;
  if (helpers.valid_) {
    helpers.plan_.need_h_max = helpers.analysis_.uses_property_weight;
    helpers.plan_.need_h_sum = helpers.analysis_.uses_property_weight;
  }
  const std::vector<BranchAnalysis>& branches = helpers.analysis_.branches;
  double uniform_share = 1.0 / static_cast<double>(branches.size());
  helpers.folded_ = true;
  for (const BranchAnalysis& branch : branches) {
    GeneratedHelpers::FoldedTerm term;
    term.share = branch.selectivity >= 0.0 ? branch.selectivity : uniform_share;
    helpers.folded_ = FoldReturn(branch.return_expr, term) && helpers.folded_;
    helpers.terms_.push_back(term);
  }
  return helpers;
}

double GeneratedHelpers::WeightMax(const WalkContext& ctx, const QueryState& q) const {
  // h -> per-node maximum (preprocessed); 1.0 on unweighted graphs.
  double h_max = 1.0;
  if (plan_.need_h_max && ctx.preprocessed != nullptr && !ctx.preprocessed->empty()) {
    h_max = ctx.preprocessed->h_max[q.cur];
    // The host keeps h_MAX and h_SUM as two arrays, but the device model
    // charges them as the GPU layout reads them: one packed float2 per
    // node, a single 8-byte load that the companion WeightSum call rides
    // on. It goes out alongside the step's first adjacency transaction
    // and hides in its latency, so its marginal cost is one transaction of
    // bandwidth, not a serialized random access.
    ctx.mem().LoadCoalesced(1, 2 * sizeof(float));
  }
  double best = 0.0;
  if (folded_) {
    for (const FoldedTerm& term : terms_) {
      best = std::max(best, term.uses_h ? h_max * term.factor : term.factor);
    }
  } else {
    StepVars vars = ComputeStepVars(ctx, q);
    for (const BranchAnalysis& branch : analysis_.branches) {
      best = std::max(best, EvalExpr(branch.return_expr, h_max, vars.inv_deg_cur,
                                     vars.inv_deg_prev, vars.max_deg));
    }
  }
  ctx.mem().CountAlu(2 * terms_.size());
  // Kernels evaluate transition weights in float; pad by one float ulp-scale
  // factor so the bound dominates the rounded weights too.
  return best * (1.0 + 1e-6);
}

double GeneratedHelpers::WeightSum(const WalkContext& ctx, const QueryState& q) const {
  double degree = std::max<uint32_t>(ctx.graph->Degree(q.cur), 1);
  double h_sum = 1.0;
  bool per_step_h = plan_.need_h_sum && ctx.preprocessed != nullptr && !ctx.preprocessed->empty();
  if (per_step_h) {
    // Shares the packed float2 transaction charged by WeightMax.
    h_sum = ctx.preprocessed->h_sum[q.cur];
  }
  // Accumulate possible return values, each weighted by its branch's share
  // (Fig. 9d). For PER_STEP h-indexed programs, h_SUM already aggregates
  // over the degree, so an h term scales it directly; without h
  // aggregation the sum is emulated as the per-edge average times the
  // degree (PER_KERNEL path in Fig. 9d).
  double total = 0.0;
  if (folded_) {
    for (const FoldedTerm& term : terms_) {
      double value = term.uses_h && per_step_h ? h_sum * term.factor : term.factor * degree;
      total += term.share * value;
    }
  } else {
    StepVars vars = ComputeStepVars(ctx, q);
    for (size_t i = 0; i < terms_.size(); ++i) {
      const BranchAnalysis& branch = analysis_.branches[i];
      bool h_aggregated = branch.uses_property_weight && per_step_h;
      double value = EvalExpr(branch.return_expr, h_aggregated ? h_sum : 1.0, vars.inv_deg_cur,
                              vars.inv_deg_prev, vars.max_deg);
      if (!h_aggregated) {
        value *= degree;
      }
      total += terms_[i].share * value;
    }
  }
  ctx.mem().CountAlu(3 * terms_.size());
  return total;
}

std::string GeneratedHelpers::EmitSource() const {
  std::ostringstream out;
  out << "// generated by Flexi-Compiler for workload '" << workload_name_ << "'\n";
  if (!valid_) {
    out << "// program unsupported: eRVS-only fallback\n";
    return out.str();
  }
  if (plan_.need_h_max || plan_.need_h_sum) {
    out << "preprocess(graph) {\n";
    if (plan_.need_h_max) {
      out << "  h_MAX[] = per_node_max(h);\n";
    }
    if (plan_.need_h_sum) {
      out << "  h_SUM[] = per_node_sum(h);\n";
    }
    out << "}\n";
  }
  out << "get_weight_max(curr, prev) {\n  max_val = 0;\n";
  for (const BranchAnalysis& branch : analysis_.branches) {
    out << "  max_val = max(max_val, " << branch.return_expr.ToString() << ");\n";
  }
  out << "  return max_val;  // h := h_MAX[curr]\n}\n";
  // WeightSum's terms: each branch weighted by its share; h aggregated as
  // h_SUM[curr] where the plan preprocesses it, any other term scaled by
  // the degree (the per-edge value summed over the row).
  out << "get_weight_sum(curr, prev) {\n  sum_val = 0;\n";
  for (size_t i = 0; i < terms_.size(); ++i) {
    const BranchAnalysis& branch = analysis_.branches[i];
    std::string value = branch.return_expr.ToString();
    if (branch.uses_property_weight && plan_.need_h_sum) {
      for (size_t at = value.find("h[e]"); at != std::string::npos; at = value.find("h[e]", at)) {
        value.replace(at, 4, "h_SUM[curr]");
      }
    } else {
      value += " * deg(curr)";
    }
    out << "  sum_val += " << terms_[i].share << " * " << value << ";\n";
  }
  out << "  return sum_val;\n}\n";
  return out.str();
}

}  // namespace flexi
