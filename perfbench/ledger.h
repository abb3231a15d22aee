// The ledger binary: one process runs one workload (node2vec-oneshot,
// deepwalk-serve or ppr-outofcore), checks its outputs, and prints one JSON
// line of measured metrics. Untraced runs measure the end-to-end metrics
// under program defaults (metrics registry on, trace ring off); a traced run
// (--trace 1) measures the per-layer metrics instead. README.md in this
// directory lists every workload and metric.
#ifndef FLEXIWALKER_PERFBENCH_LEDGER_H_
#define FLEXIWALKER_PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/reducers.h"
#include "src/walker/flexiwalker_engine.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory inside the checkout: block files and JIT caches.
  std::string workdir;
};

// One run's metrics and output-check tally, printed as the last stdout line.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit, uint64_t samples = 1);
  // A metric this run set out to measure but could not, with the reason.
  void Unmeasured(const std::string& name, const std::string& reason);
  // Output checks: `n` walks or requests attempted, `n` of them failed.
  void Attempted(uint64_t n) { attempted_ += n; }
  void Failed(uint64_t n) { failed_ += n; }

  bool ok() const { return attempted_ > 0 && failed_ == 0; }
  void PrintJson() const;

 private:
  struct Entry {
    std::string name;
    double value = 0.0;
    std::string unit;
    uint64_t samples = 0;
  };
  std::vector<Entry> metrics_;
  std::vector<std::pair<std::string, std::string>> unmeasured_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// The benchmark's own spans around public calls: a call tree on the main
// thread, in steady-clock nanoseconds. Recorded in every run — set-up time
// comes from them — and reduced to per-layer self times when traced.
class SpanLog {
 public:
  template <typename Fn>
  decltype(auto) Time(const char* name, Fn&& fn) {
    Scope scope(this, name);
    return fn();
  }
  // Self times (ms) of every span named `name`, in recording order.
  std::vector<double> SelfMs(const std::string& name) const;
  double MedianSelfMs(const std::string& name) const { return Median(SelfMs(name)); }

 private:
  class Scope {
   public:
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    size_t index_;
  };
  std::vector<std::string> names_;
  std::vector<TreeSpan> spans_;
  std::vector<int> open_;
};

using Clock = std::chrono::steady_clock;
double SecondsSince(Clock::time_point start);

// Process peak resident set (getrusage high-water mark), in MiB.
double PeakRssMb();

// Counter movement across a phase: Deltas()[name] = now - at construction.
class CounterDelta {
 public:
  explicit CounterDelta(std::vector<std::string> names);
  std::map<std::string, uint64_t> Deltas() const;

 private:
  std::map<std::string, uint64_t> start_;
};

// Every node id in [0, num_nodes), `passes` times, each pass shuffled by a
// PRNG seeded from `seed` — the walk starts the seed generates.
std::vector<flexi::NodeId> ShuffledStarts(flexi::NodeId num_nodes, int passes, uint64_t seed);

// Walk transitions actually written (dead ends end a row early).
uint64_t SampledSteps(const flexi::WalkResult& result);
uint64_t SampledSteps(std::span<const flexi::NodeId> paths, uint32_t stride);

// Order-sensitive hash of one path row: the output checks compare served or
// repeated rows by hash instead of holding every row twice.
uint64_t RowHash(std::span<const flexi::NodeId> row);

// Rows among the first `rows` of `a` that differ from `b`'s; every row
// counts when either result is shorter or the strides differ.
uint64_t CountDifferingRows(const flexi::WalkResult& a, const flexi::WalkResult& b, size_t rows);

// The end-to-end loop of a one-shot workload: `call`, one timed walk call
// over the same input, repeats until `seconds` elapse, and every call must
// reproduce the first call's rows. Reports steps_per_s and qps (medians over
// calls) and p50_us/p99_us of the call latency; returns the first call's
// result for the output checks.
flexi::WalkResult RepeatTimedCalls(double seconds, const std::function<flexi::WalkResult()>& call,
                                   Report& report);

// compiler.generate_ms: Generator::Generate on `logic`'s program, median of
// 100 calls. Returns the generated helpers.
flexi::GeneratedHelpers TimeGenerate(const flexi::WalkLogic& logic, SpanLog& spans,
                                     Report& report);

// A kernel probe: FlexiWalkerEngine runs over `starts` with `options`, at
// least 3 of them and until 300 ms of walking is done, so a fast kernel's
// figure does not rest on three runs of a few milliseconds each. ns per
// sampled step from the walk phase's own wall clock (WalkResult::wall_ms
// excludes preparation), median over the reps. The simt counters are exact
// and identical across reps.
struct Probe {
  double ns_per_step = 0.0;
  int reps = 0;
  uint64_t steps = 0;
  flexi::CostCounters cost;
  double sim_ms = 0.0;
  double rjs_share = 0.0;
};
Probe RunProbe(const flexi::Graph& graph, const flexi::WalkLogic& logic,
               const flexi::FlexiWalkerOptions& options, std::span<const flexi::NodeId> starts,
               uint64_t seed);
// Prints the probe's table row and reports its ns per step as `metric`.
void ReportProbe(const char* label, const char* metric, const Probe& probe, Report& report);

// simt.* per-layer metrics from a run's exact device-model counters.
void AddSimt(Report& report, const flexi::CostCounters& cost, double sim_ms, uint64_t steps);

// Scheduler and worker-pool metrics from registry deltas over a phase of
// `wall_s` seconds: steals and refills per million steps, busy share of
// the pool's thread-seconds, and wakes per scheduler batch.
std::vector<std::string> WalkerCounterNames();
void AddWalkerCounters(Report& report, const std::map<std::string, uint64_t>& deltas,
                       double wall_s);

// A synchronous compile of `logic`'s step kernel into an empty cache
// directory under `workdir`: compiler.jit_compile_ms, or the fallback reason
// when no kernel could be built. Returns the cache directory on success
// (empty on failure) so the compiled probe reuses the kernel.
std::string CompileStepKernel(const flexi::WalkLogic& logic, bool static_tables,
                              const std::string& workdir, Report& report);

// Trace ring capacity for traced runs: holds the last ~0.8 s of
// deepwalk-serve traffic (three spans per request plus four per batch).
inline constexpr size_t kRingSpans = size_t{1} << 19;

// obs.trace_overhead_ratio for a one-shot workload: runs `call` (returns its
// wall seconds) alternately with the trace ring off and on until `seconds`
// elapse, at least twice each, and returns median(on) / median(off).
double TraceOverheadRatio(double seconds, const std::function<double()>& call);

void RunNode2VecOneshot(const Args& args, Report& report);
void RunDeepWalkServe(const Args& args, Report& report);
void RunPprOutOfCore(const Args& args, Report& report);

}  // namespace perfbench

#endif  // FLEXIWALKER_PERFBENCH_LEDGER_H_
