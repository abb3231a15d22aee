#include "perfbench/ledger.h"

#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <random>
#include <stdexcept>

#include "src/compiler/jit.h"
#include "src/compiler/step_emitter.h"
#include "src/obs/trace.h"
#include "src/walker/worker_pool.h"

namespace perfbench {
namespace {

constexpr double kProbeWalkMs = 300.0;

std::string JsonString(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

uint64_t CounterValue(const std::string& name) {
  return flexi::obs::MetricsRegistry::Global().GetCounter(name).Value();
}

uint64_t NowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

}  // namespace

void Report::Add(const std::string& name, double value, const std::string& unit,
                 uint64_t samples) {
  if (!std::isfinite(value)) {
    Unmeasured(name, "non-finite value");
    return;
  }
  metrics_.push_back({name, value, unit, samples});
}

void Report::Unmeasured(const std::string& name, const std::string& reason) {
  unmeasured_.emplace_back(name, reason);
}

void Report::PrintJson() const {
  std::string line = "{\"correct\": " + std::string(ok() ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted_) +
                     ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Entry& entry = metrics_[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", entry.value);
    line += (i == 0 ? "" : ", ") + JsonString(entry.name) + ": {\"value\": " + value +
            ", \"unit\": " + JsonString(entry.unit) +
            ", \"samples\": " + std::to_string(entry.samples) + "}";
  }
  line += "}, \"unmeasured\": {";
  for (size_t i = 0; i < unmeasured_.size(); ++i) {
    line += (i == 0 ? "" : ", ") + JsonString(unmeasured_[i].first) + ": " +
            JsonString(unmeasured_[i].second);
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

SpanLog::Scope::Scope(SpanLog* log, const char* name) : log_(log), index_(log->spans_.size()) {
  int parent = log->open_.empty() ? -1 : log->open_.back();
  log->names_.emplace_back(name);
  log->spans_.push_back({NowNanos(), 0, parent});
  log->open_.push_back(static_cast<int>(index_));
}

SpanLog::Scope::~Scope() {
  log_->spans_[index_].end = NowNanos();
  log_->open_.pop_back();
}

std::vector<double> SpanLog::SelfMs(const std::string& name) const {
  std::vector<uint64_t> self = SelfTimes(spans_);
  std::vector<double> ms;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (names_[i] == name) {
      ms.push_back(static_cast<double>(self[i]) / 1e6);
    }
  }
  return ms;
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double PeakRssMb() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

CounterDelta::CounterDelta(std::vector<std::string> names) {
  for (std::string& name : names) {
    uint64_t value = CounterValue(name);
    start_[std::move(name)] = value;
  }
}

std::map<std::string, uint64_t> CounterDelta::Deltas() const {
  std::map<std::string, uint64_t> deltas;
  for (const auto& [name, start] : start_) {
    deltas[name] = CounterValue(name) - start;
  }
  return deltas;
}

std::vector<flexi::NodeId> ShuffledStarts(flexi::NodeId num_nodes, int passes, uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x5DEECE66DULL);
  std::vector<flexi::NodeId> starts;
  starts.reserve(static_cast<size_t>(num_nodes) * passes);
  for (int pass = 0; pass < passes; ++pass) {
    size_t begin = starts.size();
    for (flexi::NodeId v = 0; v < num_nodes; ++v) {
      starts.push_back(v);
    }
    std::shuffle(starts.begin() + begin, starts.end(), rng);
  }
  return starts;
}

uint64_t SampledSteps(std::span<const flexi::NodeId> paths, uint32_t stride) {
  uint64_t steps = 0;
  for (size_t row = 0; row + stride <= paths.size(); row += stride) {
    for (uint32_t s = 1; s < stride && paths[row + s] != flexi::kInvalidNode; ++s) {
      ++steps;
    }
  }
  return steps;
}

uint64_t SampledSteps(const flexi::WalkResult& result) {
  return SampledSteps(result.paths, result.path_stride);
}

uint64_t RowHash(std::span<const flexi::NodeId> row) {
  uint64_t hash = 0xcbf29ce484222325ULL;  // FNV-1a over the node ids
  for (flexi::NodeId node : row) {
    hash = (hash ^ node) * 0x100000001b3ULL;
  }
  return hash;
}

uint64_t CountDifferingRows(const flexi::WalkResult& a, const flexi::WalkResult& b, size_t rows) {
  if (a.num_queries < rows || b.num_queries < rows || a.path_stride != b.path_stride) {
    return rows;
  }
  uint64_t differing = 0;
  for (size_t q = 0; q < rows; ++q) {
    std::span<const flexi::NodeId> x = a.Path(q);
    std::span<const flexi::NodeId> y = b.Path(q);
    differing += std::equal(x.begin(), x.end(), y.begin()) ? 0 : 1;
  }
  return differing;
}

flexi::WalkResult RepeatTimedCalls(double seconds, const std::function<flexi::WalkResult()>& call,
                                   Report& report) {
  std::vector<double> call_us;
  std::vector<double> steps_per_s;
  std::vector<double> walks_per_s;
  flexi::WalkResult first;
  Clock::time_point begin = Clock::now();
  do {
    Clock::time_point start = Clock::now();
    flexi::WalkResult result = call();
    double wall_s = SecondsSince(start);
    call_us.push_back(wall_s * 1e6);
    steps_per_s.push_back(static_cast<double>(SampledSteps(result)) / wall_s);
    walks_per_s.push_back(static_cast<double>(result.num_queries) / wall_s);
    report.Attempted(result.num_queries);
    if (call_us.size() == 1) {
      first = std::move(result);
    } else {
      report.Failed(CountDifferingRows(result, first, result.num_queries));
    }
  } while (SecondsSince(begin) < seconds);
  Summary latency = Summarize(call_us);
  report.Add("steps_per_s", Median(steps_per_s), "1/s", steps_per_s.size());
  report.Add("qps", Median(walks_per_s), "1/s", walks_per_s.size());
  report.Add("p50_us", latency.p50, "us", latency.count);
  report.Add("p99_us", latency.p99, "us", latency.count);
  return first;
}

flexi::GeneratedHelpers TimeGenerate(const flexi::WalkLogic& logic, SpanLog& spans,
                                     Report& report) {
  flexi::Generator generator;
  flexi::GeneratedHelpers helpers;
  for (int rep = 0; rep < 100; ++rep) {
    helpers =
        spans.Time("Generator::Generate", [&] { return generator.Generate(logic.program()); });
  }
  report.Add("compiler.generate_ms", spans.MedianSelfMs("Generator::Generate"), "ms", 100);
  return helpers;
}

Probe RunProbe(const flexi::Graph& graph, const flexi::WalkLogic& logic,
               const flexi::FlexiWalkerOptions& options, std::span<const flexi::NodeId> starts,
               uint64_t seed) {
  Probe probe;
  std::vector<double> ns_per_step;
  double walk_ms = 0.0;
  while (ns_per_step.size() < 3 || walk_ms < kProbeWalkMs) {
    flexi::WalkResult result = flexi::FlexiWalkerEngine(options).Run(graph, logic, starts, seed);
    probe.steps = SampledSteps(result);
    probe.cost = result.cost;
    probe.sim_ms = result.sim_ms;
    probe.rjs_share = result.selection.RjsRatio();
    walk_ms += result.wall_ms;
    ns_per_step.push_back(result.wall_ms * 1e6 /
                          static_cast<double>(std::max<uint64_t>(probe.steps, 1)));
  }
  probe.ns_per_step = Median(ns_per_step);
  probe.reps = static_cast<int>(ns_per_step.size());
  return probe;
}

void ReportProbe(const char* label, const char* metric, const Probe& probe, Report& report) {
  double steps = static_cast<double>(std::max<uint64_t>(probe.steps, 1));
  std::printf("  probe %-14s %9.1f ns/step (median of %2d) | %8llu steps | rjs %.3f | rng %.2f  "
              "random_tx %.2f  coalesced_tx %.2f  bytes %.1f per step | sim %.2f ms\n",
              label, probe.ns_per_step, probe.reps, static_cast<unsigned long long>(probe.steps),
              probe.rjs_share, probe.cost.rng_draws / steps, probe.cost.random_transactions / steps,
              probe.cost.coalesced_transactions / steps, probe.cost.bytes_read / steps,
              probe.sim_ms);
  report.Add(metric, probe.ns_per_step, "ns", probe.reps);
}

void AddSimt(Report& report, const flexi::CostCounters& cost, double sim_ms, uint64_t steps) {
  double per = 1.0 / static_cast<double>(std::max<uint64_t>(steps, 1));
  report.Add("simt.rng_draws_per_step", cost.rng_draws * per, "1/step", steps);
  report.Add("simt.random_tx_per_step", cost.random_transactions * per, "1/step", steps);
  report.Add("simt.coalesced_tx_per_step", cost.coalesced_transactions * per, "1/step", steps);
  report.Add("simt.bytes_read_per_step", cost.bytes_read * per, "B/step", steps);
  report.Add("simt.sim_ms", sim_ms, "ms", steps);
}

std::vector<std::string> WalkerCounterNames() {
  return {"flexi_scheduler_steps_total", "flexi_scheduler_batches_total",
          "flexi_scheduler_steals_total", "flexi_scheduler_refills_total",
          "flexi_worker_wakes_total",    "flexi_worker_busy_us_total"};
}

void AddWalkerCounters(Report& report, const std::map<std::string, uint64_t>& deltas,
                       double wall_s) {
  double steps = static_cast<double>(deltas.at("flexi_scheduler_steps_total"));
  uint64_t batches = deltas.at("flexi_scheduler_batches_total");
  double thread_us = wall_s * 1e6 * flexi::DefaultWorkerThreads();
  report.Add("worker_pool.busy_share", deltas.at("flexi_worker_busy_us_total") / thread_us,
             "ratio");
  if (batches == 0 || steps == 0) {
    for (const char* name :
         {"scheduler.steals", "scheduler.refills", "worker_pool.wakes_per_batch"}) {
      report.Unmeasured(name, "no WalkScheduler batch ran in the measured phase");
    }
    return;
  }
  report.Add("scheduler.steals", deltas.at("flexi_scheduler_steals_total") * 1e6 / steps,
             "1/Mstep", batches);
  report.Add("scheduler.refills", deltas.at("flexi_scheduler_refills_total") * 1e6 / steps,
             "1/Mstep", batches);
  report.Add("worker_pool.wakes_per_batch",
             static_cast<double>(deltas.at("flexi_worker_wakes_total")) / batches, "1/batch",
             batches);
}

std::string CompileStepKernel(const flexi::WalkLogic& logic, bool static_tables,
                              const std::string& workdir, Report& report) {
  flexi::jit::StepKernelSpec spec;
  spec.use_static_tables = static_tables;
  std::string reject_reason;
  std::string source = flexi::jit::EmitStepKernelSource(logic.program(), spec, &reject_reason);
  if (source.empty()) {
    report.Unmeasured("compiler.jit_compile_ms", "unsupported_program: " + reject_reason);
    return "";
  }
  std::string dir = workdir + "/jit-cache";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  Clock::time_point start = Clock::now();
  std::shared_ptr<flexi::jit::JitKernel> kernel =
      flexi::jit::KernelCache::Global().GetOrCompile(source, dir, /*async=*/false);
  bool ready = kernel->WaitReady();
  double ms = SecondsSince(start) * 1e3;
  if (!ready) {
    std::string reason = kernel->fallback_reason() + " (" + kernel->detail() + ")";
    std::printf("  jit compile unavailable: %s\n", reason.c_str());
    report.Unmeasured("compiler.jit_compile_ms", reason);
    return "";
  }
  std::printf("  jit compile (empty cache): %.1f ms\n", ms);
  report.Add("compiler.jit_compile_ms", ms, "ms");
  return dir;
}

double TraceOverheadRatio(double seconds, const std::function<double()>& call) {
  flexi::obs::TraceRing& ring = flexi::obs::TraceRing::Global();
  call();  // warm-up: the first call pays cold caches on either side
  std::vector<double> off;
  std::vector<double> on;
  Clock::time_point start = Clock::now();
  while (off.size() < 2 || on.size() < 2 || SecondsSince(start) < seconds) {
    bool traced = on.size() < off.size();
    if (traced) {
      ring.Enable(kRingSpans);
    } else {
      ring.Disable();
    }
    (traced ? on : off).push_back(call());
  }
  ring.Disable();
  return Median(on) / Median(off);
}

}  // namespace perfbench

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload node2vec-oneshot|deepwalk-serve|ppr-outofcore --seed <n> "
               "--seconds <s> --trace 0|1 --workdir <dir>\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--workdir") {
        args.workdir = value;
      } else {
        return Usage(argv[0]);
      }
    } catch (const std::exception&) {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || args.workdir.empty() || !(args.seconds > 0.0)) {
    return Usage(argv[0]);
  }
  std::filesystem::create_directories(args.workdir);

  perfbench::Report report;
  try {
    if (args.workload == "node2vec-oneshot") {
      perfbench::RunNode2VecOneshot(args, report);
    } else if (args.workload == "deepwalk-serve") {
      perfbench::RunDeepWalkServe(args, report);
    } else if (args.workload == "ppr-outofcore") {
      perfbench::RunPprOutOfCore(args, report);
    } else {
      return Usage(argv[0]);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  report.PrintJson();
  return report.ok() ? 0 : 1;
}
