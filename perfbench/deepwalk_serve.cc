// deepwalk-serve: a WalkServer set up as `flexiwalker_cli --listen
// --static-cache` sets it up — epoll event loop, 200 µs adaptive coalesce
// window, max batch 512, pipeline depth 2, blocking admission — serving
// DeepWalk of length 16 on cached alias tables over the YT stand-in.
//
// Load: a closed loop on 2 connections, each keeping 64 single-start
// requests in flight, as a trainer keeps a fixed window of requests
// outstanding (2 sender threads plus the 2 WalkClient reader threads equal
// the 4 cores this was tuned on). A closed loop rather than an open one
// because open-loop p99 at a fixed rate swung 1.9-3.1 ms over identical
// runs, with the generator itself running late. About 2/3 of such a
// request's cost lies outside the walk — server, coalescer, service and pool
// hand-offs — and eRJS/eRVS are bypassed.
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <random>
#include <stdexcept>
#include <thread>

#include "perfbench/ledger.h"
#include "src/graph/datasets.h"
#include "src/net/walk_client.h"
#include "src/net/walk_server.h"
#include "src/obs/trace.h"
#include "src/runtime/preprocess.h"
#include "src/walker/walk_service.h"
#include "src/walks/deepwalk.h"

namespace perfbench {
namespace {

using flexi::FlexiWalkerEngine;
using flexi::FlexiWalkerOptions;
using flexi::Graph;
using flexi::NodeId;
using flexi::WalkClient;
using flexi::WalkResult;
using flexi::WalkServer;
using flexi::WalkService;

// Set-up takes ~10 ms here, so its median needs many repetitions to hold
// still from run to run.
constexpr int kSetupReps = 25;
constexpr int kConnections = 2;
constexpr int kInFlight = 64;  // per connection
constexpr unsigned kPipelineDepth = 2;
constexpr double kWarmupS = 0.5;
constexpr int kPrepReps = 9;
constexpr size_t kProbeQueries = 65536;
constexpr int kBatchProbes = 200;
// Requests one run can record: a 30 s window at up to ~200k requests/s.
// The ledger's arrays are allocated and touched up front, so peak_rss_mb
// carries the same fixed ledger cost on every run instead of growing with
// throughput.
constexpr size_t kMaxRequests = size_t{6} << 20;

FlexiWalkerOptions ServingOptions() {
  FlexiWalkerOptions options;  // profiled ratio, interpreted, pool default threads
  options.cache_static_tables = true;
  return options;
}

WalkServer::Options ServerOptions() {
  WalkServer::Options options;  // event loop, one event thread, ephemeral port
  options.coalescer.max_delay_ms = 0.2;
  options.coalescer.adaptive_window = true;
  options.coalescer.max_batch_queries = 512;
  options.coalescer.max_outstanding_queries = size_t{1} << 16;
  options.coalescer.overflow = flexi::BatchCoalescer::OverflowPolicy::kBlock;
  return options;
}

// One serving stack plus the load generator's connected clients. Members
// tear down in reverse order: clients close, the server stops, then the
// service shuts down — the order WalkServer requires.
struct Stack {
  Graph graph;
  std::unique_ptr<WalkService> service;
  std::unique_ptr<WalkServer> server;
  std::vector<std::unique_ptr<WalkClient>> clients;
};

std::unique_ptr<Stack> SetUp(const Args& args, const flexi::WalkLogic& walk, SpanLog& spans,
                             std::vector<double>& setup_s) {
  std::unique_ptr<Stack> stack;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    stack.reset();
    Clock::time_point start = Clock::now();
    spans.Time("setup", [&] {
      stack = std::make_unique<Stack>();
      stack->graph = spans.Time("LoadDataset", [] {
        return flexi::LoadDataset(flexi::DatasetByName("YT"), flexi::WeightDistribution::kUniform);
      });
      stack->service = spans.Time("MakeFlexiWalkerService", [&] {
        return flexi::MakeFlexiWalkerService(stack->graph, walk, ServingOptions(), args.seed,
                                             kPipelineDepth);
      });
      std::string error;
      spans.Time("WalkServer::Start", [&] {
        stack->server = std::make_unique<WalkServer>(*stack->service, stack->graph.num_nodes(),
                                                     ServerOptions());
        if (!stack->server->Start(&error)) {
          throw std::runtime_error("server start failed: " + error);
        }
      });
      spans.Time("WalkClient::Connect", [&] {
        for (int c = 0; c < kConnections; ++c) {
          stack->clients.push_back(std::make_unique<WalkClient>());
          if (!stack->clients.back()->Connect("127.0.0.1", stack->server->port(), &error)) {
            throw std::runtime_error("client connect failed: " + error);
          }
        }
      });
    });
    setup_s.push_back(SecondsSince(start));
  }
  return stack;
}

// Load phases, in seconds from the end of the warm-up: [0, untraced_s) with
// the trace ring off, then (traced runs only) [untraced_s, stop_s) with it
// on, then the drain of the requests still in flight when submission stops.
struct Windows {
  Clock::time_point zero;  // end of the warm-up
  double untraced_s = 0.0;
  double stop_s = 0.0;

  double Since(Clock::time_point t) const {
    return std::chrono::duration<double>(t - zero).count();
  }
  Clock::time_point At(double s) const {
    return zero + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
  }
};

// One slice of a load window: its throughput and latency percentiles.
struct Slice {
  double qps = 0.0;
  double steps_per_s = 0.0;
  Summary latency;
};

// Everything the load generator learns about its requests: per service-
// global query id (admission order) the start asked for and a hash of the
// row served; per completion its time, latency and steps delivered.
class LoadLedger {
 public:
  LoadLedger()
      : start_by_id_(kMaxRequests, flexi::kInvalidNode),
        hash_by_id_(kMaxRequests, 0),
        done_s_(kMaxRequests, 0.0f),
        latency_us_(kMaxRequests, 0.0f),
        steps_(kMaxRequests, 0) {}

  // Claims a ledger slot for one request about to be sent at `now_s`. Each
  // request sent takes at most one global id, so refusing sends past the
  // capacity keeps every id inside the ledger. The first refusal ends the
  // measured window early (full_at_s), so a much faster server is measured
  // over a shorter window instead of one padded with idle slices.
  bool Reserve(double now_s) {
    uint64_t sent = sent_.load(std::memory_order_relaxed);
    while (sent < kMaxRequests) {
      if (sent_.compare_exchange_weak(sent, sent + 1, std::memory_order_relaxed)) {
        return true;
      }
    }
    double never = kNever;
    full_at_s_.compare_exchange_strong(never, now_s);
    return false;
  }
  // When the ledger first refused a send (seconds from the end of the
  // warm-up); infinite while it never has.
  double full_at_s() const { return full_at_s_.load(); }

  void Record(const WalkClient::Result& result, NodeId start, Clock::time_point sent,
              double done_s) {
    uint64_t id = result.first_query_id;
    size_t slot = slots_.fetch_add(1, std::memory_order_relaxed);
    if (result.num_queries != 1 || id >= kMaxRequests || slot >= kMaxRequests) {
      errors_.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    start_by_id_[id] = start;
    hash_by_id_[id] = Fold(RowHash(result.paths));
    done_s_[slot] = static_cast<float>(done_s);
    latency_us_[slot] = std::chrono::duration<float, std::micro>(Clock::now() - sent).count();
    steps_[slot] = static_cast<uint8_t>(SampledSteps(result.paths, result.path_stride));
  }
  void Error() { errors_.fetch_add(1, std::memory_order_relaxed); }

  // Latencies (µs) of the requests that completed in [from_s, to_s).
  std::vector<double> Latencies(double from_s, double to_s) const {
    std::vector<double> out;
    ForEach(from_s, to_s, [&](size_t slot) { out.push_back(latency_us_[slot]); });
    return out;
  }
  uint64_t Completions(double from_s, double to_s) const {
    uint64_t n = 0;
    ForEach(from_s, to_s, [&](size_t) { ++n; });
    return n;
  }
  // [from_s, to_s) cut into `slices` equal slices. Medians over slices
  // keep a host stall of a few hundred milliseconds out of a run's figures.
  std::vector<Slice> Slices(double from_s, double to_s, int slices) const {
    double width = (to_s - from_s) / slices;
    std::vector<std::vector<double>> latencies(slices);
    std::vector<uint64_t> steps(slices, 0);
    ForEach(from_s, to_s, [&](size_t slot) {
      int s = std::min(slices - 1, static_cast<int>((done_s_[slot] - from_s) / width));
      latencies[s].push_back(latency_us_[slot]);
      steps[s] += steps_[slot];
    });
    std::vector<Slice> out(slices);
    for (int s = 0; s < slices; ++s) {
      out[s].qps = static_cast<double>(latencies[s].size()) / width;
      out[s].steps_per_s = static_cast<double>(steps[s]) / width;
      out[s].latency = Summarize(std::move(latencies[s]));
    }
    return out;
  }
  uint64_t sent() const { return sent_.load(); }
  uint64_t errors() const { return errors_.load(); }

  // Served rows against the one-shot engine's, by global query id: every id
  // the service assigned must have been delivered, and its row must hash
  // like the engine's row for the same start. Returns the failures.
  uint64_t Check(const Graph& graph, const flexi::WalkLogic& walk, uint64_t seed,
                 uint64_t admitted) const {
    uint64_t ids = std::min<uint64_t>(admitted, kMaxRequests);
    uint64_t holes = 0;
    std::vector<NodeId> starts(start_by_id_.begin(), start_by_id_.begin() + ids);
    for (NodeId& start : starts) {
      if (start == flexi::kInvalidNode) {
        ++holes;
        start = 0;  // placeholder; its row is counted failed, not compared
      }
    }
    WalkResult reference = FlexiWalkerEngine(ServingOptions()).Run(graph, walk, starts, seed);
    uint64_t differing = 0;
    for (uint64_t id = 0; id < ids; ++id) {
      if (start_by_id_[id] != flexi::kInvalidNode &&
          Fold(RowHash(reference.Path(id))) != hash_by_id_[id]) {
        ++differing;
      }
    }
    std::printf("  check: %llu of %llu served rows differ from the one-shot engine by global "
                "query id; %llu ids never delivered; %llu request errors\n",
                static_cast<unsigned long long>(differing), static_cast<unsigned long long>(ids),
                static_cast<unsigned long long>(holes + (admitted - ids)),
                static_cast<unsigned long long>(errors()));
    return differing + holes + (admitted - ids) + errors();
  }

 private:
  static uint32_t Fold(uint64_t hash) { return static_cast<uint32_t>(hash ^ (hash >> 32)); }

  template <typename Fn>
  void ForEach(double from_s, double to_s, Fn&& fn) const {
    size_t slots = std::min(slots_.load(), kMaxRequests);
    for (size_t slot = 0; slot < slots; ++slot) {
      if (done_s_[slot] >= from_s && done_s_[slot] < to_s) {
        fn(slot);
      }
    }
  }

  std::vector<NodeId> start_by_id_;
  std::vector<uint32_t> hash_by_id_;
  std::vector<float> done_s_;  // completion time, seconds from the end of the warm-up
  std::vector<float> latency_us_;
  std::vector<uint8_t> steps_;  // steps delivered (walk length 16 fits)
  std::atomic<size_t> slots_{0};
  std::atomic<uint64_t> sent_{0};
  std::atomic<uint64_t> errors_{0};
  static constexpr double kNever = std::numeric_limits<double>::infinity();
  std::atomic<double> full_at_s_{kNever};
};

// One connection's closed loop: keep kInFlight single-start requests
// outstanding, replacing each as it completes, until submission stops at
// `windows.stop_s`; then drain. Starts are uniform over the nodes, drawn
// from `seed`.
void DriveConnection(WalkClient& client, NodeId num_nodes, uint64_t seed, const Windows& windows,
                     LoadLedger& ledger) {
  std::mt19937_64 rng(seed);
  struct InFlight {
    std::future<WalkClient::Result> future;
    Clock::time_point sent;
    NodeId start = 0;
  };
  std::deque<InFlight> in_flight;
  auto submit = [&] {
    NodeId start = static_cast<NodeId>(rng() % num_nodes);
    Clock::time_point sent = Clock::now();
    in_flight.push_back({client.Submit({start}), sent, start});
  };
  for (int i = 0; i < kInFlight && ledger.Reserve(windows.Since(Clock::now())); ++i) {
    submit();
  }
  Clock::time_point stop = windows.At(windows.stop_s);
  while (!in_flight.empty()) {
    InFlight request = std::move(in_flight.front());
    in_flight.pop_front();
    try {
      WalkClient::Result result = request.future.get();
      ledger.Record(result, request.start, request.sent, windows.Since(Clock::now()));
    } catch (const std::exception&) {
      ledger.Error();
    }
    Clock::time_point now = Clock::now();
    if (now < stop && ledger.Reserve(windows.Since(now))) {
      submit();
    }
  }
}

constexpr const char* kFlushReasons[] = {"size", "deadline", "sparse", "single", "shutdown"};

std::string FlushSeries(const char* reason) {
  return std::string("flexi_coalescer_flushes_total{workload=\"default\",reason=\"") + reason +
         "\"}";
}

// Registry series the traced window reads, as deltas over that window.
std::vector<std::string> ServingCounterNames() {
  std::vector<std::string> names = WalkerCounterNames();
  for (const char* reason : kFlushReasons) {
    names.push_back(FlushSeries(reason));
  }
  names.push_back("flexi_server_cork_bytes_total");
  names.push_back("flexi_server_epollout_resumptions_total");
  names.push_back(flexi::obs::WithLabel("flexi_server_responses_total", "workload", "default"));
  return names;
}

flexi::obs::HistogramSnapshot BatchSizes() {
  return flexi::obs::MetricsRegistry::Global()
      .GetHistogram(flexi::obs::WithLabel("flexi_coalescer_batch_queries", "workload", "default"))
      .TakeSnapshot();
}

// Runs the closed loop: warm-up, `untraced_s` with the trace ring off, then
// `traced_s` with it on. For a traced window, the registry deltas and the
// mean flushed batch over exactly that window land in `traced_deltas` and
// `traced_batch_mean`.
struct LoadResult {
  Windows windows;
  uint64_t admitted = 0;  // global ids the service assigned
  std::map<std::string, uint64_t> traced_deltas;
  double traced_batch_mean = 0.0;
};

LoadResult RunLoad(const Args& args, Stack& stack, double untraced_s, double traced_s,
                   LoadLedger& ledger) {
  LoadResult load;
  load.windows.zero = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                         std::chrono::duration<double>(kWarmupS));
  load.windows.untraced_s = untraced_s;
  load.windows.stop_s = untraced_s + traced_s;
  std::vector<std::thread> senders;
  for (int c = 0; c < kConnections; ++c) {
    senders.emplace_back([&, c] {
      DriveConnection(*stack.clients[c], stack.graph.num_nodes(), args.seed * 1000003 + c,
                      load.windows, ledger);
    });
  }
  if (traced_s > 0.0) {
    std::this_thread::sleep_until(load.windows.At(untraced_s));
    flexi::obs::TraceRing::Global().Enable(kRingSpans);
    CounterDelta counters(ServingCounterNames());
    flexi::obs::HistogramSnapshot batches_before = BatchSizes();
    std::this_thread::sleep_until(load.windows.At(load.windows.stop_s));
    load.traced_deltas = counters.Deltas();
    flexi::obs::HistogramSnapshot batches_after = BatchSizes();
    uint64_t flushes = batches_after.count - batches_before.count;
    load.traced_batch_mean =
        flushes == 0 ? 0.0
                     : static_cast<double>(batches_after.sum - batches_before.sum) / flushes;
  }
  for (std::thread& sender : senders) {
    sender.join();
  }
  load.admitted = stack.service->queries_submitted();
  return load;
}

void ReportStages(const LoadLedger& ledger, const LoadResult& load, Report& report) {
  std::vector<flexi::obs::TraceSpan> spans = flexi::obs::TraceRing::Global().Snapshot();
  flexi::obs::TraceRing::Global().Disable();
  std::map<std::string, Summary> stages = StageSummaries(spans);
  Summary client =
      Summarize(ledger.Latencies(load.windows.untraced_s, load.windows.stop_s));
  std::printf("  served stage table (traced window; ring spans are self times, µs):\n");
  std::printf("    %-10s %10s %10s %10s\n", "stage", "p50", "p99", "samples");
  for (const char* stage : {"decode", "admit", "coalesce", "schedule", "complete", "flush",
                            "request"}) {
    const Summary& s = stages[stage];
    std::printf("    %-10s %10.1f %10.1f %10zu\n", stage, s.p50, s.p99, s.count);
  }
  double outside = Remainder(client.p50, {stages["request"].p50, stages["flush"].p50});
  std::printf("    %-10s %10.1f %10.1f %10zu\n", "client rtt", client.p50, client.p99,
              client.count);
  std::printf("    outside the server (rtt - request - flush, p50): %.1f us\n", outside);
  auto add = [&](const char* name, const char* stage, bool p99) {
    const Summary& s = stages[stage];
    report.Add(name, p99 ? s.p99 : s.p50, "us", s.count);
  };
  add("server.decode_us.p50", "decode", false);
  add("server.admit_us.p50", "admit", false);
  add("coalescer.wait_us.p50", "coalesce", false);
  add("coalescer.wait_us.p99", "coalesce", true);
  add("service.schedule_us.p50", "schedule", false);
  add("service.schedule_us.p99", "schedule", true);
  add("coalescer.complete_us.p50", "complete", false);
  add("server.flush_us.p50", "flush", false);
  add("server.request_us.p50", "request", false);
  add("server.request_us.p99", "request", true);
  report.Add("client.rtt_us.p50", client.p50, "us", client.count);
  report.Add("client.rtt_us.p99", client.p99, "us", client.count);
  report.Add("net.outside_server_us.p50", outside, "us", client.count);

  const std::map<std::string, uint64_t>& d = load.traced_deltas;
  auto flushes = [&](const char* reason) { return static_cast<double>(d.at(FlushSeries(reason))); };
  double all_flushes = 0.0;
  for (const char* reason : kFlushReasons) {
    all_flushes += flushes(reason);
  }
  auto share = [&](const char* reason) {
    return all_flushes > 0 ? flushes(reason) / all_flushes : 0.0;
  };
  uint64_t batches = static_cast<uint64_t>(all_flushes);
  report.Add("coalescer.queries_per_batch", load.traced_batch_mean, "1/batch", batches);
  report.Add("coalescer.flush_size_share", share("size"), "ratio", batches);
  report.Add("coalescer.flush_deadline_share", share("deadline"), "ratio", batches);
  report.Add("coalescer.flush_sparse_share", share("sparse"), "ratio", batches);
  uint64_t responses =
      d.at(flexi::obs::WithLabel("flexi_server_responses_total", "workload", "default"));
  report.Add("server.cork_bytes_per_response",
             responses > 0 ? static_cast<double>(d.at("flexi_server_cork_bytes_total")) / responses
                           : 0.0,
             "B", responses);
  report.Add("server.epollout_resumptions",
             static_cast<double>(d.at("flexi_server_epollout_resumptions_total")), "count");
}

void TraceLayers(const Args& args, const flexi::WalkLogic& walk, Stack& stack, SpanLog& spans,
                 LoadLedger& ledger, Report& report) {
  const Graph& graph = stack.graph;
  FlexiWalkerOptions options = ServingOptions();
  report.Add("graph.generate_ms", spans.MedianSelfMs("LoadDataset"), "ms", kSetupReps);

  // The phases MakeFlexiWalkerService runs once, called one by one.
  flexi::GeneratedHelpers helpers = TimeGenerate(walk, spans, report);
  flexi::FlexiPreparation prep;
  for (int rep = 0; rep < kPrepReps; ++rep) {
    flexi::DeviceContext device(options.device);
    spans.Time("ProfileEdgeCostRatio",
               [&] { return flexi::ProfileEdgeCostRatio(graph, walk, device); });
    spans.Time("RunPreprocess",
               [&] { return flexi::RunPreprocess(graph, helpers.plan(), device); });
    spans.Time("BuildNodeAliasTables", [&] { return flexi::BuildNodeAliasTables(graph); });
    prep = spans.Time("PrepareFlexiWalker",
                      [&] { return flexi::PrepareFlexiWalker(graph, walk, options, device); });
  }
  report.Add("runtime.profile_ms", spans.MedianSelfMs("ProfileEdgeCostRatio"), "ms", kPrepReps);
  report.Add("runtime.preprocess_ms", spans.MedianSelfMs("RunPreprocess"), "ms", kPrepReps);
  report.Add("walker.static_tables_ms", spans.MedianSelfMs("BuildNodeAliasTables"), "ms",
             kPrepReps);
  report.Add("walker.prepare_ms", spans.MedianSelfMs("PrepareFlexiWalker"), "ms", kPrepReps);
  report.Add("runtime.edge_cost_ratio", prep.params.edge_cost_ratio, "ratio");
  CompileStepKernel(walk, /*static_tables=*/true, args.workdir, report);

  int passes = static_cast<int>((kProbeQueries + graph.num_nodes() - 1) / graph.num_nodes());
  std::vector<NodeId> subset = ShuffledStarts(graph.num_nodes(), passes, args.seed);
  subset.resize(kProbeQueries);
  std::printf("  kernel probe over %zu queries:\n", subset.size());
  Probe probe = RunProbe(graph, walk, options, subset, args.seed);
  ReportProbe("cached alias", "sampling.cached_alias_ns_per_step", probe, report);
  report.Add("runtime.rjs_share", probe.rjs_share, "ratio", 0);  // static tables: no selections
  AddSimt(report, probe.cost, probe.sim_ms, probe.steps);

  double half_s = args.seconds / 2;
  LoadResult load = RunLoad(args, stack, half_s, half_s, ledger);
  double end_s = std::min(2 * half_s, ledger.full_at_s());
  if (end_s <= half_s) {
    throw std::runtime_error("the request ledger filled before the traced half");
  }
  double qps_untraced = ledger.Completions(0.0, half_s) / half_s;
  double qps_traced = ledger.Completions(half_s, end_s) / (end_s - half_s);
  std::printf("  closed loop: %.0f req/s untraced, %.0f req/s traced\n", qps_untraced,
              qps_traced);
  report.Add("obs.trace_overhead_ratio", qps_untraced / qps_traced, "ratio");
  ReportStages(ledger, load, report);
  AddWalkerCounters(report, load.traced_deltas, half_s);

  stack.server->Stop();
  // The walk alone: an in-process Submit of the mean coalesced batch, no
  // sockets.
  size_t batch = std::max<size_t>(1, static_cast<size_t>(load.traced_batch_mean + 0.5));
  std::mt19937_64 rng(args.seed);
  std::vector<double> batch_us;
  for (int i = 0; i < kBatchProbes; ++i) {
    flexi::WalkBatch walk_batch;
    for (size_t q = 0; q < batch; ++q) {
      walk_batch.starts.push_back(static_cast<NodeId>(rng() % graph.num_nodes()));
    }
    Clock::time_point start = Clock::now();
    stack.service->Submit(std::move(walk_batch)).get();
    batch_us.push_back(SecondsSince(start) * 1e6);
  }
  report.Add("walk_service.batch_us.p50", Median(batch_us), "us", batch_us.size());

  report.Attempted(ledger.sent());
  report.Failed(ledger.Check(graph, walk, args.seed, load.admitted));
}

}  // namespace

void RunDeepWalkServe(const Args& args, Report& report) {
  // Allocated first: its fixed footprint sits under every later allocation.
  auto ledger = std::make_unique<LoadLedger>();
  flexi::DeepWalk walk(16);
  SpanLog spans;
  std::vector<double> setup_s;
  std::unique_ptr<Stack> stack = SetUp(args, walk, spans, setup_s);
  std::printf("deepwalk-serve: YT stand-in %u nodes, %llu edges; DeepWalk length 16 on cached "
              "alias tables; %d connections x %d requests in flight\n",
              stack->graph.num_nodes(), static_cast<unsigned long long>(stack->graph.num_edges()),
              kConnections, kInFlight);
  if (args.trace) {
    TraceLayers(args, walk, *stack, spans, *ledger, report);
    return;
  }

  LoadResult load = RunLoad(args, *stack, args.seconds, 0.0, *ledger);
  report.Add("peak_rss_mb", PeakRssMb(), "MiB");
  report.Add("setup_s", Median(setup_s), "s", setup_s.size());
  // Throughput and latency per 1 s slice of the window, reported as medians
  // over the slices; samples = requests completed in the window. The window
  // ends early if the ledger filled.
  double window_s = std::min(args.seconds, ledger->full_at_s());
  if (window_s <= 0.0) {
    throw std::runtime_error("the request ledger filled during the warm-up");
  }
  int slices = std::max(1, static_cast<int>(std::lround(window_s)));
  std::vector<double> qps, steps_per_s, p50, p99;
  for (const Slice& slice : ledger->Slices(0.0, window_s, slices)) {
    qps.push_back(slice.qps);
    steps_per_s.push_back(slice.steps_per_s);
    p50.push_back(slice.latency.p50);
    p99.push_back(slice.latency.p99);
  }
  uint64_t completions = ledger->Completions(0.0, window_s);
  std::printf("  closed loop: %llu requests completed in %.2f s, %d slices\n",
              static_cast<unsigned long long>(completions), window_s, slices);
  report.Add("steps_per_s", Median(steps_per_s), "1/s", completions);
  report.Add("qps", Median(qps), "1/s", completions);
  report.Add("p50_us", Median(p50), "us", completions);
  report.Add("p99_us", Median(p99), "us", completions);
  report.Attempted(ledger->sent());
  report.Failed(ledger->Check(stack->graph, walk, args.seed, load.admitted));
}

}  // namespace perfbench
