// Command-line driver: run any workload on any engine over a generated
// stand-in dataset or a user-supplied edge-list file, and print walk
// statistics (optionally writing the paths).
//
//   $ ./flexiwalker_cli --dataset YT --workload node2vec --engine flexiwalker
//   $ ./flexiwalker_cli --graph edges.txt --workload 2ndpr --queries 1000
//   $ echo "0 1 2 3" | ./flexiwalker_cli --dataset YT --serve
//   $ ./flexiwalker_cli --dataset YT --workload deepwalk --listen 7331   # TCP server
//   $ printf '0 1 2\nquit\n' | ./flexiwalker_cli --connect 7331         # TCP client
//   $ ./flexiwalker_cli --help
#include <poll.h>
#include <pthread.h>
#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/analysis/walk_analysis.h"
#include "src/baselines/baselines.h"
#include "src/graph/block_store.h"
#include "src/graph/datasets.h"
#include "src/graph/io.h"
#include "src/net/walk_client.h"
#include "src/net/walk_server.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walker/out_of_core.h"
#include "src/walker/scheduler.h"
#include "src/walker/walk_service.h"
#include "src/walks/autoregressive.h"
#include "src/walks/deepwalk.h"
#include "src/walks/metapath.h"
#include "src/walks/node2vec.h"
#include "src/walks/ppr.h"
#include "src/walks/second_order_pr.h"
#include "src/walks/temporal.h"

namespace flexi {
namespace {

struct CliOptions {
  std::string dataset = "YT";
  std::string graph_path;
  std::string workload = "node2vec";
  std::string engine = "flexiwalker";
  std::string weights = "uniform";  // uniform|pareto|degree|none
  double alpha = 2.0;
  uint32_t length = 80;
  size_t queries = 0;  // 0 = one per node
  unsigned threads = 0;  // 0 = hardware concurrency
  uint64_t seed = 2026;
  std::string out_path;
  // Query-id dispensation (flexiwalker engine + serving modes; walk paths
  // are identical for every setting — see query_queue.h).
  unsigned chunk = 0;          // ids per global claim; 0 = adaptive
  std::string steal = "on";    // raw --steal text; steal_on is the parsed truth
  bool steal_on = true;
  bool dispense_set = false;   // either flag given explicitly
  // Wavefront width for the scheduler's batched inner loop (scheduler.h);
  // 0 = the scheduler default. Paths are identical for every width.
  unsigned wavefront = 0;
  bool wavefront_set = false;
  // Out-of-core tier (out_of_core.h): giving either flag routes the
  // one-shot run through the block-cached executor — partition to a block
  // file, then walk it under a bounded GraphCache. Paths are bit-identical
  // to the in-memory engine with the same pinned cost ratio.
  size_t block_bytes = kDefaultBlockBytes;
  uint32_t cache_blocks = 4;
  bool out_of_core = false;  // either flag given explicitly
  bool serve = false;
  // Network serving (docs/SERVING.md "Network serving"):
  int listen_port = -1;     // >= 0 => run a WalkServer (0 = ephemeral port)
  std::string connect;      // non-empty => client mode, "port" or "host:port"
  unsigned coalesce_us = 200;   // request coalescing window
  size_t max_batch = 512;       // coalescer flush threshold (queries)
  size_t admit = 1 << 16;       // admission bound (queries, pending + in flight)
  std::string overflow = "block";  // block|reject when the bound is hit
  unsigned pipeline = 2;        // batch runner threads per served workload
  // Extra workloads to register on the server besides the primary --workload
  // (which is always workload id 0, name "default"). Comma-separated
  // name[:admit=N][:overflow=block|reject] entries; see docs/SERVING.md.
  std::string workloads;
  uint32_t workload_id = 0;     // client mode: route requests to this workload
  bool workload_id_set = false;
  // Deadline-aware serving (docs/SERVING.md "Deadlines, retries, and drain"):
  uint64_t deadline_us = 0;         // client mode: per-request latency budget
  bool deadline_us_set = false;
  unsigned request_timeout_ms = 0;  // client mode: local per-request answer timeout
  bool request_timeout_set = false;
  unsigned retries = 0;             // client mode: Walk() retries on transient failures
  bool retries_set = false;
  unsigned drain_ms = 5000;         // listen mode: SIGTERM/SIGINT drain grace
  bool drain_ms_set = false;
  // Telemetry (docs/OBSERVABILITY.md):
  bool stats = false;           // client mode: scrape the server's metrics and exit
  std::string metrics_out;      // listen mode: Prometheus dump path (SIGUSR1 + exit)
  std::string trace_out;        // listen mode: Chrome trace_event JSON path (exit)
  bool static_cache = false;    // FlexiWalkerOptions::cache_static_tables
  // Compiled step kernels (src/compiler/jit.h): --jit on|off|auto selects
  // the mode, --jit-cache-dir the on-disk .so cache. Paths are bit-identical
  // compiled or interpreted, so the flags tune speed only.
  std::string jit = "off";      // raw --jit text; jit_mode is the parsed truth
  jit::JitMode jit_mode = jit::JitMode::kOff;
  bool jit_set = false;
  std::string jit_cache_dir;
  bool jit_cache_dir_set = false;
  std::string adaptive_window = "on";  // raw --adaptive-window text
  bool adaptive_window_on = true;
  bool adaptive_window_set = false;  // flag given explicitly
  bool help = false;
};

// Distinct exit codes so scripts can tell failure modes apart: flag/usage
// errors, a --serve/--listen engine the serving stack does not support, and
// malformed stdin input (non-numeric/overflowing start-node tokens).
constexpr int kExitUsage = 1;
constexpr int kExitUnsupportedEngine = 2;
constexpr int kExitMalformedInput = 3;

void PrintUsage() {
  std::printf(
      "flexiwalker_cli — run dynamic random walks\n\n"
      "  --dataset  <YT|CP|LJ|OK|EU|AB|UK|TW|SK|FS>   stand-in dataset (default YT)\n"
      "  --graph    <path>        edge-list file instead of a dataset\n"
      "  --workload <node2vec|metapath|2ndpr|deepwalk|ppr|temporal|temporal-decay|\n"
      "              autoregressive>\n"
      "  --engine   <flexiwalker|flowwalker|nextdoor|csaw|skywalker|thunderrw|\n"
      "              knightking|sowalker>\n"
      "  --weights  <uniform|pareto|degree|none>       property weights (default uniform)\n"
      "  --alpha    <float>       Pareto shape when --weights pareto (default 2.0)\n"
      "  --length   <steps>       walk length (default 80)\n"
      "  --queries  <n>           number of start nodes (default: every node)\n"
      "  --threads  <n>           host worker threads (default: hardware concurrency;\n"
      "                           walk paths are identical for any value)\n"
      "  --chunk    <n>           query ids claimed per global-counter RMW, 1..%u\n"
      "                           (flexiwalker engine; default 0 = adaptive; paths\n"
      "                           identical for any value)\n"
      "  --steal    <on|off>      work-stealing between worker chunk cursors\n"
      "                           (flexiwalker engine; default on; paths identical)\n"
      "  --wavefront <n>          in-flight walks per worker in the scheduler's\n"
      "                           batched inner loop, 1..%u (flexiwalker engine;\n"
      "                           default 0 = scheduler default; 1 = walk-at-a-time;\n"
      "                           paths identical for any width)\n"
      "  --jit      <on|off|auto> compiled step kernels (flexiwalker engine, all\n"
      "                           tiers): specialize the workload's step into one\n"
      "                           compiled, dlopen'd function cached by program hash\n"
      "                           (default off; auto compiles in the background and\n"
      "                           swaps in; paths identical compiled or interpreted)\n"
      "  --jit-cache-dir <path>   on-disk .so cache for --jit (default: system temp)\n"
      "  --seed     <n>           RNG seed (default 2026)\n"
      "  --out      <path>        write walks, one per line\n"
      "out-of-core execution (flexiwalker engine, one-shot runs, first-order\n"
      "workloads; giving either flag enables the tier — docs/ARCHITECTURE.md):\n"
      "  --block-bytes <n>        partition the graph into <= n-byte edge blocks,\n"
      "                           n >= %zu (default %zu); paths identical to the\n"
      "                           in-memory engine\n"
      "  --cache-blocks <n>       resident-block budget, >= 1 (default 4); edge\n"
      "                           memory is bounded by cache-blocks x block-bytes\n"
      "  --serve                  streaming mode (flexiwalker engine only): read\n"
      "                           batches of start-node ids from stdin, one batch\n"
      "                           per line, until EOF or \"quit\"; see docs/SERVING.md\n"
      "network serving (flexiwalker engine only; docs/SERVING.md \"Network serving\"):\n"
      "  --listen   <port>        serve over TCP on 127.0.0.1:<port> (0 = ephemeral;\n"
      "                           the bound port is printed); stdin EOF or \"quit\" stops\n"
      "  --connect  <[host:]port> client mode: send stdin batches to a WalkServer\n"
      "  --coalesce-us <n>        server request-coalescing window (default 200)\n"
      "  --max-batch <n>          coalescer flush threshold, queries (default 512)\n"
      "  --admit    <n>           admission bound, queries pending+in-flight (default 65536)\n"
      "  --overflow <block|reject> backpressure when the bound is hit (default block)\n"
      "  --pipeline <n>           batch runner threads per served workload (default 2)\n"
      "  --workloads <spec>       register extra workloads on the server besides the\n"
      "                           primary --workload (always id 0): comma-separated\n"
      "                           name[:admit=<n>][:overflow=<block|reject>] entries,\n"
      "                           e.g. deepwalk:admit=1024:overflow=reject,ppr\n"
      "  --workload-id <n>        client mode: route requests to server workload <n>\n"
      "                           (default 0)\n"
      "  --deadline-us <n>        client mode: attach an <n>-microsecond latency budget\n"
      "                           to each request; the server sheds lapsed\n"
      "                           work and answers \"deadline exceeded\"\n"
      "  --request-timeout-ms <n> client mode: fail a request locally when no answer\n"
      "                           arrives within <n> ms (also bounds connect)\n"
      "  --retries <n>            client mode: retry transient failures (torn connection,\n"
      "                           timeout, overloaded/draining/deadline-exceeded) up to\n"
      "                           <n> times with jittered exponential backoff\n"
      "  --drain-ms <n>           listen mode: SIGTERM/SIGINT graceful-drain grace — stop\n"
      "                           accepting, answer new requests \"draining\", let admitted\n"
      "                           work finish up to <n> ms, then stop (default 5000)\n"
      "  --static-cache           cached static-walk fast path: serve static workloads\n"
      "                           (deepwalk/unweighted) from per-node alias tables\n"
      "  --adaptive-window <on|off> EWMA-adaptive coalesce window: flush immediately\n"
      "                           when traffic is sparse, so idle-period requests pay\n"
      "                           walk latency instead of the window (default on)\n"
      "telemetry (docs/OBSERVABILITY.md):\n"
      "  --stats                  client mode: scrape the server's metrics registry\n"
      "                           (kStatsRequest), print the Prometheus text, exit\n"
      "  --metrics-out <path>     listen mode: write the local metrics registry as\n"
      "                           Prometheus text on SIGUSR1 and again at shutdown\n"
      "  --trace-out <path>       listen mode: record request-lifecycle spans and\n"
      "                           write them as Chrome trace_event JSON at shutdown\n"
      "exit codes: 0 ok | %d usage | %d unsupported engine | %d malformed input\n",
      kMaxDispenseChunk, kMaxWavefront, kMinBlockBytes, kDefaultBlockBytes, kExitUsage,
      kExitUnsupportedEngine, kExitMalformedInput);
}

// Strict unsigned parse for every integer flag, where a wrapped negative
// would mean a 71-minute coalesce window or 4 billion batch runner threads
// rather than a harmless default.
bool ParseUnsignedFlag(const char* flag, const char* text, unsigned long long max_value,
                       unsigned long long& out) {
  errno = 0;
  char* end = nullptr;
  unsigned long long value = std::strtoull(text, &end, 10);
  if (text[0] == '-' || end == text || *end != '\0' || errno == ERANGE || value > max_value) {
    std::fprintf(stderr, "bad value for %s: %s\n", flag, text);
    return false;
  }
  out = value;
  return true;
}

// Strict on|off parse for the boolean-valued flags; anything else is a
// usage error, matching the numeric-flag convention.
bool ParseOnOff(const char* flag, const std::string& text, bool& out) {
  if (text == "on") {
    out = true;
    return true;
  }
  if (text == "off") {
    out = false;
    return true;
  }
  std::fprintf(stderr, "bad value for %s: %s (want on|off)\n", flag, text.c_str());
  return false;
}

bool ParseArgs(int argc, char** argv, CliOptions& options) {
  std::map<std::string, std::string*> string_flags = {
      {"--dataset", &options.dataset},   {"--graph", &options.graph_path},
      {"--workload", &options.workload}, {"--engine", &options.engine},
      {"--weights", &options.weights},   {"--out", &options.out_path},
      {"--connect", &options.connect},   {"--overflow", &options.overflow},
      {"--steal", &options.steal},       {"--adaptive-window", &options.adaptive_window},
      {"--workloads", &options.workloads},
      {"--metrics-out", &options.metrics_out}, {"--trace-out", &options.trace_out},
      {"--jit", &options.jit},           {"--jit-cache-dir", &options.jit_cache_dir},
  };
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      options.help = true;
      return true;
    }
    if (arg == "--serve") {
      options.serve = true;
      continue;
    }
    if (arg == "--static-cache") {
      options.static_cache = true;
      continue;
    }
    if (arg == "--stats") {
      options.stats = true;
      continue;
    }
    auto needs_value = [&](const char* name) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", name);
        return nullptr;
      }
      return argv[++i];
    };
    if (auto it = string_flags.find(arg); it != string_flags.end()) {
      const char* value = needs_value(arg.c_str());
      if (value == nullptr) {
        return false;
      }
      *it->second = value;
      if (arg == "--steal") {
        options.dispense_set = true;
      } else if (arg == "--adaptive-window") {
        options.adaptive_window_set = true;
      } else if (arg == "--jit") {
        options.jit_set = true;
      } else if (arg == "--jit-cache-dir") {
        options.jit_cache_dir_set = true;
      }
    } else if (arg == "--alpha") {
      const char* value = needs_value("--alpha");
      if (value == nullptr) {
        return false;
      }
      // The whole token, finite and positive: atof would turn "abc" into 0
      // and "nan" into a NaN weight exponent.
      char* end = nullptr;
      double alpha = std::strtod(value, &end);
      if (end == value || *end != '\0' || !std::isfinite(alpha) || alpha <= 0.0) {
        std::fprintf(stderr, "bad value for --alpha: %s\n", value);
        return false;
      }
      options.alpha = alpha;
    } else if (arg == "--length") {
      const char* value = needs_value("--length");
      unsigned long long length = 0;
      // 2^32 - 2 keeps the path stride length + 1 inside uint32_t.
      if (value == nullptr || !ParseUnsignedFlag("--length", value, 0xFFFFFFFEull, length)) {
        return false;
      }
      options.length = static_cast<uint32_t>(length);
    } else if (arg == "--queries") {
      const char* value = needs_value("--queries");
      unsigned long long queries = 0;
      if (value == nullptr ||
          !ParseUnsignedFlag("--queries", value, std::numeric_limits<size_t>::max(), queries)) {
        return false;
      }
      options.queries = static_cast<size_t>(queries);
    } else if (arg == "--threads") {
      const char* value = needs_value("--threads");
      unsigned long long threads = 0;
      if (value == nullptr || !ParseUnsignedFlag("--threads", value, kMaxHostWorkers, threads)) {
        return false;
      }
      options.threads = static_cast<unsigned>(threads);
    } else if (arg == "--seed") {
      const char* value = needs_value("--seed");
      unsigned long long seed = 0;
      if (value == nullptr ||
          !ParseUnsignedFlag("--seed", value, std::numeric_limits<uint64_t>::max(), seed)) {
        return false;
      }
      options.seed = static_cast<uint64_t>(seed);
    } else if (arg == "--chunk") {
      const char* value = needs_value("--chunk");
      unsigned long long chunk = 0;
      // The queue clamps chunks to kMaxDispenseChunk; reject rather than
      // silently shrink a wild request.
      if (value == nullptr || !ParseUnsignedFlag("--chunk", value, kMaxDispenseChunk, chunk)) {
        return false;
      }
      options.chunk = static_cast<unsigned>(chunk);
      options.dispense_set = true;
    } else if (arg == "--wavefront") {
      const char* value = needs_value("--wavefront");
      unsigned long long wavefront = 0;
      // The scheduler clamps widths to kMaxWavefront; reject rather than
      // silently shrink a wild request (matching --chunk).
      if (value == nullptr ||
          !ParseUnsignedFlag("--wavefront", value, kMaxWavefront, wavefront)) {
        return false;
      }
      options.wavefront = static_cast<unsigned>(wavefront);
      options.wavefront_set = true;
    } else if (arg == "--block-bytes") {
      const char* value = needs_value("--block-bytes");
      unsigned long long bytes = 0;
      // 1 GiB ceiling: a larger "block" defeats partitioning and is surely
      // a typo, not a budget.
      if (value == nullptr || !ParseUnsignedFlag("--block-bytes", value, 1ull << 30, bytes)) {
        return false;
      }
      if (bytes < kMinBlockBytes) {
        // The partitioner enforces the same floor (block_store.h) — a block
        // must hold at least one full max-degree-bounded row header.
        std::fprintf(stderr, "bad value for --block-bytes: %s (minimum %zu)\n", value,
                     kMinBlockBytes);
        return false;
      }
      options.block_bytes = static_cast<size_t>(bytes);
      options.out_of_core = true;
    } else if (arg == "--cache-blocks") {
      const char* value = needs_value("--cache-blocks");
      unsigned long long blocks = 0;
      if (value == nullptr || !ParseUnsignedFlag("--cache-blocks", value, 1ull << 20, blocks)) {
        return false;
      }
      if (blocks == 0) {
        std::fprintf(stderr,
                     "bad value for --cache-blocks: 0 (the cache must hold at least one block)\n");
        return false;
      }
      options.cache_blocks = static_cast<uint32_t>(blocks);
      options.out_of_core = true;
    } else if (arg == "--listen") {
      const char* value = needs_value("--listen");
      unsigned long long port = 0;
      if (value == nullptr || !ParseUnsignedFlag("--listen", value, 65535, port)) {
        return false;
      }
      options.listen_port = static_cast<int>(port);
    } else if (arg == "--coalesce-us") {
      const char* value = needs_value("--coalesce-us");
      unsigned long long us = 0;
      // 60s ceiling: anything longer is surely a typo, not a window.
      if (value == nullptr || !ParseUnsignedFlag("--coalesce-us", value, 60'000'000ull, us)) {
        return false;
      }
      options.coalesce_us = static_cast<unsigned>(us);
    } else if (arg == "--max-batch") {
      const char* value = needs_value("--max-batch");
      unsigned long long n = 0;
      if (value == nullptr || !ParseUnsignedFlag("--max-batch", value, 1ull << 32, n)) {
        return false;
      }
      options.max_batch = static_cast<size_t>(n);
    } else if (arg == "--admit") {
      const char* value = needs_value("--admit");
      unsigned long long n = 0;
      if (value == nullptr || !ParseUnsignedFlag("--admit", value, 1ull << 32, n)) {
        return false;
      }
      options.admit = static_cast<size_t>(n);
    } else if (arg == "--pipeline") {
      const char* value = needs_value("--pipeline");
      unsigned long long depth = 0;
      if (value == nullptr || !ParseUnsignedFlag("--pipeline", value, 256, depth)) {
        return false;
      }
      options.pipeline = static_cast<unsigned>(depth);
    } else if (arg == "--workload-id") {
      const char* value = needs_value("--workload-id");
      unsigned long long id = 0;
      if (value == nullptr || !ParseUnsignedFlag("--workload-id", value, 0xFFFFFFFFull, id)) {
        return false;
      }
      options.workload_id = static_cast<uint32_t>(id);
      options.workload_id_set = true;
    } else if (arg == "--deadline-us") {
      const char* value = needs_value("--deadline-us");
      unsigned long long us = 0;
      // 1h ceiling, matching --coalesce-us's "surely a typo" convention.
      if (value == nullptr || !ParseUnsignedFlag("--deadline-us", value, 3'600'000'000ull, us)) {
        return false;
      }
      options.deadline_us = us;
      options.deadline_us_set = true;
    } else if (arg == "--request-timeout-ms") {
      const char* value = needs_value("--request-timeout-ms");
      unsigned long long ms = 0;
      if (value == nullptr || !ParseUnsignedFlag("--request-timeout-ms", value, 3'600'000ull, ms)) {
        return false;
      }
      options.request_timeout_ms = static_cast<unsigned>(ms);
      options.request_timeout_set = true;
    } else if (arg == "--retries") {
      const char* value = needs_value("--retries");
      unsigned long long n = 0;
      if (value == nullptr || !ParseUnsignedFlag("--retries", value, 1000, n)) {
        return false;
      }
      options.retries = static_cast<unsigned>(n);
      options.retries_set = true;
    } else if (arg == "--drain-ms") {
      const char* value = needs_value("--drain-ms");
      unsigned long long ms = 0;
      if (value == nullptr || !ParseUnsignedFlag("--drain-ms", value, 3'600'000ull, ms)) {
        return false;
      }
      options.drain_ms = static_cast<unsigned>(ms);
      options.drain_ms_set = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", arg.c_str());
      return false;
    }
  }
  if (!jit::ParseJitMode(options.jit, &options.jit_mode)) {
    std::fprintf(stderr, "bad value for --jit: %s (want on|off|auto)\n", options.jit.c_str());
    return false;
  }
  // Resolve the on|off flags once, here, so every consumer reads one bool
  // instead of re-deriving the mapping from the raw text.
  return ParseOnOff("--steal", options.steal, options.steal_on) &&
         ParseOnOff("--adaptive-window", options.adaptive_window, options.adaptive_window_on);
}

// --steal was parsed into steal_on by ParseArgs; --chunk range-checked too.
DispenseOptions MakeDispense(const CliOptions& options) {
  DispenseOptions dispense;
  dispense.chunk_size = options.chunk;
  dispense.mode = options.steal_on ? DispenseMode::kChunkedSteal : DispenseMode::kChunked;
  return dispense;
}

std::unique_ptr<WalkLogic> MakeWorkload(const CliOptions& options) {
  if (options.workload == "node2vec") {
    return std::make_unique<Node2VecWalk>(2.0, 0.5, options.length);
  }
  if (options.workload == "metapath") {
    return std::make_unique<MetaPathWalk>(std::vector<uint8_t>{0, 1, 2, 3, 4});
  }
  if (options.workload == "2ndpr") {
    return std::make_unique<SecondOrderPageRankWalk>(0.2, options.length);
  }
  if (options.workload == "deepwalk") {
    return std::make_unique<DeepWalk>(options.length);
  }
  if (options.workload == "ppr") {
    return std::make_unique<PersonalizedPageRankWalk>(0.15, options.length);
  }
  if (options.workload == "temporal") {
    return std::make_unique<TemporalWalk>(options.length);
  }
  if (options.workload == "temporal-decay") {
    return std::make_unique<TemporalDecayWalk>(0.1, options.length);
  }
  if (options.workload == "autoregressive") {
    return std::make_unique<AutoregressiveWalk>(0.5, options.length);
  }
  return nullptr;
}

std::unique_ptr<Engine> MakeEngine(const CliOptions& options) {
  const std::string& name = options.engine;
  if (name == "flexiwalker") {
    FlexiWalkerOptions engine_options;
    engine_options.dispense = MakeDispense(options);
    engine_options.wavefront = options.wavefront;
    engine_options.jit = options.jit_mode;
    engine_options.jit_cache_dir = options.jit_cache_dir;
    return std::make_unique<FlexiWalkerEngine>(engine_options);
  }
  if (name == "flowwalker") {
    return std::make_unique<FlowWalkerEngine>();
  }
  if (name == "nextdoor") {
    return std::make_unique<NextDoorEngine>();
  }
  if (name == "csaw") {
    return std::make_unique<CSawEngine>();
  }
  if (name == "skywalker") {
    return std::make_unique<SkywalkerEngine>();
  }
  if (name == "thunderrw") {
    return std::make_unique<ThunderRWEngine>();
  }
  if (name == "knightking") {
    return std::make_unique<KnightKingEngine>();
  }
  if (name == "sowalker") {
    return std::make_unique<SOWalkerEngine>();
  }
  return nullptr;
}

// One walk per line, nodes space-separated, truncated at the first
// kInvalidNode (dead end). Shared by one-shot --out, serve-mode --out, and
// client-mode --out: WalkResult and WalkClient::Result both expose
// num_queries + Path(q).
template <typename ResultT>
void WriteWalks(std::ostream& out, const ResultT& result) {
  for (size_t qid = 0; qid < result.num_queries; ++qid) {
    bool first = true;
    for (NodeId node : result.Path(qid)) {
      if (node == kInvalidNode) {
        break;
      }
      out << (first ? "" : " ") << node;
      first = false;
    }
    out << "\n";
  }
}

// Parses one stdin line of whitespace-separated start-node ids. Returns
// false on the first malformed token (non-numeric, negative, overflow) —
// the serving modes exit kExitMalformedInput on that, because walking a
// partial batch would silently consume global query ids and shift every
// later batch's id range.
bool ParseStartsLine(const std::string& line, std::vector<NodeId>& starts,
                     std::string& bad_token) {
  std::istringstream tokens(line);
  std::string token;
  while (tokens >> token) {
    errno = 0;
    char* end = nullptr;
    unsigned long long id = std::strtoull(token.c_str(), &end, 10);
    if (token[0] == '-' || end == token.c_str() || *end != '\0' || errno == ERANGE ||
        id > std::numeric_limits<NodeId>::max()) {
      bad_token = token;
      return false;
    }
    starts.push_back(static_cast<NodeId>(id));
  }
  return true;
}

// Streaming mode: one WalkService over the prepared (graph, workload), fed
// batches of start-node ids from stdin — one whitespace-separated batch per
// line — until EOF or "quit". Query ids are global and monotonic across
// batches, so the printed paths for a given seed are bit-identical however
// the same starts are carved into lines (docs/SERVING.md).
int Serve(const CliOptions& options, const Graph& graph, const WalkLogic& workload) {
  if (options.engine != "flexiwalker") {
    std::fprintf(stderr, "--serve supports only --engine flexiwalker (got --engine %s)\n",
                 options.engine.c_str());
    return kExitUnsupportedEngine;
  }
  FlexiWalkerOptions engine_options;
  engine_options.host_threads = options.threads;
  engine_options.cache_static_tables = options.static_cache;
  engine_options.dispense = MakeDispense(options);
  engine_options.wavefront = options.wavefront;
  engine_options.jit = options.jit_mode;
  engine_options.jit_cache_dir = options.jit_cache_dir;
  auto service =
      MakeFlexiWalkerService(graph, workload, engine_options, options.seed, options.pipeline);
  std::printf("serving on %u workers | one batch per line of start-node ids | EOF or \"quit\" ends\n",
              service->num_threads());

  std::ofstream out;
  if (!options.out_path.empty()) {
    out.open(options.out_path);
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit") {
      break;
    }
    WalkBatch batch;
    std::string bad_token;
    if (!ParseStartsLine(line, batch.starts, bad_token)) {
      std::fprintf(stderr, "malformed input: token \"%s\" in line \"%s\"\n", bad_token.c_str(),
                   line.c_str());
      return kExitMalformedInput;
    }
    // Well-formed but out-of-range ids drop the whole batch (walking a
    // partial batch would shift every later batch's global id range), with
    // a warning rather than ending the session.
    bool in_range = true;
    for (NodeId id : batch.starts) {
      if (id >= graph.num_nodes()) {
        std::fprintf(stderr, "batch dropped: node %u out of range (graph has %u nodes)\n", id,
                     graph.num_nodes());
        in_range = false;
        break;
      }
    }
    if (!in_range || batch.starts.empty()) {
      continue;
    }
    BatchResult result = service->Submit(std::move(batch)).get();
    std::printf("batch %llu: %zu queries | qid [%llu, %llu) | wall %.2f ms | sim %.3f ms\n",
                static_cast<unsigned long long>(result.batch_index), result.walk.num_queries,
                static_cast<unsigned long long>(result.first_query_id),
                static_cast<unsigned long long>(result.first_query_id + result.walk.num_queries),
                result.walk.wall_ms, result.walk.sim_ms);
    if (out.is_open()) {
      WriteWalks(out, result.walk);
    }
  }
  uint64_t queries = service->queries_submitted();
  uint64_t batches = service->batches_completed();
  std::printf("served %llu queries in %llu batches\n", static_cast<unsigned long long>(queries),
              static_cast<unsigned long long>(batches));
  if (out.is_open()) {
    std::printf("walks written : %s\n", options.out_path.c_str());
  }
  return 0;
}

// One --workloads entry: a workload name plus optional per-workload
// admission overrides (defaults inherit the primary --admit/--overflow).
struct WorkloadSpec {
  std::string name;
  size_t admit = 0;
  std::string overflow;
};

// Parses "name[:admit=<n>][:overflow=<block|reject>],..." — every name must
// be a known workload, names must be unique (each is a routing key), and
// "default" is reserved for the primary --workload at id 0.
bool ParseWorkloadSpecs(const CliOptions& options, std::vector<WorkloadSpec>& specs) {
  std::string text = options.workloads;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t comma = text.find(',', pos);
    std::string entry = text.substr(pos, comma == std::string::npos ? std::string::npos
                                                                    : comma - pos);
    pos = comma == std::string::npos ? text.size() + 1 : comma + 1;
    if (entry.empty()) {
      std::fprintf(stderr, "bad --workloads entry: empty name\n");
      return false;
    }
    WorkloadSpec spec;
    spec.admit = options.admit;
    spec.overflow = options.overflow;
    size_t field = 0;
    size_t colon = entry.find(':');
    spec.name = entry.substr(0, colon);
    while (colon != std::string::npos) {
      field = colon + 1;
      colon = entry.find(':', field);
      std::string suffix = entry.substr(field, colon == std::string::npos ? std::string::npos
                                                                          : colon - field);
      if (suffix.rfind("admit=", 0) == 0) {
        unsigned long long n = 0;
        if (!ParseUnsignedFlag("--workloads admit", suffix.c_str() + 6, 1ull << 32, n) ||
            n == 0) {
          std::fprintf(stderr, "bad --workloads entry: %s\n", entry.c_str());
          return false;
        }
        spec.admit = static_cast<size_t>(n);
      } else if (suffix.rfind("overflow=", 0) == 0) {
        spec.overflow = suffix.substr(9);
        if (spec.overflow != "block" && spec.overflow != "reject") {
          std::fprintf(stderr, "bad --workloads entry: %s (overflow wants block|reject)\n",
                       entry.c_str());
          return false;
        }
      } else {
        std::fprintf(stderr, "bad --workloads entry: %s (unknown suffix \"%s\")\n",
                     entry.c_str(), suffix.c_str());
        return false;
      }
    }
    if (spec.name == "default") {
      std::fprintf(stderr,
                   "bad --workloads entry: \"default\" is reserved for the primary "
                   "--workload (id 0)\n");
      return false;
    }
    for (const WorkloadSpec& existing : specs) {
      if (existing.name == spec.name) {
        std::fprintf(stderr, "bad --workloads entry: duplicate name %s\n", spec.name.c_str());
        return false;
      }
    }
    CliOptions probe = options;
    probe.workload = spec.name;
    if (MakeWorkload(probe) == nullptr) {
      std::fprintf(stderr, "bad --workloads entry: unknown workload %s\n", spec.name.c_str());
      return false;
    }
    specs.push_back(std::move(spec));
  }
  return true;
}

// Snapshots the process metrics registry to `path` as Prometheus text.
// Truncate-and-rewrite so a scraper always sees one complete exposition.
bool WriteMetricsFile(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out.is_open()) {
    std::fprintf(stderr, "cannot write --metrics-out file: %s\n", path.c_str());
    return false;
  }
  out << obs::MetricsRegistry::Global().RenderPrometheusText();
  return true;
}

// --listen: serve the prepared (graph, workload) over TCP until stdin EOF
// or "quit". Requests coalesce into scheduler-sized batches under the
// configured window/threshold, with admission backpressure; see
// docs/SERVING.md ("Network serving").
int Listen(const CliOptions& options, const Graph& graph, const WalkLogic& workload) {
  if (options.engine != "flexiwalker") {
    std::fprintf(stderr, "--listen supports only --engine flexiwalker (got --engine %s)\n",
                 options.engine.c_str());
    return kExitUnsupportedEngine;
  }
  if (options.overflow != "block" && options.overflow != "reject") {
    std::fprintf(stderr, "unknown --overflow value: %s (want block|reject)\n",
                 options.overflow.c_str());
    return kExitUsage;
  }
  std::vector<WorkloadSpec> specs;
  if (!options.workloads.empty() && !ParseWorkloadSpecs(options, specs)) {
    return kExitUsage;
  }
  // Telemetry and signal setup, before any serving thread spawns: the
  // handled signals must be blocked process-wide (threads inherit the mask)
  // so only the dedicated sigwait thread sees them — SIGUSR1 scrapes
  // --metrics-out, SIGTERM/SIGINT drain the server gracefully — and the
  // trace ring must be live before the first request records a span. The
  // thread itself spawns after the server starts (it drives BeginDrain).
  if (!options.trace_out.empty()) {
    obs::TraceRing::Global().Enable(1 << 16);
  }
  sigset_t handled_signals;
  sigemptyset(&handled_signals);
  sigaddset(&handled_signals, SIGUSR1);
  sigaddset(&handled_signals, SIGTERM);
  sigaddset(&handled_signals, SIGINT);
  pthread_sigmask(SIG_BLOCK, &handled_signals, nullptr);
  std::thread signal_thread;
  std::atomic<bool> signal_thread_stop{false};
  std::atomic<bool> drain_requested{false};
  FlexiWalkerOptions engine_options;
  engine_options.host_threads = options.threads;
  engine_options.cache_static_tables = options.static_cache;
  engine_options.dispense = MakeDispense(options);
  engine_options.wavefront = options.wavefront;
  engine_options.jit = options.jit_mode;
  engine_options.jit_cache_dir = options.jit_cache_dir;
  auto service =
      MakeFlexiWalkerService(graph, workload, engine_options, options.seed, options.pipeline);

  WalkServer::Options server_options;
  server_options.port = static_cast<uint16_t>(options.listen_port);
  server_options.coalescer.max_delay_ms = options.coalesce_us / 1000.0;
  server_options.coalescer.adaptive_window = options.adaptive_window_on;
  server_options.coalescer.max_batch_queries = options.max_batch;
  server_options.coalescer.max_outstanding_queries = options.admit;
  server_options.coalescer.overflow = options.overflow == "reject"
                                          ? BatchCoalescer::OverflowPolicy::kReject
                                          : BatchCoalescer::OverflowPolicy::kBlock;
  WalkServer server(*service, graph.num_nodes(), server_options);

  // Extra workloads share the graph and engine configuration but get their
  // own WalkLogic, WalkService (seeded off the workload id so streams stay
  // independent), and admission quota.
  std::vector<std::unique_ptr<WalkLogic>> extra_logics;
  std::vector<std::unique_ptr<WalkService>> extra_services;
  for (size_t i = 0; i < specs.size(); ++i) {
    const WorkloadSpec& spec = specs[i];
    CliOptions spec_options = options;
    spec_options.workload = spec.name;
    extra_logics.push_back(MakeWorkload(spec_options));
    extra_services.push_back(MakeFlexiWalkerService(graph, *extra_logics.back(), engine_options,
                                                    options.seed + i + 1, options.pipeline));
    BatchCoalescer::Options admission = server_options.coalescer;
    admission.max_outstanding_queries = spec.admit;
    admission.overflow = spec.overflow == "reject" ? BatchCoalescer::OverflowPolicy::kReject
                                                   : BatchCoalescer::OverflowPolicy::kBlock;
    uint32_t id = server.RegisterWorkload(spec.name, *extra_services.back(), admission);
    std::printf("workload %u: %s | admit %zu | overflow %s\n", id, spec.name.c_str(), spec.admit,
                spec.overflow.c_str());
  }

  // Final telemetry dumps, after serving stops: poke the sigwait thread
  // loose with one last SIGUSR1 (the stop flag tells it apart from a user
  // scrape), then write the end-of-run snapshot and the trace.
  auto finish_telemetry = [&] {
    if (signal_thread.joinable()) {
      signal_thread_stop.store(true, std::memory_order_release);
      pthread_kill(signal_thread.native_handle(), SIGUSR1);
      signal_thread.join();
    }
    if (!options.metrics_out.empty() && WriteMetricsFile(options.metrics_out)) {
      std::printf("metrics written: %s\n", options.metrics_out.c_str());
    }
    if (!options.trace_out.empty()) {
      if (obs::TraceRing::Global().WriteChromeTrace(options.trace_out)) {
        std::printf("trace written  : %s (%zu spans)\n", options.trace_out.c_str(),
                    obs::TraceRing::Global().Snapshot().size());
      } else {
        std::fprintf(stderr, "cannot write --trace-out file: %s\n", options.trace_out.c_str());
      }
      obs::TraceRing::Global().Disable();
    }
  };
  std::string error;
  if (!server.Start(&error)) {
    std::fprintf(stderr, "cannot start server: %s\n", error.c_str());
    finish_telemetry();
    return kExitUsage;
  }
  signal_thread = std::thread([&options, &server, &signal_thread_stop, &drain_requested,
                               &handled_signals] {
    for (;;) {
      int sig = 0;
      if (sigwait(&handled_signals, &sig) != 0) {
        return;
      }
      if (signal_thread_stop.load(std::memory_order_acquire)) {
        return;  // shutdown poke from Listen's exit path
      }
      if (sig == SIGUSR1) {
        if (!options.metrics_out.empty() && WriteMetricsFile(options.metrics_out)) {
          std::fprintf(stderr, "metrics written: %s\n", options.metrics_out.c_str());
        }
        continue;
      }
      // SIGTERM / SIGINT: graceful drain — stop accepting, answer new
      // requests kDraining, let admitted work finish up to the grace.
      // BeginDrain ends in Stop(), so by the time drain_requested becomes
      // visible the server is fully down and the main thread's own Stop()
      // is a no-op; telemetry is then flushed on the normal exit path.
      std::fprintf(stderr, "signal %d: draining (grace %u ms)\n", sig, options.drain_ms);
      server.BeginDrain(std::chrono::milliseconds(options.drain_ms));
      drain_requested.store(true, std::memory_order_release);
    }
  });
  std::printf(
      "listening on 127.0.0.1:%u | %u workers | coalesce window %u us | max batch %zu | "
      "pipeline %u | overflow %s | EOF or \"quit\" stops\n",
      server.port(), service->num_threads(), options.coalesce_us, options.max_batch,
      service->pipeline_depth(), options.overflow.c_str());
  std::fflush(stdout);

  // Wait for an operator stop — stdin EOF or "quit" (interactive and script
  // use), or a signal-initiated drain. Polling stdin keeps the loop
  // responsive to the drain flag without a second thread owning stdin.
  std::string line;
  for (;;) {
    if (drain_requested.load(std::memory_order_acquire)) {
      break;
    }
    pollfd stdin_ready{STDIN_FILENO, POLLIN, 0};
    int ready = ::poll(&stdin_ready, 1, 100);
    if (ready < 0 && errno != EINTR) {
      break;
    }
    if (ready <= 0) {
      continue;
    }
    if (!std::getline(std::cin, line) || line == "quit") {
      break;
    }
  }
  server.Stop();
  uint64_t queries = service->queries_submitted();
  uint64_t batches = service->batches_completed();
  for (const auto& extra : extra_services) {
    queries += extra->queries_submitted();
    batches += extra->batches_completed();
  }
  std::printf("served %llu queries in %llu batches | %llu connections | %llu requests "
              "(%llu rejected, %llu malformed frames)\n",
              static_cast<unsigned long long>(queries), static_cast<unsigned long long>(batches),
              static_cast<unsigned long long>(server.connections_accepted()),
              static_cast<unsigned long long>(server.requests_received()),
              static_cast<unsigned long long>(server.requests_rejected()),
              static_cast<unsigned long long>(server.frames_malformed()));
  finish_telemetry();
  return 0;
}

// --connect: forward stdin batches to a WalkServer and print each result,
// mirroring serve-mode output so scripts can treat the two alike.
int Client(const CliOptions& options) {
  std::string host = "127.0.0.1";
  std::string port_text = options.connect;
  if (size_t colon = options.connect.rfind(':'); colon != std::string::npos) {
    host = options.connect.substr(0, colon);
    port_text = options.connect.substr(colon + 1);
  }
  unsigned long long port = 0;
  if (!ParseUnsignedFlag("--connect", port_text.c_str(), 65535, port)) {
    return kExitUsage;
  }
  if (port == 0) {
    std::fprintf(stderr, "bad value for --connect: %s (port 0)\n", options.connect.c_str());
    return kExitUsage;
  }
  WalkClient::Options client_options;
  client_options.connect_timeout_ms = options.request_timeout_ms;
  client_options.request_timeout_ms = options.request_timeout_ms;
  client_options.max_retries = options.retries;
  client_options.backoff.seed = options.seed;  // reproducible retry delays
  WalkClient client(client_options);
  std::string error;
  if (!client.Connect(host, static_cast<uint16_t>(port), &error)) {
    std::fprintf(stderr, "cannot connect to %s:%llu: %s\n", host.c_str(), port, error.c_str());
    return kExitUsage;
  }
  // --stats: one scrape, print the Prometheus text verbatim, done. Scripts
  // pipe this through grep (scripts/ci smoke, docs/OBSERVABILITY.md).
  if (options.stats) {
    try {
      std::string text = client.FetchStats();
      std::fwrite(text.data(), 1, text.size(), stdout);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "stats scrape failed: %s\n", e.what());
      client.Close();
      return kExitUsage;
    }
    client.Close();
    return 0;
  }
  std::ofstream out;
  if (!options.out_path.empty()) {
    out.open(options.out_path);
  }
  uint64_t requests = 0;
  uint64_t queries = 0;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit") {
      break;
    }
    std::vector<NodeId> starts;
    std::string bad_token;
    if (!ParseStartsLine(line, starts, bad_token)) {
      std::fprintf(stderr, "malformed input: token \"%s\" in line \"%s\"\n", bad_token.c_str(),
                   line.c_str());
      return kExitMalformedInput;
    }
    if (starts.empty()) {
      continue;
    }
    try {
      WalkClient::Result result =
          client.Walk(std::move(starts), options.workload_id, options.deadline_us);
      std::printf("request %llu: %zu queries | qid [%llu, %llu)\n",
                  static_cast<unsigned long long>(requests), result.num_queries,
                  static_cast<unsigned long long>(result.first_query_id),
                  static_cast<unsigned long long>(result.first_query_id + result.num_queries));
      queries += result.num_queries;
      ++requests;
      if (out.is_open()) {
        WriteWalks(out, result);
      }
    } catch (const std::exception& e) {
      // Per-request server errors (out-of-range start, overload rejection)
      // keep the session alive; a dead connection ends it.
      std::fprintf(stderr, "request failed: %s\n", e.what());
      if (!client.connected()) {
        return kExitUsage;
      }
    }
  }
  client.Close();
  std::printf("received %llu results (%llu walks)\n", static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(queries));
  if (out.is_open()) {
    std::printf("walks written : %s\n", options.out_path.c_str());
  }
  return 0;
}

int Run(const CliOptions& options) {
  // The coalescer — and therefore the adaptive window — exists only in the
  // TCP server; reject rather than silently ignore the flag elsewhere.
  if (options.adaptive_window_set && options.listen_port < 0) {
    std::fprintf(stderr, "--adaptive-window applies only to --listen mode\n");
    return kExitUsage;
  }
  // Workload registration exists only on the TCP server; workload routing
  // only in the client. Reject rather than ignore.
  if (!options.workloads.empty() && options.listen_port < 0) {
    std::fprintf(stderr, "--workloads applies only to --listen mode\n");
    return kExitUsage;
  }
  if (options.workload_id_set && options.connect.empty()) {
    std::fprintf(stderr, "--workload-id applies only to --connect mode\n");
    return kExitUsage;
  }
  if (options.stats && options.connect.empty()) {
    std::fprintf(stderr, "--stats applies only to --connect mode\n");
    return kExitUsage;
  }
  if ((!options.metrics_out.empty() || !options.trace_out.empty()) && options.listen_port < 0) {
    std::fprintf(stderr, "--metrics-out/--trace-out apply only to --listen mode\n");
    return kExitUsage;
  }
  // Deadlines, local timeouts, and retries are client-side request options;
  // the drain grace belongs to the server. Reject rather than ignore.
  if ((options.deadline_us_set || options.request_timeout_set || options.retries_set) &&
      options.connect.empty()) {
    std::fprintf(stderr,
                 "--deadline-us/--request-timeout-ms/--retries apply only to --connect mode\n");
    return kExitUsage;
  }
  if (options.drain_ms_set && options.listen_port < 0) {
    std::fprintf(stderr, "--drain-ms applies only to --listen mode\n");
    return kExitUsage;
  }
  // The out-of-core tier exists only behind the flexiwalker engine (the
  // baselines have no block-cached path) and only for one-shot runs — the
  // serving modes keep the graph resident for the process lifetime, so a
  // block cache would bound nothing.
  if (options.out_of_core) {
    if (options.engine != "flexiwalker") {
      std::fprintf(stderr,
                   "--block-bytes/--cache-blocks apply only to --engine flexiwalker "
                   "(got --engine %s)\n",
                   options.engine.c_str());
      return kExitUsage;
    }
    if (options.serve || options.listen_port >= 0 || !options.connect.empty()) {
      std::fprintf(stderr,
                   "--block-bytes/--cache-blocks apply only to one-shot runs "
                   "(not --serve/--listen/--connect)\n");
      return kExitUsage;
    }
  }
  // Client mode talks to a remote server: no graph, workload, or engine is
  // built locally (the server validates start ids against its own graph).
  if (!options.connect.empty()) {
    return Client(options);
  }
  // Every engine executes through the WalkScheduler; this sets its
  // process-wide worker count (0 keeps the hardware default).
  SetDefaultWorkerThreads(options.threads);

  WeightDistribution dist = WeightDistribution::kUniform;
  if (options.weights == "pareto") {
    dist = WeightDistribution::kPareto;
  } else if (options.weights == "degree") {
    dist = WeightDistribution::kDegreeBased;
  } else if (options.weights == "none") {
    dist = WeightDistribution::kUnweighted;
  } else if (options.weights != "uniform") {
    std::fprintf(stderr, "unknown --weights value: %s\n", options.weights.c_str());
    return 1;
  }

  Graph graph;
  if (!options.graph_path.empty()) {
    graph = ReadEdgeListFile(options.graph_path);
    if (!graph.weighted() && dist != WeightDistribution::kUnweighted) {
      AssignWeights(graph, dist, options.alpha, options.seed + 1);
    }
    if (!graph.labeled()) {
      AssignLabels(graph, 5, options.seed + 2);
    }
  } else {
    graph = LoadDataset(DatasetByName(options.dataset), dist, options.alpha);
  }
  if ((options.workload == "temporal" || options.workload == "temporal-decay") &&
      !graph.temporal()) {
    AssignTimestamps(graph, 1.0f, options.seed + 3);
  }

  std::unique_ptr<WalkLogic> workload = MakeWorkload(options);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown --workload: %s\n", options.workload.c_str());
    return 1;
  }
  if (options.listen_port >= 0) {
    return Listen(options, graph, *workload);
  }
  if (options.serve) {
    return Serve(options, graph, *workload);
  }
  // The baseline engines build their own SchedulerOptions internally, so
  // the dispensation/wavefront flags cannot reach them; reject rather than
  // silently run with the defaults the user just tried to override.
  if ((options.dispense_set || options.wavefront_set || options.jit_set ||
       options.jit_cache_dir_set) &&
      options.engine != "flexiwalker") {
    std::fprintf(stderr,
                 "--chunk/--steal/--wavefront/--jit/--jit-cache-dir apply only to "
                 "--engine flexiwalker (they tune both its execution tiers, the in-memory "
                 "scheduler and the out-of-core block executor; got --engine %s)\n",
                 options.engine.c_str());
    return kExitUsage;
  }
  std::unique_ptr<Engine> engine = MakeEngine(options);
  if (engine == nullptr) {
    std::fprintf(stderr, "unknown --engine: %s\n", options.engine.c_str());
    return 1;
  }

  std::vector<NodeId> starts = AllNodesAsStarts(graph);
  if (options.queries != 0 && options.queries < starts.size()) {
    starts.resize(options.queries);
  }

  std::printf(
      "graph: %u nodes / %llu edges | workload: %s | engine: %s%s | queries: %zu | threads: %u\n",
      graph.num_nodes(), static_cast<unsigned long long>(graph.num_edges()),
      workload->name().c_str(), engine->name().c_str(),
      options.out_of_core ? " (out-of-core)" : "", starts.size(), DefaultWorkerThreads());
  WalkResult result;
  if (options.out_of_core) {
    // Partition to a throwaway block file and walk it under the bounded
    // cache. The cost ratio is pinned: profiling samples the whole graph,
    // which is exactly what out-of-core execution cannot assume is
    // loadable (out_of_core.h).
    const std::string block_path =
        "/tmp/flexiwalker_cli_" + std::to_string(getpid()) + ".blk";
    size_t blocks = PartitionToBlockFile(graph, block_path, options.block_bytes);
    BlockStore store = BlockStore::Open(block_path);
    FlexiWalkerOptions engine_options;
    engine_options.dispense = MakeDispense(options);
    engine_options.wavefront = options.wavefront;
    engine_options.jit = options.jit_mode;
    engine_options.jit_cache_dir = options.jit_cache_dir;
    engine_options.edge_cost_ratio = 4.0;
    OutOfCoreStats ooc_stats;
    std::printf("out-of-core   : %zu blocks of <= %zu bytes | cache %u blocks (%.2f MiB budget)\n",
                blocks, store.block_bytes(), options.cache_blocks,
                options.cache_blocks * static_cast<double>(store.block_bytes()) /
                    (1024.0 * 1024.0));
    try {
      result = RunFlexiWalkerOutOfCore(store, *workload, engine_options, options.cache_blocks,
                                       starts, options.seed, &ooc_stats);
    } catch (const std::invalid_argument& e) {
      // Second-order workloads (node2vec, 2ndpr) probe the previous node's
      // row, which block residency of the current node cannot serve.
      std::fprintf(stderr, "out-of-core run rejected: %s\n", e.what());
      std::remove(block_path.c_str());
      return kExitUsage;
    }
    std::remove(block_path.c_str());
    std::printf("block loads   : %llu (%llu evictions, %llu cache hits, %llu walk parks)\n",
                static_cast<unsigned long long>(ooc_stats.block_loads),
                static_cast<unsigned long long>(ooc_stats.block_evictions),
                static_cast<unsigned long long>(ooc_stats.cache_hits),
                static_cast<unsigned long long>(ooc_stats.parks));
    std::printf("disk read     : %.2f MiB (%llu payload bytes)\n",
                ooc_stats.bytes_read / (1024.0 * 1024.0),
                static_cast<unsigned long long>(ooc_stats.bytes_read));
  } else {
    result = engine->Run(graph, *workload, starts, options.seed);
  }

  uint64_t steps = 0;
  for (size_t qid = 0; qid < result.num_queries; ++qid) {
    auto path = result.Path(qid);
    for (size_t s = 1; s < path.size() && path[s] != kInvalidNode; ++s) {
      ++steps;
    }
  }
  auto freq = VisitFrequencies(result, graph.num_nodes());
  NodeId hottest = 0;
  for (NodeId v = 1; v < graph.num_nodes(); ++v) {
    if (freq[v] > freq[hottest]) {
      hottest = v;
    }
  }
  std::printf("steps sampled : %llu\n", static_cast<unsigned long long>(steps));
  std::printf("wall clock    : %.2f ms\n", result.wall_ms);
  std::printf("simulated time: %.3f ms\n", result.sim_ms);
  std::printf("energy        : %.4f J\n", result.joules);
  std::printf("hottest node  : %u (%.3f%% of visits)\n", hottest, freq[hottest] * 100.0);

  if (!options.out_path.empty()) {
    std::ofstream out(options.out_path);
    WriteWalks(out, result);
    std::printf("walks written : %s\n", options.out_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace flexi

int main(int argc, char** argv) {
  flexi::CliOptions options;
  if (!flexi::ParseArgs(argc, argv, options)) {
    return 1;
  }
  if (options.help) {
    flexi::PrintUsage();
    return 0;
  }
  return flexi::Run(options);
}
