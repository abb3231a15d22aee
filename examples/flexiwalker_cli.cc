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
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
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

// Distinct exit codes so scripts can tell failure modes apart: flag/usage
// errors (and unreadable files), a --serve/--listen engine the serving
// stack does not support, and malformed input (stdin start-node tokens or
// a --graph edge list).
constexpr int kExitUsage = 1;
constexpr int kExitUnsupportedEngine = 2;
constexpr int kExitMalformedInput = 3;

// A run's mode. --connect (a metrics scrape with --stats), --listen and
// --serve each select their own; a run with none of them is one-shot, out
// of core when --block-bytes or --cache-blocks is given. Each flag names
// the modes it applies to.
enum Mode : unsigned {
  kOneShot = 1, kOutOfCore = 2, kServe = 4, kListen = 8, kConnect = 16, kStats = 32,
};
constexpr unsigned kServing = kServe | kListen;
constexpr unsigned kLocal = kOneShot | kOutOfCore | kServing;
constexpr unsigned kClient = kConnect | kStats;
constexpr const char* kModeNames[] = {"one-shot", "out-of-core", "--serve",
                                      "--listen", "--connect",   "--connect --stats"};

enum class Kind { kSwitch, kUnsigned, kReal, kChoice, kText };

// One command-line flag. The parser range-checks its value, the mode and
// engine gate reject it outside its modes, and --help prints it, all from
// this row.
struct Flag {
  const char* name;
  Kind kind;
  std::string_view value;  // kChoice: "a|b|c", the first is the default; else a --help placeholder
  std::string_view def;    // kUnsigned/kReal default text; empty = none
  uint64_t min, max;       // kUnsigned bounds
  unsigned modes;
  bool flexi_only;  // needs --engine flexiwalker: the baselines have no such setting
  const char* help;
};

constexpr Flag Switch(const char* name, unsigned modes, const char* help) {
  return {name, Kind::kSwitch, "", "", 0, 0, modes, false, help};
}
constexpr Flag Num(const char* name, std::string_view def, uint64_t min, uint64_t max,
                   unsigned modes, const char* help, bool flexi_only = false) {
  return {name, Kind::kUnsigned, "", def, min, max, modes, flexi_only, help};
}
constexpr Flag Choice(const char* name, std::string_view choices, unsigned modes,
                      const char* help, bool flexi_only = false) {
  return {name, Kind::kChoice, choices, "", 0, 0, modes, flexi_only, help};
}
constexpr Flag Text(const char* name, std::string_view placeholder, unsigned modes,
                    const char* help, bool flexi_only = false) {
  return {name, Kind::kText, placeholder, "", 0, 0, modes, flexi_only, help};
}

constexpr Flag kFlags[] = {
    Choice("--dataset", "YT|CP|LJ|OK|EU|AB|UK|TW|SK|FS", kLocal, "stand-in dataset"),
    Text("--graph", "path", kLocal,
         "edge-list file (src dst [weight [label]]) instead of a dataset"),
    Choice("--workload",
           "node2vec|metapath|2ndpr|deepwalk|ppr|temporal|temporal-decay|autoregressive", kLocal,
           "walk to run"),
    Choice("--engine",
           "flexiwalker|flowwalker|nextdoor|csaw|skywalker|thunderrw|knightking|sowalker", kLocal,
           "walk engine; --serve and --listen run flexiwalker only (exit 2)"),
    Choice("--weights", "uniform|pareto|degree|none", kLocal, "property weights"),
    {"--alpha", Kind::kReal, "positive real", "2.0", 0, 0, kLocal, false,
     "Pareto shape for --weights pareto"},
    // 2^32 - 2 keeps the path stride length + 1 inside uint32_t.
    Num("--length", "80", 0, 0xFFFFFFFE, kLocal, "walk length in steps"),
    Num("--queries", "0", 0, std::numeric_limits<size_t>::max(), kOneShot | kOutOfCore,
        "start nodes 0..n-1; 0 = every node"),
    Num("--threads", "0", 0, kMaxHostWorkers, kLocal,
        "host worker threads; 0 = hardware concurrency"),
    Num("--seed", "2026", 0, std::numeric_limits<uint64_t>::max(), kLocal | kConnect,
        "RNG seed (--connect: retry backoff jitter)"),
    Text("--out", "path", kOneShot | kOutOfCore | kServe | kConnect, "write walks, one per line"),
    // The scheduler clamps this; reject rather than silently shrink a wild
    // request.
    Num("--wavefront", "0", 0, kMaxWavefront, kLocal,
        "in-flight walks per worker; 0 = scheduler default, 1 = walk-at-a-time", true),
    Choice("--jit", "off|on|auto", kLocal,
           "compiled step kernels; auto compiles in the background and swaps in", true),
    Text("--jit-cache-dir", "path", kLocal, "on-disk .so cache for --jit (default: system temp)",
         true),
    // The partitioner's floor; a block above 1 GiB defeats partitioning.
    Num("--block-bytes", "4194304", kMinBlockBytes, 1ull << 30, kOutOfCore,
        "partition the graph into edge blocks of at most n bytes", true),
    Num("--cache-blocks", "4", 1, 1ull << 20, kOutOfCore,
        "resident-block budget: edge memory <= cache-blocks x block-bytes", true),
    Switch("--serve", kServe, "read batches of start-node ids from stdin, one per line, until "
                              "EOF or \"quit\""),
    Num("--listen", "", 0, 65535, kListen,
        "serve over TCP on 127.0.0.1:port (0 = ephemeral); stdin EOF or \"quit\" stops"),
    Text("--connect", "[host:]port", kClient,
         "the --listen server to send stdin batches to, or to scrape with --stats"),
    // Windows and deadlines above these are surely typos, not budgets.
    Num("--coalesce-us", "200", 0, 60'000'000, kListen, "request-coalescing window"),
    Num("--max-batch", "512", 0, 1ull << 32, kListen, "coalescer flush threshold, queries"),
    Num("--admit", "65536", 0, 1ull << 32, kListen,
        "admission bound, queries pending + in flight"),
    Choice("--overflow", "block|reject", kListen, "backpressure when the admission bound is hit"),
    Num("--pipeline", "2", 0, 256, kServing, "batch runner threads per served workload"),
    Text("--workloads", "spec", kListen,
         "extra workloads, name[:admit=n][:overflow=block|reject],... (--workload is id 0)"),
    Switch("--static-cache", kServing,
           "walk static workloads (deepwalk, unweighted) on per-node alias tables"),
    Choice("--adaptive-window", "on|off", kListen,
           "flush at once when traffic is sparse instead of waiting out the window"),
    Num("--drain-ms", "5000", 0, 3'600'000, kListen,
        "SIGTERM/SIGINT grace for admitted work before the server stops"),
    Text("--metrics-out", "path", kListen,
         "write the metrics registry as Prometheus text on SIGUSR1 and at exit"),
    Text("--trace-out", "path", kListen,
         "write request-lifecycle spans as Chrome trace_event JSON at exit"),
    Num("--workload-id", "0", 0, 0xFFFFFFFF, kConnect, "route requests to this server workload"),
    Num("--deadline-us", "0", 0, 3'600'000'000, kConnect,
        "latency budget per request; 0 = none; the server sheds lapsed work"),
    Num("--request-timeout-ms", "0", 0, 3'600'000, kClient,
        "fail a request, and the connect, locally after n ms; 0 = never"),
    Num("--retries", "0", 0, 1000, kConnect,
        "retry transient failures with jittered exponential backoff"),
    Switch("--stats", kStats, "print the server's metrics as Prometheus text and exit"),
};

constexpr const Flag* FindFlag(std::string_view name) {
  for (const Flag& flag : kFlags) {
    if (std::string_view(flag.name) == name) {
      return &flag;
    }
  }
  return nullptr;
}

// A kFlags row named at compile time: an unknown name does not compile.
struct FlagName {
  size_t row;
  consteval FlagName(const char* name) : row(0) {
    const Flag* flag = FindFlag(name);
    if (flag == nullptr) {
      throw "no such flag";  // not a constant expression
    }
    row = static_cast<size_t>(flag - kFlags);
  }
};

std::string_view Default(const Flag& flag) {
  return flag.kind == Kind::kChoice ? flag.value.substr(0, flag.value.find('|')) : flag.def;
}

// The whole of `text` as an unsigned integer in [min, max]: a sign, a
// space, trailing characters or an overflow is no value.
std::optional<uint64_t> ParseUnsigned(std::string_view text, uint64_t min, uint64_t max) {
  uint64_t value = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || value < min || value > max) {
    return std::nullopt;
  }
  return value;
}

// The whole of `text` as a finite, positive real.
std::optional<double> ParseReal(std::string_view text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || ptr != end || !std::isfinite(value) || value <= 0.0) {
    return std::nullopt;
  }
  return value;
}

bool ValueOk(const Flag& flag, std::string_view text) {
  switch (flag.kind) {
    case Kind::kUnsigned:
      return ParseUnsigned(text, flag.min, flag.max).has_value();
    case Kind::kReal:
      return ParseReal(text).has_value();
    case Kind::kChoice:
      for (std::string_view rest = flag.value;;) {
        size_t bar = rest.find('|');
        if (rest.substr(0, bar) == text) {
          return true;
        }
        if (bar == std::string_view::npos) {
          return false;
        }
        rest.remove_prefix(bar + 1);
      }
    default:
      return true;
  }
}

// "<min..max>", "<a|b|c>" or "<placeholder>".
std::string Placeholder(const Flag& flag) {
  if (flag.kind == Kind::kUnsigned) {
    return "<" + std::to_string(flag.min) + ".." + std::to_string(flag.max) + ">";
  }
  return "<" + std::string(flag.value) + ">";
}

std::string ModeNames(unsigned modes) {
  std::string names;
  for (unsigned m = 0; m < std::size(kModeNames); ++m) {
    if (modes & (1u << m)) {
      names += (names.empty() ? "" : ", ") + std::string(kModeNames[m]);
    }
  }
  return names;
}

// The parsed command line: the run's mode, and for each kFlags row the
// given value (pointing into argv) or the row's default.
struct Args {
  unsigned mode = kOneShot;
  bool help = false;
  const char* given[std::size(kFlags)] = {};

  bool Given(FlagName flag) const { return given[flag.row] != nullptr; }
  std::string_view Text(FlagName flag) const {
    return Given(flag) ? given[flag.row] : Default(kFlags[flag.row]);
  }
  std::string Str(FlagName flag) const { return std::string(Text(flag)); }
  uint64_t Num(FlagName flag) const {
    return *ParseUnsigned(Text(flag), 0, std::numeric_limits<uint64_t>::max());
  }
  double Real(FlagName flag) const { return *ParseReal(Text(flag)); }
  bool On(FlagName flag) const { return Text(flag) == "on"; }
};

void PrintUsage() {
  std::printf(
      "flexiwalker_cli — run dynamic random walks\n\n"
      "Modes (the column before each flag): o one-shot | b out-of-core, a one-shot run\n"
      "given --block-bytes or --cache-blocks (first-order workloads) | s --serve |\n"
      "l --listen | c --connect | m --connect --stats. A flag outside its modes is a\n"
      "usage error. f: needs --engine flexiwalker. Walk paths are identical for any\n"
      "--threads, --wavefront and --jit. Serving: docs/SERVING.md; telemetry:\n"
      "docs/OBSERVABILITY.md.\n\n");
  for (const Flag& flag : kFlags) {
    std::string line = "  ------  " + std::string(flag.name);
    for (unsigned m = 0; m < std::size(kModeNames); ++m) {
      line[2 + m] = (flag.modes & (1u << m)) ? "obslcm"[m] : '-';
    }
    line[8] = flag.flexi_only ? 'f' : ' ';
    if (flag.kind != Kind::kSwitch) {
      line += " " + Placeholder(flag);
    }
    if (std::string_view def = Default(flag); !def.empty()) {
      line += " (default " + std::string(def) + ")";
    }
    std::printf("%s\n          %s\n", line.c_str(), flag.help);
  }
  std::printf("exit codes: 0 ok | %d usage or a failed --connect request | %d unsupported engine | "
              "%d malformed input\n",
              kExitUsage, kExitUnsupportedEngine, kExitMalformedInput);
}

// Records each flag's value after checking it against its row, then picks
// the run's mode. Prints why and returns false on an unknown flag, a
// missing value or a value outside the row's range or choices.
bool ParseArgs(int argc, char** argv, Args& args) {
  for (int i = 1; i < argc; ++i) {
    std::string_view arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      args.help = true;
      return true;
    }
    const Flag* flag = FindFlag(arg);
    if (flag == nullptr) {
      std::fprintf(stderr, "unknown flag: %s (try --help)\n", argv[i]);
      return false;
    }
    const char* text = "on";
    if (flag->kind != Kind::kSwitch) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        return false;
      }
      text = argv[++i];
    }
    if (!ValueOk(*flag, text)) {
      std::fprintf(stderr, "bad value for %s: %s (want %s)\n", flag->name, text,
                   Placeholder(*flag).c_str());
      return false;
    }
    args.given[flag - kFlags] = text;
  }
  args.mode = args.Given("--connect")  ? (args.Given("--stats") ? kStats : kConnect)
              : args.Given("--listen") ? kListen
              : args.Given("--serve")  ? kServe
              : args.Given("--block-bytes") || args.Given("--cache-blocks") ? kOutOfCore
                                                                          : kOneShot;
  return true;
}

// Mode and engine gating in one pass over the given flags, so no flag is
// accepted and then ignored. Returns an exit code, 0 to run.
int CheckArgs(const Args& args) {
  std::string engine = args.Str("--engine");
  if ((args.mode & kServing) != 0 && engine != "flexiwalker") {
    std::fprintf(stderr, "%s supports only --engine flexiwalker (got --engine %s)\n",
                 args.mode == kServe ? "--serve" : "--listen", engine.c_str());
    return kExitUnsupportedEngine;
  }
  for (size_t row = 0; row < std::size(kFlags); ++row) {
    const Flag& flag = kFlags[row];
    if (args.given[row] == nullptr) {
      continue;
    }
    if ((flag.modes & args.mode) == 0) {
      std::fprintf(stderr, "%s does not apply to %s (only to %s)\n", flag.name,
                   ModeNames(args.mode).c_str(), ModeNames(flag.modes).c_str());
      return kExitUsage;
    }
    if (flag.flexi_only && engine != "flexiwalker") {
      std::fprintf(stderr, "%s applies only to --engine flexiwalker (got --engine %s)\n",
                   flag.name, engine.c_str());
      return kExitUsage;
    }
  }
  return 0;
}

// The FlexiWalkerOptions of every tier: the engine, each served workload's
// service and the out-of-core executor.
FlexiWalkerOptions FlexiOptions(const Args& args) {
  FlexiWalkerOptions options;
  options.host_threads = static_cast<unsigned>(args.Num("--threads"));
  options.cache_static_tables = args.Given("--static-cache");
  options.wavefront = static_cast<uint32_t>(args.Num("--wavefront"));
  jit::ParseJitMode(args.Str("--jit"), &options.jit);  // the row admits only its choices
  options.jit_cache_dir = args.Str("--jit-cache-dir");
  return options;
}

std::unique_ptr<WalkLogic> MakeWorkload(std::string_view name, uint32_t length) {
  if (name == "node2vec") {
    return std::make_unique<Node2VecWalk>(2.0, 0.5, length);
  }
  if (name == "metapath") {
    return std::make_unique<MetaPathWalk>(std::vector<uint8_t>{0, 1, 2, 3, 4});
  }
  if (name == "2ndpr") {
    return std::make_unique<SecondOrderPageRankWalk>(0.2, length);
  }
  if (name == "deepwalk") {
    return std::make_unique<DeepWalk>(length);
  }
  if (name == "ppr") {
    return std::make_unique<PersonalizedPageRankWalk>(0.15, length);
  }
  if (name == "temporal") {
    return std::make_unique<TemporalWalk>(length);
  }
  if (name == "temporal-decay") {
    return std::make_unique<TemporalDecayWalk>(0.1, length);
  }
  if (name == "autoregressive") {
    return std::make_unique<AutoregressiveWalk>(0.5, length);
  }
  return nullptr;
}

std::unique_ptr<Engine> MakeEngine(const Args& args) {
  std::string_view name = args.Text("--engine");
  if (name == "flexiwalker") {
    return std::make_unique<FlexiWalkerEngine>(FlexiOptions(args));
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
  return std::make_unique<SOWalkerEngine>();  // the --engine row's last choice
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
    std::optional<uint64_t> id = ParseUnsigned(token, 0, std::numeric_limits<NodeId>::max());
    if (!id) {
      bad_token = token;
      return false;
    }
    starts.push_back(static_cast<NodeId>(*id));
  }
  return true;
}

// Streaming mode: one WalkService over the prepared (graph, workload), fed
// batches of start-node ids from stdin — one whitespace-separated batch per
// line — until EOF or "quit". Query ids are global and monotonic across
// batches, so the printed paths for a given seed are bit-identical however
// the same starts are carved into lines (docs/SERVING.md).
int Serve(const Args& args, const Graph& graph, const WalkLogic& workload, std::ofstream& out) {
  auto service =
      MakeFlexiWalkerService(graph, workload, FlexiOptions(args), args.Num("--seed"),
                             static_cast<unsigned>(args.Num("--pipeline")));
  std::printf("serving on %u workers | one batch per line of start-node ids | EOF or \"quit\" ends\n",
              service->num_threads());
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
  std::printf("served %llu queries in %llu batches\n",
              static_cast<unsigned long long>(service->queries_submitted()),
              static_cast<unsigned long long>(service->batches_completed()));
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
bool ParseWorkloadSpecs(const Args& args, std::vector<WorkloadSpec>& specs) {
  std::string text = args.Str("--workloads");
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
    spec.admit = args.Num("--admit");
    spec.overflow = args.Str("--overflow");
    size_t field = 0;
    size_t colon = entry.find(':');
    spec.name = entry.substr(0, colon);
    while (colon != std::string::npos) {
      field = colon + 1;
      colon = entry.find(':', field);
      std::string suffix = entry.substr(field, colon == std::string::npos ? std::string::npos
                                                                          : colon - field);
      if (suffix.rfind("admit=", 0) == 0) {
        std::optional<uint64_t> n =
            ParseUnsigned(std::string_view(suffix).substr(6), 1, 1ull << 32);
        if (!n) {
          std::fprintf(stderr, "bad --workloads entry: %s\n", entry.c_str());
          return false;
        }
        spec.admit = static_cast<size_t>(*n);
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
    if (MakeWorkload(spec.name, 1) == nullptr) {
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
int Listen(const Args& args, const Graph& graph, const WalkLogic& workload) {
  std::vector<WorkloadSpec> specs;
  if (args.Given("--workloads") && !ParseWorkloadSpecs(args, specs)) {
    return kExitUsage;
  }
  const std::string metrics_out = args.Str("--metrics-out");
  const std::string trace_out = args.Str("--trace-out");
  const unsigned drain_ms = static_cast<unsigned>(args.Num("--drain-ms"));
  // Telemetry and signal setup, before any serving thread spawns: the
  // handled signals must be blocked process-wide (threads inherit the mask)
  // so only the dedicated sigwait thread sees them — SIGUSR1 scrapes
  // --metrics-out, SIGTERM/SIGINT drain the server gracefully — and the
  // trace ring must be live before the first request records a span. The
  // thread itself spawns after the server starts (it drives BeginDrain).
  if (!trace_out.empty()) {
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
  const FlexiWalkerOptions engine_options = FlexiOptions(args);
  const uint64_t seed = args.Num("--seed");
  const unsigned pipeline = static_cast<unsigned>(args.Num("--pipeline"));
  auto service = MakeFlexiWalkerService(graph, workload, engine_options, seed, pipeline);

  WalkServer::Options server_options;
  server_options.port = static_cast<uint16_t>(args.Num("--listen"));
  server_options.coalescer.max_delay_ms = args.Num("--coalesce-us") / 1000.0;
  server_options.coalescer.adaptive_window = args.On("--adaptive-window");
  server_options.coalescer.max_batch_queries = args.Num("--max-batch");
  server_options.coalescer.max_outstanding_queries = args.Num("--admit");
  server_options.coalescer.overflow = args.Text("--overflow") == "reject"
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
    extra_logics.push_back(MakeWorkload(spec.name, static_cast<uint32_t>(args.Num("--length"))));
    extra_services.push_back(MakeFlexiWalkerService(graph, *extra_logics.back(), engine_options,
                                                    seed + i + 1, pipeline));
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
    if (!metrics_out.empty() && WriteMetricsFile(metrics_out)) {
      std::printf("metrics written: %s\n", metrics_out.c_str());
    }
    if (!trace_out.empty()) {
      if (obs::TraceRing::Global().WriteChromeTrace(trace_out)) {
        std::printf("trace written  : %s (%zu spans)\n", trace_out.c_str(),
                    obs::TraceRing::Global().Snapshot().size());
      } else {
        std::fprintf(stderr, "cannot write --trace-out file: %s\n", trace_out.c_str());
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
  signal_thread = std::thread([&metrics_out, drain_ms, &server, &signal_thread_stop,
                               &drain_requested, &handled_signals] {
    for (;;) {
      int sig = 0;
      if (sigwait(&handled_signals, &sig) != 0) {
        return;
      }
      if (signal_thread_stop.load(std::memory_order_acquire)) {
        return;  // shutdown poke from Listen's exit path
      }
      if (sig == SIGUSR1) {
        if (!metrics_out.empty() && WriteMetricsFile(metrics_out)) {
          std::fprintf(stderr, "metrics written: %s\n", metrics_out.c_str());
        }
        continue;
      }
      // SIGTERM / SIGINT: graceful drain — stop accepting, answer new
      // requests kDraining, let admitted work finish up to the grace.
      // BeginDrain ends in Stop(), so by the time drain_requested becomes
      // visible the server is fully down and the main thread's own Stop()
      // is a no-op; telemetry is then flushed on the normal exit path.
      std::fprintf(stderr, "signal %d: draining (grace %u ms)\n", sig, drain_ms);
      server.BeginDrain(std::chrono::milliseconds(drain_ms));
      drain_requested.store(true, std::memory_order_release);
    }
  });
  std::printf(
      "listening on 127.0.0.1:%u | %u workers | coalesce window %llu us | max batch %llu | "
      "pipeline %u | overflow %s | EOF or \"quit\" stops\n",
      server.port(), service->num_threads(),
      static_cast<unsigned long long>(args.Num("--coalesce-us")),
      static_cast<unsigned long long>(args.Num("--max-batch")), service->pipeline_depth(),
      args.Str("--overflow").c_str());
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
int Client(const Args& args, std::ofstream& out) {
  const std::string connect = args.Str("--connect");
  std::string host = "127.0.0.1";
  std::string port_text = connect;
  if (size_t colon = connect.rfind(':'); colon != std::string::npos) {
    host = connect.substr(0, colon);
    port_text = connect.substr(colon + 1);
  }
  std::optional<uint64_t> port = ParseUnsigned(port_text, 1, 65535);
  if (!port) {
    std::fprintf(stderr, "bad value for --connect: %s (want [host:]port, port 1..65535)\n",
                 connect.c_str());
    return kExitUsage;
  }
  WalkClient::Options client_options;
  client_options.connect_timeout_ms = static_cast<uint32_t>(args.Num("--request-timeout-ms"));
  client_options.request_timeout_ms = client_options.connect_timeout_ms;
  client_options.max_retries = static_cast<uint32_t>(args.Num("--retries"));
  client_options.backoff.seed = args.Num("--seed");  // reproducible retry delays
  WalkClient client(client_options);
  std::string error;
  if (!client.Connect(host, static_cast<uint16_t>(*port), &error)) {
    std::fprintf(stderr, "cannot connect to %s:%llu: %s\n", host.c_str(),
                 static_cast<unsigned long long>(*port), error.c_str());
    return kExitUsage;
  }
  // --stats: one scrape, print the Prometheus text verbatim, done. Scripts
  // pipe this through grep (scripts/ci smoke, docs/OBSERVABILITY.md).
  if (args.mode == kStats) {
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
  const uint32_t workload_id = static_cast<uint32_t>(args.Num("--workload-id"));
  const uint64_t deadline_us = args.Num("--deadline-us");
  uint64_t requests = 0;
  uint64_t queries = 0;
  uint64_t failed = 0;
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
      WalkClient::Result result = client.Walk(std::move(starts), workload_id, deadline_us);
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
      // Per-request failures (a server error such as an out-of-range start
      // or an overload rejection, a request timeout) keep the session
      // alive but fail its exit code; a dead connection ends it.
      std::fprintf(stderr, "request failed: %s\n", e.what());
      ++failed;
      if (!client.connected()) {
        return kExitUsage;
      }
    }
  }
  client.Close();
  std::printf("received %llu results (%llu walks)\n", static_cast<unsigned long long>(requests),
              static_cast<unsigned long long>(queries));
  return failed == 0 ? 0 : kExitUsage;
}

// Builds the graph and workload, then serves them (--serve, --listen) or
// walks them once, in memory or out of core.
int RunLocal(const Args& args, std::ofstream& out) {
  // Every engine executes through the WalkScheduler; this sets its
  // process-wide worker count (0 keeps the hardware default).
  SetDefaultWorkerThreads(static_cast<unsigned>(args.Num("--threads")));
  const uint64_t seed = args.Num("--seed");
  std::string_view weights = args.Text("--weights");
  WeightDistribution dist = weights == "pareto"   ? WeightDistribution::kPareto
                            : weights == "degree" ? WeightDistribution::kDegreeBased
                            : weights == "none"   ? WeightDistribution::kUnweighted
                                                  : WeightDistribution::kUniform;
  Graph graph;
  if (args.Given("--graph")) {
    const std::string path = args.Str("--graph");
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "cannot open --graph file: %s\n", path.c_str());
      return kExitUsage;
    }
    try {
      graph = ReadEdgeList(in);
    } catch (const std::runtime_error& e) {
      std::fprintf(stderr, "bad --graph file %s: %s\n", path.c_str(), e.what());
      return in.bad() ? kExitUsage : kExitMalformedInput;
    }
    if (graph.num_nodes() == 0) {
      std::fprintf(stderr, "bad --graph file %s: no edges\n", path.c_str());
      return kExitMalformedInput;
    }
    if (!graph.weighted() && dist != WeightDistribution::kUnweighted) {
      AssignWeights(graph, dist, args.Real("--alpha"), seed + 1);
    }
    if (!graph.labeled()) {
      AssignLabels(graph, 5, seed + 2);
    }
  } else {
    graph = LoadDataset(DatasetByName(args.Str("--dataset")), dist, args.Real("--alpha"));
  }
  std::string_view workload_name = args.Text("--workload");
  if ((workload_name == "temporal" || workload_name == "temporal-decay") && !graph.temporal()) {
    AssignTimestamps(graph, 1.0f, seed + 3);
  }
  std::unique_ptr<WalkLogic> workload =
      MakeWorkload(workload_name, static_cast<uint32_t>(args.Num("--length")));
  if (args.mode == kListen) {
    return Listen(args, graph, *workload);
  }
  if (args.mode == kServe) {
    return Serve(args, graph, *workload, out);
  }
  std::unique_ptr<Engine> engine = MakeEngine(args);

  std::vector<NodeId> starts = AllNodesAsStarts(graph);
  const uint64_t queries = args.Num("--queries");
  if (queries != 0 && queries < starts.size()) {
    starts.resize(queries);
  }
  const bool out_of_core = args.mode == kOutOfCore;
  std::printf(
      "graph: %u nodes / %llu edges | workload: %s | engine: %s%s | queries: %zu | threads: %u\n",
      graph.num_nodes(), static_cast<unsigned long long>(graph.num_edges()),
      workload->name().c_str(), engine->name().c_str(), out_of_core ? " (out-of-core)" : "",
      starts.size(), DefaultWorkerThreads());
  WalkResult result;
  if (out_of_core) {
    // Partition to a throwaway block file and walk it under the bounded cache.
    const std::string block_path =
        "/tmp/flexiwalker_cli_" + std::to_string(getpid()) + ".blk";
    const auto cache_blocks = static_cast<uint32_t>(args.Num("--cache-blocks"));
    size_t blocks = PartitionToBlockFile(graph, block_path, args.Num("--block-bytes"));
    BlockStore store = BlockStore::Open(block_path);
    OutOfCoreStats ooc_stats;
    std::printf("out-of-core   : %zu blocks of <= %zu bytes | cache %u blocks (%.2f MiB budget)\n",
                blocks, store.block_bytes(), cache_blocks,
                cache_blocks * static_cast<double>(store.block_bytes()) / (1024.0 * 1024.0));
    try {
      result = RunFlexiWalkerOutOfCore(store, *workload, FlexiOptions(args), cache_blocks, starts,
                                       seed, &ooc_stats);
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
    result = engine->Run(graph, *workload, starts, seed);
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
  if (args.Text("--engine") == "flexiwalker") {
    // The out-of-core tier refuses an unset ratio, so it always has one.
    const FlexiWalkerOptions options = FlexiOptions(args);
    const double ratio =
        out_of_core ? *options.edge_cost_ratio
                    : static_cast<const FlexiWalkerEngine&>(*engine).last_edge_cost_ratio();
    std::printf("selection     : %llu eRJS / %llu eRVS (eRJS share %.3f) | "
                "EdgeCost ratio %.2f (%s)\n",
                static_cast<unsigned long long>(result.selection.chose_rjs),
                static_cast<unsigned long long>(result.selection.chose_rvs),
                result.selection.RjsRatio(), ratio, EdgeCostRatioSource(options));
  }
  if (out.is_open()) {
    WriteWalks(out, result);
  }
  return 0;
}

// Gates the flags, opens --out once before any walk, runs the mode, and
// reports the walk file only when every line of it was written.
int Run(const Args& args) {
  if (int code = CheckArgs(args); code != 0) {
    return code;
  }
  const std::string out_path = args.Str("--out");
  std::ofstream out;
  if (args.Given("--out")) {
    out.open(out_path);
    if (!out.is_open()) {
      std::fprintf(stderr, "cannot write --out file: %s\n", out_path.c_str());
      return kExitUsage;
    }
  }
  int code = (args.mode & kClient) != 0 ? Client(args, out) : RunLocal(args, out);
  if (code == 0 && out.is_open()) {
    if (!out.flush()) {
      std::fprintf(stderr, "cannot write --out file: %s\n", out_path.c_str());
      return kExitUsage;
    }
    std::printf("walks written : %s\n", out_path.c_str());
  }
  return code;
}

}  // namespace
}  // namespace flexi

int main(int argc, char** argv) {
  flexi::Args args;
  if (!flexi::ParseArgs(argc, argv, args)) {
    return flexi::kExitUsage;
  }
  if (args.help) {
    flexi::PrintUsage();
    return 0;
  }
  return flexi::Run(args);
}
