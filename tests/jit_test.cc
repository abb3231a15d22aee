// Compiled step kernels (src/compiler/jit.h, step_emitter.h): emitter golden
// source and determinism, cache keying (source and included headers) and
// disk hits, corrupt-cache recovery, every fallback reason, and the
// compiled-vs-interpreted parity matrix — paths, selection tallies and
// device-model charges must be
// bit-identical across workloads, strategies, thread counts, wavefronts,
// the static-table fast path, and the out-of-core tier.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <vector>

#include "src/compiler/jit.h"
#include "src/compiler/step_emitter.h"
#include "src/graph/block_store.h"
#include "src/graph/generators.h"
#include "src/obs/metrics.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walker/out_of_core.h"
#include "src/walks/autoregressive.h"
#include "src/walks/deepwalk.h"
#include "src/walks/node2vec.h"
#include "src/walks/second_order_pr.h"
#include "src/walks/temporal.h"

namespace flexi {
namespace {

namespace fs = std::filesystem;

// Saves an environment variable on construction and restores it on
// destruction, so a test can point $CXX or $PATH at broken values without
// leaking them into the rest of the suite.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) {
      saved_ = old;
    }
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_.c_str(), saved_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

// Each test compiles into its own directory so ctest shards never share
// (or poison) each other's .so files.
std::string FreshCacheDir(const char* tag) {
  fs::path dir = fs::temp_directory_path() / (std::string("flexi_jit_test_") + tag);
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  return dir.string();
}

uint64_t CounterValue(const std::string& name) {
  return obs::MetricsRegistry::Global().GetCounter(name).Value();
}

uint64_t FallbackCount(const std::string& reason) {
  return CounterValue(obs::WithLabel("jit_fallbacks_total", "reason", reason));
}

Graph TestGraph(NodeId nodes = 60, uint64_t seed = 31) {
  Graph g = GenerateErdosRenyi(nodes, 5.0, seed);
  AssignWeights(g, WeightDistribution::kUniform, 0.0, seed + 1);
  AssignLabels(g, 4, seed + 2);
  AssignTimestamps(g, 10.0f, seed + 3);
  return g;
}

std::vector<NodeId> AllStarts(const Graph& g) {
  std::vector<NodeId> starts(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    starts[v] = v;
  }
  return starts;
}

bool SameCost(const CostCounters& a, const CostCounters& b) {
  return a.coalesced_transactions == b.coalesced_transactions &&
         a.random_transactions == b.random_transactions && a.bytes_read == b.bytes_read &&
         a.bytes_written == b.bytes_written && a.rng_draws == b.rng_draws &&
         a.alu_ops == b.alu_ops && a.warp_collectives == b.warp_collectives;
}

// Isolates each test: fresh metrics, an empty in-memory kernel cache, and a
// re-probed compiler (tests flip $CXX / $PATH).
class JitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::Global().ResetAllForTest();
    jit::KernelCache::Global().ResetForTest();
  }
  void TearDown() override { jit::KernelCache::Global().ResetForTest(); }
};

// ------------------------------------------------------------- emitter --

TEST_F(JitTest, EmitterIsDeterministicAndExportsTheAbi) {
  Node2VecWalk walk(2.0, 0.5, 12);
  jit::StepKernelSpec spec;
  std::string reason;
  std::string first = jit::EmitStepKernelSource(walk.program(), spec, &reason);
  ASSERT_FALSE(first.empty()) << reason;
  std::string second = jit::EmitStepKernelSource(walk.program(), spec, &reason);
  EXPECT_EQ(first, second) << "equal inputs must emit byte-identical source";

  // The golden structural pieces the cache and loader depend on.
  EXPECT_NE(first.find("extern \"C\""), std::string::npos);
  EXPECT_NE(first.find(jit::kJitStepSymbol), std::string::npos);
  EXPECT_NE(first.find(jit::kJitAbiVersionSymbol), std::string::npos);
  EXPECT_NE(first.find("src/sampling/step_inline.h"), std::string::npos);

  // Different program or spec => different source (the cache key is the
  // source hash, so this is what keeps distinct kernels apart on disk).
  Node2VecWalk other(4.0, 0.5, 12);
  EXPECT_NE(jit::EmitStepKernelSource(other.program(), spec, &reason), first);
  jit::StepKernelSpec rvs_only;
  rvs_only.strategy = SelectionStrategy::kAlwaysRvs;
  EXPECT_NE(jit::EmitStepKernelSource(walk.program(), rvs_only, &reason), first);
}

TEST_F(JitTest, EmitterCoversTheWorkloadFamilies) {
  jit::StepKernelSpec spec;
  std::string reason;
  DeepWalk deepwalk(12);
  TemporalWalk temporal(12);
  AutoregressiveWalk autoreg(0.5, 12);
  TemporalDecayWalk decay(0.1, 12);
  EXPECT_FALSE(jit::EmitStepKernelSource(deepwalk.program(), spec, &reason).empty()) << reason;
  EXPECT_FALSE(jit::EmitStepKernelSource(temporal.program(), spec, &reason).empty()) << reason;
  EXPECT_FALSE(jit::EmitStepKernelSource(autoreg.program(), spec, &reason).empty()) << reason;
  EXPECT_FALSE(jit::EmitStepKernelSource(decay.program(), spec, &reason).empty()) << reason;
}

TEST_F(JitTest, EmitterRejectsProgramsOutsideItsVocabulary) {
  // Second-order PageRank's weights read degree atoms the emitter does not
  // fold; the reject reason feeds the unsupported_program fallback.
  SecondOrderPageRankWalk walk(0.5, 12);
  jit::StepKernelSpec spec;
  std::string reason;
  EXPECT_TRUE(jit::EmitStepKernelSource(walk.program(), spec, &reason).empty());
  EXPECT_FALSE(reason.empty());
}

// --------------------------------------------------------------- cache --

TEST_F(JitTest, CompileOnceThenInMemoryAndDiskHits) {
  std::string dir = FreshCacheDir("diskhit");
  Node2VecWalk walk(2.0, 0.5, 12);
  std::string reason;
  std::string source = jit::EmitStepKernelSource(walk.program(), {}, &reason);
  ASSERT_FALSE(source.empty());

  auto kernel = jit::KernelCache::Global().GetOrCompile(source, dir, /*async=*/false);
  ASSERT_TRUE(kernel->WaitReady()) << kernel->fallback_reason() << ": " << kernel->detail();
  EXPECT_EQ(CounterValue("jit_compiles_total"), 1u);
  EXPECT_EQ(CounterValue("jit_cache_hits_total"), 0u);

  // Same source again: the in-memory map returns the same kernel.
  auto again = jit::KernelCache::Global().GetOrCompile(source, dir, /*async=*/false);
  EXPECT_EQ(again.get(), kernel.get());
  EXPECT_EQ(CounterValue("jit_cache_hits_total"), 1u);

  // Forget the in-memory map (a fresh process): the published .so satisfies
  // the request with no second compile.
  jit::KernelCache::Global().ResetForTest();
  kernel.reset();
  again.reset();
  auto reloaded = jit::KernelCache::Global().GetOrCompile(source, dir, /*async=*/false);
  ASSERT_TRUE(reloaded->WaitReady()) << reloaded->fallback_reason();
  EXPECT_EQ(CounterValue("jit_compiles_total"), 1u);
  EXPECT_EQ(CounterValue("jit_cache_hits_total"), 2u);

  // The compile-latency histogram saw exactly the one compile.
  EXPECT_EQ(obs::MetricsRegistry::Global().GetHistogram("jit_compile_ms").TakeSnapshot().count,
            1u);
}

TEST_F(JitTest, ResetForTestJoinsAnInFlightCompile) {
  // A background compile holds its own reference to its kernel, so the
  // reset must join it: once ResetForTest returns the .so is published, and
  // the compile records nothing into the next test's registry.
  std::string dir = FreshCacheDir("reset_joins");
  Node2VecWalk walk(2.0, 0.5, 12);
  std::string reason;
  std::string source = jit::EmitStepKernelSource(walk.program(), {}, &reason);
  ASSERT_FALSE(source.empty());

  auto kernel = jit::KernelCache::Global().GetOrCompile(source, dir, /*async=*/true);
  jit::KernelCache::Global().ResetForTest();
  EXPECT_TRUE(kernel->done());
  bool published = false;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    published = published || entry.path().extension() == ".so";
  }
  EXPECT_TRUE(published) << "no .so in " << dir << " when the reset returned";

  obs::MetricsRegistry::Global().ResetAllForTest();
  ASSERT_TRUE(kernel->WaitReady()) << kernel->fallback_reason() << ": " << kernel->detail();
  EXPECT_EQ(obs::MetricsRegistry::Global().GetHistogram("jit_compile_ms").TakeSnapshot().count,
            0u);
  EXPECT_EQ(CounterValue("jit_compiles_total"), 0u);
}

TEST_F(JitTest, DifferentSourcesGetDifferentCacheEntries) {
  std::string dir = FreshCacheDir("keys");
  std::string reason;
  Node2VecWalk a(2.0, 0.5, 12);
  Node2VecWalk b(4.0, 0.5, 12);
  std::string src_a = jit::EmitStepKernelSource(a.program(), {}, &reason);
  std::string src_b = jit::EmitStepKernelSource(b.program(), {}, &reason);
  ASSERT_NE(src_a, src_b);
  auto ka = jit::KernelCache::Global().GetOrCompile(src_a, dir, /*async=*/false);
  auto kb = jit::KernelCache::Global().GetOrCompile(src_b, dir, /*async=*/false);
  EXPECT_NE(ka.get(), kb.get());
  ASSERT_TRUE(ka->WaitReady()) << ka->fallback_reason();
  ASSERT_TRUE(kb->WaitReady()) << kb->fallback_reason();
  EXPECT_NE(ka->TryGet(), kb->TryGet());
  EXPECT_EQ(CounterValue("jit_compiles_total"), 2u);

  size_t so_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".so") {
      ++so_files;
    }
  }
  EXPECT_EQ(so_files, 2u);
}

TEST_F(JitTest, HeaderEditInvalidatesTheDiskCache) {
  // The emitted source includes repo headers, so their bytes are part of the
  // cache key: after an edit to one, the same source must compile afresh
  // instead of reloading the .so built against the old header.
  fs::path repo_src = fs::path(__FILE__).parent_path().parent_path() / "src";
  ASSERT_TRUE(fs::exists(repo_src / "sampling" / "step_inline.h")) << repo_src;
  fs::path include_root = fs::temp_directory_path() / "flexi_jit_test_include_root";
  std::error_code ec;
  fs::remove_all(include_root, ec);
  for (const auto& entry : fs::recursive_directory_iterator(repo_src)) {
    if (entry.path().extension() == ".h") {
      fs::path copy = include_root / "src" / entry.path().lexically_relative(repo_src);
      fs::create_directories(copy.parent_path());
      fs::copy_file(entry.path(), copy);
    }
  }
  ScopedEnv inc("FLEXI_JIT_INCLUDE_DIR", include_root.c_str());
  std::string dir = FreshCacheDir("header_key");
  Node2VecWalk walk(2.0, 0.5, 12);
  std::string reason;
  std::string source = jit::EmitStepKernelSource(walk.program(), {}, &reason);
  auto first = jit::KernelCache::Global().GetOrCompile(source, dir, /*async=*/false);
  ASSERT_TRUE(first->WaitReady()) << first->fallback_reason() << ": " << first->detail();
  EXPECT_EQ(CounterValue("jit_compiles_total"), 1u);

  first.reset();
  jit::KernelCache::Global().ResetForTest();
  {
    std::ofstream edit(include_root / "src" / "sampling" / "step_inline.h", std::ios::app);
    edit << "// edited after the first compile\n";
  }
  auto second = jit::KernelCache::Global().GetOrCompile(source, dir, /*async=*/false);
  ASSERT_TRUE(second->WaitReady()) << second->fallback_reason() << ": " << second->detail();
  EXPECT_EQ(CounterValue("jit_compiles_total"), 2u);
  EXPECT_EQ(CounterValue("jit_cache_hits_total"), 0u);
  second.reset();
  jit::KernelCache::Global().ResetForTest();
  fs::remove_all(include_root, ec);
}

TEST_F(JitTest, CorruptCachedObjectIsDroppedAndRecompiled) {
  std::string dir = FreshCacheDir("corrupt");
  Node2VecWalk walk(2.0, 0.5, 12);
  std::string reason;
  std::string source = jit::EmitStepKernelSource(walk.program(), {}, &reason);
  auto kernel = jit::KernelCache::Global().GetOrCompile(source, dir, /*async=*/false);
  ASSERT_TRUE(kernel->WaitReady()) << kernel->fallback_reason();

  // Drop the live mapping first (overwriting a dlopen'd object corrupts the
  // mapped pages), then truncate the published .so to garbage, as a crashed
  // writer or a bad disk would leave it.
  jit::KernelCache::Global().ResetForTest();
  kernel.reset();
  fs::path so_path;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".so") {
      so_path = entry.path();
    }
  }
  ASSERT_FALSE(so_path.empty());
  { std::ofstream corrupt(so_path, std::ios::trunc); corrupt << "not an elf"; }
  auto recompiled = jit::KernelCache::Global().GetOrCompile(source, dir, /*async=*/false);
  ASSERT_TRUE(recompiled->WaitReady())
      << recompiled->fallback_reason() << ": " << recompiled->detail();
  EXPECT_NE(recompiled->TryGet(), nullptr);
  // Two real compiles (the corrupt entry never counts as a hit or a
  // fallback — recovery is silent).
  EXPECT_EQ(CounterValue("jit_compiles_total"), 2u);
  EXPECT_EQ(FallbackCount("dlopen_failed"), 0u);
}

// ----------------------------------------------------------- fallbacks --

TEST_F(JitTest, NoCompilerEnvironmentFallsBack) {
  ScopedEnv cxx("CXX", "/nonexistent/cxx");
  ScopedEnv path("PATH", "/nonexistent-bin");
  jit::KernelCache::Global().ResetForTest();  // re-probe under the broken env

  Node2VecWalk walk(2.0, 0.5, 12);
  std::string reason;
  std::string source = jit::EmitStepKernelSource(walk.program(), {}, &reason);
  auto kernel =
      jit::KernelCache::Global().GetOrCompile(source, FreshCacheDir("nocc"), /*async=*/false);
  EXPECT_FALSE(kernel->WaitReady());
  EXPECT_TRUE(kernel->done());
  EXPECT_EQ(kernel->TryGet(), nullptr);
  EXPECT_EQ(kernel->fallback_reason(), "no_compiler");
  EXPECT_EQ(FallbackCount("no_compiler"), 1u);
  EXPECT_EQ(CounterValue("jit_compiles_total"), 0u);
}

TEST_F(JitTest, MissingHeadersFallBack) {
  ScopedEnv inc("FLEXI_JIT_INCLUDE_DIR", "/nonexistent/include-root");
  Node2VecWalk walk(2.0, 0.5, 12);
  std::string reason;
  std::string source = jit::EmitStepKernelSource(walk.program(), {}, &reason);
  auto kernel =
      jit::KernelCache::Global().GetOrCompile(source, FreshCacheDir("nohdr"), /*async=*/false);
  EXPECT_FALSE(kernel->WaitReady());
  EXPECT_EQ(kernel->fallback_reason(), "no_headers");
  EXPECT_EQ(FallbackCount("no_headers"), 1u);
}

// Writes an executable fake-compiler script that answers --version and
// otherwise runs `body` (with $@ available). Returns the script path.
std::string WriteFakeCompiler(const std::string& dir, const std::string& body) {
  fs::path script = fs::path(dir) / "fakecxx.sh";
  {
    std::ofstream out(script, std::ios::trunc);
    out << "#!/bin/sh\n"
        << "if [ \"$1\" = \"--version\" ]; then echo fake-cxx 1.0; exit 0; fi\n"
        << "out=\"\"\nprev=\"\"\n"
        << "for a in \"$@\"; do\n"
        << "  if [ \"$prev\" = \"-o\" ]; then out=\"$a\"; fi\n"
        << "  prev=\"$a\"\n"
        << "done\n"
        << body << "\n";
  }
  fs::permissions(script, fs::perms::owner_all | fs::perms::group_read | fs::perms::others_read);
  return script.string();
}

TEST_F(JitTest, CompilerErrorFallsBack) {
  std::string dir = FreshCacheDir("ccfail");
  std::string script = WriteFakeCompiler(dir, "echo 'fake: catastrophic error' >&2; exit 1");
  ScopedEnv cxx("CXX", script.c_str());
  jit::KernelCache::Global().ResetForTest();

  Node2VecWalk walk(2.0, 0.5, 12);
  std::string reason;
  std::string source = jit::EmitStepKernelSource(walk.program(), {}, &reason);
  auto kernel = jit::KernelCache::Global().GetOrCompile(source, dir, /*async=*/false);
  EXPECT_FALSE(kernel->WaitReady());
  EXPECT_EQ(kernel->fallback_reason(), "compile_failed");
  EXPECT_NE(kernel->detail().find("catastrophic"), std::string::npos) << kernel->detail();
  EXPECT_EQ(FallbackCount("compile_failed"), 1u);
  EXPECT_EQ(CounterValue("jit_compiles_total"), 1u);  // it did attempt one
}

TEST_F(JitTest, UnloadableObjectFallsBack) {
  std::string dir = FreshCacheDir("badso");
  std::string script = WriteFakeCompiler(dir, "echo 'this is not an object file' > \"$out\"");
  ScopedEnv cxx("CXX", script.c_str());
  jit::KernelCache::Global().ResetForTest();

  Node2VecWalk walk(2.0, 0.5, 12);
  std::string reason;
  std::string source = jit::EmitStepKernelSource(walk.program(), {}, &reason);
  auto kernel = jit::KernelCache::Global().GetOrCompile(source, dir, /*async=*/false);
  EXPECT_FALSE(kernel->WaitReady());
  EXPECT_EQ(kernel->fallback_reason(), "dlopen_failed");
  EXPECT_EQ(FallbackCount("dlopen_failed"), 1u);
}

TEST_F(JitTest, ObjectWithoutTheAbiSymbolsFallsBack) {
  std::string dir = FreshCacheDir("nosym");
  // The fake compiler builds a real shared object — just not ours: an empty
  // TU compiled by the actual system compiler, so dlopen succeeds and only
  // symbol resolution fails.
  std::string script = WriteFakeCompiler(
      dir, "c++ -shared -fPIC -x c++ /dev/null -o \"$out\" 2>/dev/null || "
           "g++ -shared -fPIC -x c++ /dev/null -o \"$out\"");
  ScopedEnv cxx("CXX", script.c_str());
  jit::KernelCache::Global().ResetForTest();

  Node2VecWalk walk(2.0, 0.5, 12);
  std::string reason;
  std::string source = jit::EmitStepKernelSource(walk.program(), {}, &reason);
  auto kernel = jit::KernelCache::Global().GetOrCompile(source, dir, /*async=*/false);
  EXPECT_FALSE(kernel->WaitReady());
  EXPECT_EQ(kernel->fallback_reason(), "symbol_missing");
  EXPECT_EQ(FallbackCount("symbol_missing"), 1u);
}

TEST_F(JitTest, EngineWithJitOnServesInterpretedWhenNothingCompiles) {
  ScopedEnv cxx("CXX", "/nonexistent/cxx");
  ScopedEnv path("PATH", "/nonexistent-bin");
  jit::KernelCache::Global().ResetForTest();

  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 12);
  auto starts = AllStarts(graph);

  FlexiWalkerOptions off;
  off.edge_cost_ratio = 4.0;
  FlexiWalkerOptions on = off;
  on.jit = jit::JitMode::kOn;
  on.jit_cache_dir = FreshCacheDir("nocc_engine");

  WalkResult interpreted = FlexiWalkerEngine(off).Run(graph, walk, starts, 7);
  WalkResult degraded = FlexiWalkerEngine(on).Run(graph, walk, starts, 7);
  EXPECT_EQ(interpreted.paths, degraded.paths);
  EXPECT_GE(FallbackCount("no_compiler"), 1u);
}

// ---------------------------------------------------------------- parity --

// Runs `logic` through the engine twice — interpreted and compiled
// (jit = kOn blocks until the .so is live) — and requires bit-identical
// paths, selection tallies, and device-model charges.
void ExpectEngineParity(const Graph& graph, const WalkLogic& logic, FlexiWalkerOptions options,
                        const char* cache_tag, uint64_t seed = 7) {
  auto starts = AllStarts(graph);
  options.edge_cost_ratio = options.edge_cost_ratio.value_or(4.0);

  FlexiWalkerOptions off = options;
  off.jit = jit::JitMode::kOff;
  WalkResult interpreted = FlexiWalkerEngine(off).Run(graph, logic, starts, seed);

  uint64_t fallbacks_before = CounterValue("jit_fallbacks_total") +
                              FallbackCount("unsupported_program") +
                              FallbackCount("no_compiler") + FallbackCount("no_headers") +
                              FallbackCount("compile_failed") + FallbackCount("dlopen_failed") +
                              FallbackCount("symbol_missing");
  FlexiWalkerOptions on = options;
  on.jit = jit::JitMode::kOn;
  on.jit_cache_dir = FreshCacheDir(cache_tag);
  WalkResult compiled = FlexiWalkerEngine(on).Run(graph, logic, starts, seed);
  uint64_t fallbacks_after = CounterValue("jit_fallbacks_total") +
                             FallbackCount("unsupported_program") +
                             FallbackCount("no_compiler") + FallbackCount("no_headers") +
                             FallbackCount("compile_failed") + FallbackCount("dlopen_failed") +
                             FallbackCount("symbol_missing");
  ASSERT_EQ(fallbacks_before, fallbacks_after)
      << "the compiled run must actually run compiled (no silent fallback)";

  EXPECT_EQ(interpreted.paths, compiled.paths);
  EXPECT_EQ(interpreted.path_stride, compiled.path_stride);
  EXPECT_EQ(interpreted.selection.chose_rjs, compiled.selection.chose_rjs);
  EXPECT_EQ(interpreted.selection.chose_rvs, compiled.selection.chose_rvs);
  EXPECT_TRUE(SameCost(interpreted.cost, compiled.cost))
      << "device-model charges diverged between interpreted and compiled";
}

TEST_F(JitTest, ParityAcrossWorkloads) {
  Graph graph = TestGraph();
  Node2VecWalk node2vec(2.0, 0.5, 12);
  DeepWalk deepwalk(12);
  TemporalWalk temporal(12);
  AutoregressiveWalk autoreg(0.5, 12);
  TemporalDecayWalk decay(0.1, 12);
  ExpectEngineParity(graph, node2vec, {}, "w_n2v");
  ExpectEngineParity(graph, deepwalk, {}, "w_dw");
  ExpectEngineParity(graph, temporal, {}, "w_tmp");
  ExpectEngineParity(graph, autoreg, {}, "w_ar");
  ExpectEngineParity(graph, decay, {}, "w_dec");
}

TEST_F(JitTest, ParityAcrossStrategies) {
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 12);
  for (SelectionStrategy strategy :
       {SelectionStrategy::kCostModel, SelectionStrategy::kRandom,
        SelectionStrategy::kDegreeThreshold, SelectionStrategy::kAlwaysRvs,
        SelectionStrategy::kAlwaysRjs}) {
    FlexiWalkerOptions options;
    options.strategy = strategy;
    std::string tag = "strat_" + std::to_string(static_cast<int>(strategy));
    ExpectEngineParity(graph, walk, options, tag.c_str());
  }
}

TEST_F(JitTest, ParityAcrossThreadsAndWavefronts) {
  Graph graph = TestGraph();
  AutoregressiveWalk walk(0.5, 12);
  for (unsigned threads : {1u, 2u, 8u}) {
    for (uint32_t wavefront : {1u, 8u}) {
      FlexiWalkerOptions options;
      options.host_threads = threads;
      options.wavefront = wavefront;
      std::string tag = "tw_" + std::to_string(threads) + "_" + std::to_string(wavefront);
      ExpectEngineParity(graph, walk, options, tag.c_str());
    }
  }
}

TEST_F(JitTest, ParityOnTheStaticTableFastPath) {
  Graph graph = TestGraph();
  DeepWalk walk(12);
  FlexiWalkerOptions options;
  options.cache_static_tables = true;
  ExpectEngineParity(graph, walk, options, "static_tables");
}

TEST_F(JitTest, ParityOutOfCore) {
  Graph graph = TestGraph(400, 51);
  const std::string block_path = "/tmp/flexi_jit_test_ooc.blk";
  size_t blocks = PartitionToBlockFile(graph, block_path, kMinBlockBytes);
  ASSERT_GT(blocks, 1u);
  BlockStore store = BlockStore::Open(block_path, /*map=*/false);
  auto starts = AllStarts(graph);

  // Temporal-decay is first-order (analyzer), so it runs out-of-core; the
  // ratio is pinned per the out-of-core contract.
  TemporalDecayWalk walk(0.1, 12);
  FlexiWalkerOptions options;
  options.edge_cost_ratio = 4.0;

  FlexiWalkerOptions off = options;
  off.jit = jit::JitMode::kOff;
  WalkResult interpreted = RunFlexiWalkerOutOfCore(store, walk, off, 4, starts, 7);

  FlexiWalkerOptions on = options;
  on.jit = jit::JitMode::kOn;
  on.jit_cache_dir = FreshCacheDir("ooc");
  WalkResult compiled = RunFlexiWalkerOutOfCore(store, walk, on, 4, starts, 7);

  EXPECT_EQ(interpreted.paths, compiled.paths);
  EXPECT_EQ(interpreted.selection.chose_rjs, compiled.selection.chose_rjs);
  EXPECT_EQ(interpreted.selection.chose_rvs, compiled.selection.chose_rvs);
  EXPECT_TRUE(SameCost(interpreted.cost, compiled.cost));

  // And the out-of-core tier matches the in-memory engine — the compiled
  // kernel preserves the cross-tier determinism contract too.
  WalkResult in_memory = FlexiWalkerEngine(on).Run(graph, walk, starts, 7);
  EXPECT_EQ(in_memory.paths, compiled.paths);
  std::remove(block_path.c_str());
}

TEST_F(JitTest, AsyncCompileSwapsInWithoutChangingPaths) {
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 12);
  auto starts = AllStarts(graph);
  FlexiWalkerOptions options;
  options.edge_cost_ratio = 4.0;

  FlexiWalkerOptions off = options;
  off.jit = jit::JitMode::kOff;
  WalkResult interpreted = FlexiWalkerEngine(off).Run(graph, walk, starts, 7);

  // kAuto: the first Run may race the background compile (interpreted or
  // compiled — both legal); by the second Run the kernel is cached. Paths
  // must be identical regardless of which side of the race each Run took.
  FlexiWalkerOptions on = options;
  on.jit = jit::JitMode::kAuto;
  on.jit_cache_dir = FreshCacheDir("async");
  FlexiWalkerEngine engine(on);
  WalkResult first = engine.Run(graph, walk, starts, 7);
  WalkResult second = engine.Run(graph, walk, starts, 7);
  EXPECT_EQ(interpreted.paths, first.paths);
  EXPECT_EQ(interpreted.paths, second.paths);
}

// ------------------------------------------------------------- plumbing --

TEST_F(JitTest, ParseJitModeSpellsOnOffAuto) {
  jit::JitMode mode = jit::JitMode::kOff;
  EXPECT_TRUE(jit::ParseJitMode("auto", &mode));
  EXPECT_EQ(mode, jit::JitMode::kAuto);
  EXPECT_TRUE(jit::ParseJitMode("on", &mode));
  EXPECT_EQ(mode, jit::JitMode::kOn);
  EXPECT_TRUE(jit::ParseJitMode("off", &mode));
  EXPECT_EQ(mode, jit::JitMode::kOff);
  EXPECT_FALSE(jit::ParseJitMode("maybe", &mode));
  EXPECT_FALSE(jit::ParseJitMode("", &mode));
}

TEST_F(JitTest, MetricsRenderInPrometheusText) {
  jit::CountFallback("unsupported_program");
  obs::MetricsRegistry::Global().GetCounter("jit_compiles_total").Add(2);
  std::string text = obs::MetricsRegistry::Global().RenderPrometheusText();
  EXPECT_NE(text.find("jit_fallbacks_total{reason=\"unsupported_program\"} 1"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("jit_compiles_total 2"), std::string::npos) << text;
}

}  // namespace
}  // namespace flexi
