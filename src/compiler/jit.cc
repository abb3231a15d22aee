#include "src/compiler/jit.h"

#include <dlfcn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <vector>

#include "src/obs/metrics.h"

namespace flexi::jit {
namespace {

namespace fs = std::filesystem;

// Flags the emitted TU is compiled with. Folded into the cache key so a
// flag change invalidates every cached object. -ffp-contract=off keeps the
// emitted arithmetic from fusing multiplies the host build did not fuse —
// bit-identical paths depend on bit-identical rounding.
constexpr const char* kCompileFlags = "-std=c++20 -O3 -fPIC -shared -ffp-contract=off";

obs::Counter& CompilesCounter() {
  return obs::MetricsRegistry::Global().GetCounter("jit_compiles_total");
}

obs::Counter& CacheHitsCounter() {
  return obs::MetricsRegistry::Global().GetCounter("jit_cache_hits_total");
}

obs::Histogram& CompileMsHistogram() {
  return obs::MetricsRegistry::Global().GetHistogram("jit_compile_ms");
}

uint64_t Fnv1a(std::string_view s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

constexpr uint64_t kFnvSeed = 1469598103934665603ull;

// Runs `command` through the shell, capturing combined stdout+stderr.
// Returns the exit status (-1 when the shell could not be spawned).
int RunCommand(const std::string& command, std::string* output) {
  std::string wrapped = command + " 2>&1";
  FILE* pipe = popen(wrapped.c_str(), "r");
  if (pipe == nullptr) {
    return -1;
  }
  char buf[4096];
  while (output != nullptr && fgets(buf, sizeof(buf), pipe) != nullptr) {
    *output += buf;
  }
  if (output == nullptr) {
    while (fgets(buf, sizeof(buf), pipe) != nullptr) {
    }
  }
  int status = pclose(pipe);
  if (status < 0) {
    return -1;
  }
#if defined(WIFEXITED)
  if (WIFEXITED(status)) {
    return WEXITSTATUS(status);
  }
  return -1;
#else
  return status;
#endif
}

std::string FirstLine(const std::string& text) {
  size_t end = text.find('\n');
  return end == std::string::npos ? text : text.substr(0, end);
}

std::string ShellQuote(const std::string& path) {
  std::string quoted = "'";
  for (char c : path) {
    if (c == '\'') {
      quoted += "'\\''";
    } else {
      quoted += c;
    }
  }
  quoted += "'";
  return quoted;
}

struct CompilerInfo {
  std::string command;  // how to invoke it (may contain arguments)
  std::string version;  // first line of `--version`, for the cache key
};

// Discovery is memoized (compiler probing shells out); ResetForTest clears
// the memo so tests can flip $CXX / $PATH between cases.
std::mutex g_discovery_mutex;
std::optional<std::optional<CompilerInfo>> g_discovered;

std::optional<CompilerInfo> DiscoverCompilerUncached() {
  std::vector<std::string> candidates;
  const char* env_cxx = std::getenv("CXX");
  if (env_cxx != nullptr && env_cxx[0] != '\0') {
    candidates.push_back(env_cxx);
  }
  candidates.insert(candidates.end(), {"c++", "g++", "clang++"});
  for (const std::string& candidate : candidates) {
    std::string output;
    if (RunCommand(candidate + " --version", &output) == 0) {
      return CompilerInfo{candidate, FirstLine(output)};
    }
  }
  return std::nullopt;
}

std::optional<CompilerInfo> DiscoverCompiler() {
  std::lock_guard<std::mutex> lock(g_discovery_mutex);
  if (!g_discovered.has_value()) {
    g_discovered = DiscoverCompilerUncached();
  }
  return *g_discovered;
}

void ResetDiscoveryForTest() {
  std::lock_guard<std::mutex> lock(g_discovery_mutex);
  g_discovered.reset();
}

// Repo root the emitted TU's includes resolve against. Baked in at build
// time; the FLEXI_JIT_INCLUDE_DIR environment variable overrides (tests use
// it to simulate a headerless install).
std::string IncludeDir() {
  const char* env = std::getenv("FLEXI_JIT_INCLUDE_DIR");
  if (env != nullptr && env[0] != '\0') {
    return env;
  }
#ifdef FLEXI_JIT_INCLUDE_DIR
  return FLEXI_JIT_INCLUDE_DIR;
#else
  return {};
#endif
}

bool IncludeDirValid(const std::string& dir) {
  if (dir.empty()) {
    return false;
  }
  std::error_code ec;
  return fs::exists(fs::path(dir) / "src" / "sampling" / "step_inline.h", ec);
}

std::string HashHex(uint64_t hash) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(hash));
  return buf;
}

// Digest of every header under <include_dir>/src — relative path and bytes,
// sorted by path. The emitted TU includes step_inline.h, jit_abi.h and
// warp.h, and through them WalkContext, QueryState, KernelRng and Philox;
// folding the headers into the cache key means an edit to any of them can
// never reload a .so built against the old code. Walked once per process
// per include dir; ResetForTest forgets the memo.
std::mutex g_header_mutex;
std::unordered_map<std::string, uint64_t> g_header_digests;

uint64_t HeaderDigest(const std::string& include_dir) {
  std::lock_guard<std::mutex> lock(g_header_mutex);
  auto it = g_header_digests.find(include_dir);
  if (it != g_header_digests.end()) {
    return it->second;
  }
  fs::path root = fs::path(include_dir) / "src";
  std::vector<fs::path> headers;
  std::error_code ec;
  if (!include_dir.empty()) {
    for (fs::recursive_directory_iterator entry(root, ec), end; !ec && entry != end;
         entry.increment(ec)) {
      if (entry->path().extension() == ".h" && entry->is_regular_file(ec)) {
        headers.push_back(entry->path());
      }
    }
  }
  std::sort(headers.begin(), headers.end());
  uint64_t digest = kFnvSeed;
  for (const fs::path& header : headers) {
    std::ifstream in(header, std::ios::binary);
    std::ostringstream bytes;
    bytes << in.rdbuf();
    digest = Fnv1a(header.lexically_relative(root).generic_string(), digest);
    digest = Fnv1a(bytes.str(), digest);
  }
  g_header_digests.emplace(include_dir, digest);
  return digest;
}

void ResetHeaderDigestsForTest() {
  std::lock_guard<std::mutex> lock(g_header_mutex);
  g_header_digests.clear();
}

std::string UniqueSuffix() {
  static std::atomic<uint64_t> counter{0};
  std::ostringstream out;
  out << ".tmp." << ::getpid() << "." << counter.fetch_add(1);
  return out.str();
}

// dlopen + ABI check + symbol resolution. On success *handle_out /
// *fn_out are set; on failure *reason_out holds the stable metric label and
// *detail_out the loader message.
bool TryLoad(const std::string& so_path, void** handle_out, JitStepFn* fn_out,
             std::string* reason_out, std::string* detail_out) {
  void* handle = dlopen(so_path.c_str(), RTLD_NOW | RTLD_LOCAL);
  if (handle == nullptr) {
    const char* err = dlerror();
    *reason_out = "dlopen_failed";
    *detail_out = err != nullptr ? err : "dlopen failed";
    return false;
  }
  auto abi_fn = reinterpret_cast<JitAbiVersionFn>(dlsym(handle, kJitAbiVersionSymbol));
  auto step_fn = reinterpret_cast<JitStepFn>(dlsym(handle, kJitStepSymbol));
  if (abi_fn == nullptr || step_fn == nullptr) {
    dlclose(handle);
    *reason_out = "symbol_missing";
    *detail_out = "missing jit entry points in " + so_path;
    return false;
  }
  if (abi_fn() != kJitAbiVersion) {
    dlclose(handle);
    *reason_out = "symbol_missing";
    *detail_out = "jit ABI version mismatch in " + so_path;
    return false;
  }
  *handle_out = handle;
  *fn_out = step_fn;
  return true;
}

// Writes `source` to `<so_path minus .so>.cc` (atomically, kept for
// inspection), invokes the compiler, atomically publishes the .so, then
// loads it. Runs on the caller's thread or a background one; concludes the
// kernel either way and records all compile metrics.
void CompileInto(const std::shared_ptr<JitKernel>& kernel, const CompilerInfo& compiler,
                 const std::string& include_dir, const std::string& source,
                 const std::string& so_path) {
  fs::path so(so_path);
  fs::path src = so;
  src.replace_extension(".cc");
  std::string suffix = UniqueSuffix();
  fs::path src_tmp = src.string() + suffix;
  fs::path so_tmp = so.string() + suffix;

  std::error_code ec;
  fs::create_directories(so.parent_path(), ec);
  {
    std::ofstream out(src_tmp, std::ios::trunc);
    out << source;
    if (!out.good()) {
      kernel->Fail("compile_failed", "cannot write " + src_tmp.string());
      return;
    }
  }
  fs::rename(src_tmp, src, ec);
  if (ec) {
    fs::remove(src_tmp, ec);
    kernel->Fail("compile_failed", "cannot publish " + src.string());
    return;
  }

  std::string command = compiler.command + " " + kCompileFlags + " -I " +
                        ShellQuote(include_dir) + " -o " + ShellQuote(so_tmp.string()) + " " +
                        ShellQuote(src.string());
  CompilesCounter().Add(1);
  std::string output;
  auto start = std::chrono::steady_clock::now();
  int status = RunCommand(command, &output);
  auto elapsed = std::chrono::steady_clock::now() - start;
  CompileMsHistogram().Record(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()));
  if (status != 0) {
    fs::remove(so_tmp, ec);
    kernel->Fail("compile_failed", FirstLine(output));
    return;
  }
  fs::rename(so_tmp, so, ec);
  if (ec) {
    fs::remove(so_tmp, ec);
    kernel->Fail("compile_failed", "cannot publish " + so.string());
    return;
  }

  void* handle = nullptr;
  JitStepFn fn = nullptr;
  std::string reason;
  std::string detail;
  if (!TryLoad(so.string(), &handle, &fn, &reason, &detail)) {
    kernel->Fail(reason, detail);
    return;
  }
  kernel->Succeed(handle, fn);
}

}  // namespace

JitKernel::~JitKernel() {
  if (worker_.joinable()) {
    if (worker_.get_id() == std::this_thread::get_id()) {
      worker_.detach();  // the worker itself dropped the last reference
    } else {
      worker_.join();
    }
  }
  if (handle_ != nullptr) {
    dlclose(handle_);
  }
}

JitStepFn JitKernel::TryGet() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return fn_;
}

bool JitKernel::WaitReady(int timeout_ms) const {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms), [this] { return done_; });
  return fn_ != nullptr;
}

bool JitKernel::done() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return done_;
}

std::string JitKernel::fallback_reason() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reason_;
}

std::string JitKernel::detail() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return detail_;
}

void JitKernel::Succeed(void* handle, JitStepFn fn) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    handle_ = handle;
    fn_ = fn;
    done_ = true;
  }
  cv_.notify_all();
}

void JitKernel::Fail(const std::string& reason, const std::string& detail) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    reason_ = reason;
    detail_ = detail;
    done_ = true;
  }
  cv_.notify_all();
  CountFallback(reason);
}

KernelCache& KernelCache::Global() {
  static KernelCache* cache = new KernelCache();  // leaked: outlives exit-time races
  return *cache;
}

std::shared_ptr<JitKernel> KernelCache::GetOrCompile(const std::string& source,
                                                     const std::string& cache_dir, bool async) {
  std::string dir = cache_dir.empty() ? DefaultCacheDir() : cache_dir;
  std::string include_dir = IncludeDir();
  std::optional<CompilerInfo> compiler = DiscoverCompiler();

  uint64_t hash = Fnv1a(source, kFnvSeed);
  hash = Fnv1a(kCompileFlags, hash);
  hash = Fnv1a(include_dir, hash);
  hash = Fnv1a(HashHex(HeaderDigest(include_dir)), hash);
  hash = Fnv1a(compiler.has_value() ? compiler->version : "<none>", hash);
  char abi[16];
  std::snprintf(abi, sizeof(abi), "abi%u", kJitAbiVersion);
  hash = Fnv1a(abi, hash);
  // The directory participates too: two caches never share in-memory slots.
  uint64_t key = Fnv1a(dir, hash);

  std::shared_ptr<JitKernel> kernel;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = kernels_.find(key);
    if (it != kernels_.end()) {
      CacheHitsCounter().Add(1);
      return it->second;
    }
    kernel = std::make_shared<JitKernel>();
    kernels_.emplace(key, kernel);
  }

  if (!compiler.has_value()) {
    kernel->Fail("no_compiler", "no working C++ compiler ($CXX, c++, g++, clang++)");
    return kernel;
  }
  if (!IncludeDirValid(include_dir)) {
    kernel->Fail("no_headers", "include root not usable: " +
                                   (include_dir.empty() ? "<unset>" : include_dir));
    return kernel;
  }

  std::string so_path = (fs::path(dir) / ("flexi_jit_" + HashHex(hash) + ".so")).string();
  std::error_code ec;
  if (fs::exists(so_path, ec)) {
    void* handle = nullptr;
    JitStepFn fn = nullptr;
    std::string reason;
    std::string detail;
    if (TryLoad(so_path, &handle, &fn, &reason, &detail)) {
      CacheHitsCounter().Add(1);
      kernel->Succeed(handle, fn);
      return kernel;
    }
    // Corrupt or stale cache entry: drop it and recompile below.
    fs::remove(so_path, ec);
  }

  CompilerInfo info = *compiler;
  if (async) {
    kernel->worker_ = std::thread([kernel, info, include_dir, source, so_path] {
      CompileInto(kernel, info, include_dir, source, so_path);
    });
  } else {
    CompileInto(kernel, info, include_dir, source, so_path);
  }
  return kernel;
}

void KernelCache::ResetForTest() {
  std::unordered_map<uint64_t, std::shared_ptr<JitKernel>> drained;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    drained.swap(kernels_);
  }
  // A compile thread holds its own reference to its kernel, so dropping the
  // map's references never reaches ~JitKernel's join: join here, so no
  // compile publishes a .so or records a metric after the reset returns.
  for (auto& [key, kernel] : drained) {
    if (kernel->worker_.joinable()) {
      kernel->worker_.join();
    }
  }
  drained.clear();
  ResetDiscoveryForTest();
  ResetHeaderDigestsForTest();
}

void CountFallback(const std::string& reason) {
  obs::MetricsRegistry::Global()
      .GetCounter(obs::WithLabel("jit_fallbacks_total", "reason", reason))
      .Add(1);
}

std::string DefaultCacheDir() {
  std::error_code ec;
  fs::path tmp = fs::temp_directory_path(ec);
  if (ec) {
    tmp = "/tmp";
  }
  return (tmp / "flexi-jit-cache").string();
}

bool ParseJitMode(const std::string& text, JitMode* mode) {
  if (text == "off") {
    *mode = JitMode::kOff;
  } else if (text == "auto") {
    *mode = JitMode::kAuto;
  } else if (text == "on") {
    *mode = JitMode::kOn;
  } else {
    return false;
  }
  return true;
}

}  // namespace flexi::jit
