// Compile-and-dlopen cache for JIT step kernels.
//
// The emitter (step_emitter.h) renders a WeightProgram into one C++
// translation unit; this layer turns that source into a callable JitStepFn:
// content-hash the source (plus compiler identity, flags, ABI version and
// the bytes of the repo headers the source can include), look the hash up
// in an on-disk cache of compiled shared objects, and only when absent
// invoke the system compiler. Serving never blocks on a compile — requests
// are asynchronous by default and MakeFlexiWorkerFactory polls
// JitKernel::TryGet() on every call, running interpreted until the kernel
// is ready. Every failure mode degrades silently to the interpreted kernel
// and is counted under jit_fallbacks_total{reason=...}:
//
//   unsupported_program — the emitter rejected the program shape (counted
//                         by the caller via CountFallback)
//   no_compiler         — no working C++ compiler found ($CXX, c++, g++,
//                         clang++ all failed to run)
//   no_headers          — the repo headers the emitted TU includes are not
//                         present at the configured include root
//   compile_failed      — the compiler ran and exited non-zero
//   dlopen_failed       — the compiled/cached .so would not load (a corrupt
//                         cache entry is unlinked and recompiled first)
//   symbol_missing      — the .so loaded but lacks the ABI entry points or
//                         reports a different ABI version
#ifndef FLEXIWALKER_SRC_COMPILER_JIT_H_
#define FLEXIWALKER_SRC_COMPILER_JIT_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "src/compiler/jit_abi.h"

namespace flexi::jit {

// CLI-facing switch: kOff never emits or compiles; kAuto compiles in the
// background and swaps in when ready; kOn waits (bounded) for the compile
// so the whole run executes the compiled kernel.
enum class JitMode { kOff, kAuto, kOn };

// One compiled (or failed) kernel, shared by every requester of the same
// source hash. The dlopen handle stays open for the kernel's lifetime, so
// holding a shared_ptr<JitKernel> pins the code the returned function
// pointer lives in.
class JitKernel {
 public:
  JitKernel() = default;
  ~JitKernel();
  JitKernel(const JitKernel&) = delete;
  JitKernel& operator=(const JitKernel&) = delete;

  // The entry point once compiled, loaded and ABI-checked; nullptr while
  // the compile is in flight or after a failure. Safe to poll from any
  // thread — the worker factory checks on every call and swaps in.
  JitStepFn TryGet() const;

  // Blocks until the compile concludes (success or failure) or the timeout
  // elapses. Returns TryGet() != nullptr.
  bool WaitReady(int timeout_ms = 30000) const;

  bool done() const;

  // The stable fallback-reason label when the kernel concluded unusable
  // (one of the jit_fallbacks_total reasons); empty while pending or on
  // success.
  std::string fallback_reason() const;

  // Human-readable failure detail (e.g. the compiler's first error line);
  // empty unless failed.
  std::string detail() const;

  // Internal: conclude the kernel. Called by KernelCache and its compile
  // worker exactly once per kernel; Fail records the fallback metric.
  void Succeed(void* handle, JitStepFn fn);
  void Fail(const std::string& reason, const std::string& detail);

 private:
  friend class KernelCache;

  mutable std::mutex mutex_;
  mutable std::condition_variable cv_;
  bool done_ = false;
  void* handle_ = nullptr;  // dlopen handle, closed on destruction
  JitStepFn fn_ = nullptr;
  std::string reason_;
  std::string detail_;
  std::thread worker_;  // joined on destruction (detached if self-joining)
};

// Process-wide kernel cache: an in-memory hash -> JitKernel map in front of
// the on-disk .so cache shared across processes.
class KernelCache {
 public:
  static KernelCache& Global();

  // Returns the (possibly still compiling) kernel for `source`. `cache_dir`
  // empty means DefaultCacheDir(). With `async` true a fresh compile runs
  // on a background thread; disk hits always resolve inline. All metrics
  // (jit_compiles_total, jit_cache_hits_total, jit_compile_ms and failure
  // fallbacks) are recorded here.
  std::shared_ptr<JitKernel> GetOrCompile(const std::string& source,
                                          const std::string& cache_dir = "",
                                          bool async = true);

  // Joins every in-flight compile, drops every in-memory kernel and forgets
  // the memoized compiler discovery and header digests. On-disk .so files
  // are left alone. Must not run concurrently with GetOrCompile.
  void ResetForTest();

 private:
  KernelCache() = default;

  std::mutex mutex_;
  std::unordered_map<uint64_t, std::shared_ptr<JitKernel>> kernels_;
};

// Records one jit_fallbacks_total{reason=...} increment. The prepare path
// uses this for emitter rejects (unsupported_program), which never reach
// the cache.
void CountFallback(const std::string& reason);

// <system temp>/flexi-jit-cache — the cache directory used when none is
// configured (--jit-cache-dir).
std::string DefaultCacheDir();

// Parses the CLI spelling; returns false on anything but on/off/auto.
bool ParseJitMode(const std::string& text, JitMode* mode);

}  // namespace flexi::jit

#endif  // FLEXIWALKER_SRC_COMPILER_JIT_H_
