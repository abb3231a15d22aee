#include "src/walker/worker_pool.h"

#include <algorithm>
#include <atomic>

#include "src/obs/metrics.h"

namespace flexi {
namespace {

// Registry series for the pool (obs/metrics.h): how often workers park on
// the condvar, how often a parked worker is woken to claim work, and the
// wall-clock the pool spent inside job bodies.
struct PoolMetrics {
  obs::Counter& jobs;
  obs::Counter& parks;
  obs::Counter& wakes;
  obs::Counter& busy_us;

  static PoolMetrics& Get() {
    static PoolMetrics* metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return new PoolMetrics{
          registry.GetCounter("flexi_worker_jobs_total"),
          registry.GetCounter("flexi_worker_parks_total"),
          registry.GetCounter("flexi_worker_wakes_total"),
          registry.GetCounter("flexi_worker_busy_us_total"),
      };
    }();
    return *metrics;
  }
};

std::atomic<unsigned> g_default_threads{0};

unsigned HardwareThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

unsigned DefaultWorkerThreads() {
  unsigned configured = g_default_threads.load(std::memory_order_relaxed);
  unsigned value = configured == 0 ? HardwareThreads() : configured;
  return std::clamp(value, 1u, kMaxHostWorkers);
}

void SetDefaultWorkerThreads(unsigned threads) {
  g_default_threads.store(threads, std::memory_order_relaxed);
}

// One submitted batch. `next_index` is guarded by the pool mutex (claims are
// cheap relative to job bodies, so a mutex beats reasoning about atomics);
// `remaining` is guarded by its own mutex so finish bookkeeping doesn't
// contend with claims. The invariant that makes raw Job* in the queue safe:
// a job is queued iff it still has unclaimed indices, and the claimer of the
// last index removes it in the same critical section — so no thread can
// reach a job after the submitting stack frame (which owns it) was released.
struct WorkerPool::Job {
  Job(const std::function<void(unsigned)>* body_in, unsigned workers_in)
      : body(body_in), workers(workers_in), remaining(workers_in) {}

  const std::function<void(unsigned)>* body;
  unsigned workers;
  unsigned next_index = 0;  // guarded by WorkerPool::mutex_

  std::mutex done_mutex;
  std::condition_variable done_cv;
  unsigned remaining;  // guarded by done_mutex
};

WorkerPool::WorkerPool(unsigned initial_threads) {
  std::lock_guard<std::mutex> lock(mutex_);
  EnsureThreadsLocked(initial_threads);
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (std::thread& t : threads_) {
    t.join();
  }
}

void WorkerPool::EnsureThreadsLocked(unsigned target) {
  target = std::min(target, kMaxHostWorkers);
  while (threads_.size() < target) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

size_t WorkerPool::thread_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return threads_.size();
}

void WorkerPool::Run(unsigned workers, const std::function<void(unsigned)>& body) {
  if (workers <= 1) {
    body(0);
    return;
  }
  PoolMetrics::Get().jobs.Add(1);
  Job job(&body, workers);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The caller runs indices too, so workers - 1 pool threads saturate it.
    EnsureThreadsLocked(workers - 1);
    queue_.push_back(&job);
  }
  cv_.notify_all();

  // Participate: claim unclaimed indices of our own job. This is what makes
  // nested Run calls deadlock-free — even if every pool thread is stuck in
  // some outer job body, the submitter finishes its job single-handedly.
  for (;;) {
    unsigned index = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (job.next_index >= job.workers) {
        break;  // fully claimed; finishers are in flight
      }
      index = job.next_index++;
      if (job.next_index == job.workers) {
        std::erase(queue_, &job);
      }
    }
    try {
      body(index);
    } catch (...) {
      // The job must leave the queue and all in-flight indices must finish
      // before the stack-allocated Job dies with the rethrow; otherwise a
      // parked worker would later pop a dangling pointer. Confiscate every
      // unclaimed index (they will never run), settle the accounting, wait
      // out the claimed ones, then propagate.
      unsigned confiscated = 0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        confiscated = job.workers - job.next_index;
        job.next_index = job.workers;
        std::erase(queue_, &job);
      }
      std::unique_lock<std::mutex> done(job.done_mutex);
      job.remaining -= confiscated + 1;  // +1: our own thrown index
      job.done_cv.wait(done, [&job] { return job.remaining == 0; });
      throw;
    }
    std::lock_guard<std::mutex> done(job.done_mutex);
    --job.remaining;  // no notify: the submitter is the only waiter, and it is us
  }

  std::unique_lock<std::mutex> done(job.done_mutex);
  job.done_cv.wait(done, [&job] { return job.remaining == 0; });
}

void WorkerPool::WorkerLoop() {
  for (;;) {
    Job* job = nullptr;
    unsigned index = 0;
    bool parked = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      parked = !shutdown_ && queue_.empty();
      cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        return;  // shutdown, queue drained
      }
      job = queue_.front();
      index = job->next_index++;
      if (job->next_index == job->workers) {
        queue_.pop_front();
      }
    }
    PoolMetrics& metrics = PoolMetrics::Get();
    if (parked) {
      // This claim ended a real park (the wait actually blocked).
      metrics.parks.Add(1);
      metrics.wakes.Add(1);
    }
    uint64_t body_start_us = obs::NowMicros();
    (*job->body)(index);
    metrics.busy_us.Add(obs::NowMicros() - body_start_us);
    {
      std::lock_guard<std::mutex> done(job->done_mutex);
      if (--job->remaining == 0) {
        job->done_cv.notify_all();
      }
    }
    // `job` lives on the submitter's stack and may be gone as soon as
    // remaining hits zero — nothing below this line may touch it.
  }
}

WorkerPool& WorkerPool::Global() {
  static WorkerPool pool;
  return pool;
}

void RunOnWorkers(unsigned workers, const std::function<void(unsigned)>& body) {
  workers = std::clamp(workers, 1u, kMaxHostWorkers);
  WorkerPool::Global().Run(workers, body);
}

void ParallelForRanges(unsigned threads, size_t n,
                       const std::function<void(unsigned, size_t, size_t)>& body) {
  if (n == 0) {
    return;
  }
  unsigned workers = std::clamp(threads, 1u, kMaxHostWorkers);
  workers = static_cast<unsigned>(std::min<size_t>(workers, n));
  size_t chunk = (n + workers - 1) / workers;
  RunOnWorkers(workers, [&body, n, chunk](unsigned w) {
    size_t begin = std::min(n, static_cast<size_t>(w) * chunk);
    size_t end = std::min(n, begin + chunk);
    body(w, begin, end);
  });
}

}  // namespace flexi
