// WalkClient: the client half of the wire protocol — connect to a
// WalkServer, submit start-node batches, await path results. Usable from
// tests, benches (bench_net_serving's load generator), and the CLI's
// --connect mode.
//
// Submit() is pipelined: it frames and sends the request immediately and
// returns a future; a reader thread matches response frames back to futures
// by tag, so many requests can be in flight on one connection. Every
// request ends in one place, Complete(tag, Result), and its future resolves
// with a Result whose status says how: kOk with the rows, kServerError with
// the wire code of a kError frame (out-of-range start, overload rejection,
// an expired deadline), kTimedOut, or kConnectionLost (torn connection,
// failed send, Close(), or a submit while closed). A Submit future never
// throws, so no exception crosses from the reader thread to the caller.
// Walk() and FetchStats() turn a failed Result into an exception on the
// caller's thread: ServerError, RequestTimeoutError or std::runtime_error.
//
// Robustness options (all off by default):
//  - Options::connect_timeout_ms bounds Connect() (nonblocking connect +
//    poll) instead of waiting out the kernel's SYN retries.
//  - Options::request_timeout_ms arms a per-tag timer on every request,
//    walk or stats: one with no answer inside the budget resolves
//    kTimedOut. The reader thread drives expiry, so pipelined requests time
//    out independently.
//  - Options::max_retries makes the blocking Walk() retry transient
//    failures — connect refused, torn connection, request timeout, and the
//    kOverloaded / kDraining / kDeadlineExceeded wire errors — with
//    exponential backoff and seeded jitter (deterministic under a fixed
//    seed). Permanent errors (malformed frame, node out of range, unknown
//    workload, request too large) are never retried. Each retry reconnects
//    if the connection died, so Walk() rides out a server restart. Retries
//    are counted as flexi_client_retries_total{reason=...}.
//
// Deadlines: Submit/Walk take an optional deadline_us — a *relative* µs
// budget carried in the request frame (0 = none, never shed). The server
// anchors it at decode and may answer kDeadlineExceeded from any shedding
// stage; each Walk() retry attempt carries a fresh budget.
//
// Thread safety: Submit may be called from any thread (sends are
// serialized); Connect/Close/Walk-with-retries are not safe to race with
// each other or with Submit.
#ifndef FLEXIWALKER_SRC_NET_WALK_CLIENT_H_
#define FLEXIWALKER_SRC_NET_WALK_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <future>
#include <mutex>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "src/net/wire.h"

namespace flexi {

// Walk() and FetchStats() throw this for a request that ended in a kError
// frame. Carries the wire code so callers can tell transient conditions —
// kOverloaded, kDraining, kDeadlineExceeded — from permanent ones without
// parsing the message.
class ServerError : public std::runtime_error {
 public:
  ServerError(WireErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  WireErrorCode code() const { return code_; }

 private:
  WireErrorCode code_;
};

// Walk() and FetchStats() throw this for a request that blew through
// Options::request_timeout_ms with no answer. The connection may still be
// healthy (the response is just late); Walk's retry policy treats it as
// transient.
class RequestTimeoutError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class WalkClient {
 public:
  struct BackoffPolicy {
    uint32_t base_ms = 10;  // first retry delay (before jitter)
    uint32_t max_ms = 1000;  // exponential growth is capped here
    // Jitter PRNG seed. Jitter scales each delay by a uniform [0.5, 1.0)
    // draw so synchronized clients fan out; a fixed seed keeps the delay
    // sequence reproducible, which the retry tests rely on.
    uint64_t seed = 0x5eedf00d;
  };

  struct Options {
    uint32_t connect_timeout_ms = 0;  // 0 = blocking connect (kernel default)
    uint32_t request_timeout_ms = 0;  // 0 = wait forever
    uint32_t max_retries = 0;         // extra Walk() attempts after the first
    BackoffPolicy backoff;
  };

  // How a request ended.
  enum class Status : uint8_t {
    kOk,
    kServerError,     // a kError frame answered it; Result::code is its wire code
    kTimedOut,        // Options::request_timeout_ms lapsed with no answer
    kConnectionLost,  // torn connection, failed send, Close(), or submitted while closed
  };

  // One request's outcome. When ok(), a walk request's served walks are
  // num_queries rows of path_stride nodes, in the order the request's starts
  // were given, padded with kInvalidNode after dead ends — the same row
  // format as WalkResult; first_query_id is the service-global id of the
  // first row (docs/SERVING.md replay handle). A stats request's scrape is
  // in `stats`. Otherwise no rows are set and `error` says what went wrong.
  struct Result {
    Status status = Status::kOk;
    WireErrorCode code{};  // set only when status is kServerError
    std::string error;
    uint64_t first_query_id = 0;
    uint32_t path_stride = 0;
    size_t num_queries = 0;
    std::vector<NodeId> paths;
    std::string stats;

    bool ok() const { return status == Status::kOk; }
    std::span<const NodeId> Path(size_t query) const {
      return {paths.data() + query * path_stride, path_stride};
    }
  };

  WalkClient() : WalkClient(Options{}) {}
  explicit WalkClient(Options options);
  ~WalkClient();  // Close()

  WalkClient(const WalkClient&) = delete;
  WalkClient& operator=(const WalkClient&) = delete;

  // Connects to host:port (IPv4 dotted quad or a resolvable name). Returns
  // false with *error set (when non-null) on failure. Bounded by
  // Options::connect_timeout_ms when nonzero. The endpoint is remembered so
  // Walk() retries can reconnect after a torn connection.
  bool Connect(const std::string& host, uint16_t port, std::string* error = nullptr);

  // Sends the request now and returns a future for its result; safe to call
  // again before earlier futures resolve (pipelining). The future never
  // throws: it resolves with a Result whose status tells a served request
  // from a server error, a timeout or a lost connection.
  //
  // `workload_id` routes to a server-side registered workload (0 = the
  // default workload). `deadline_us` > 0 attaches a relative latency
  // budget.
  std::future<Result> Submit(std::vector<NodeId> starts, uint32_t workload_id = 0,
                             uint64_t deadline_us = 0);

  // Blocking convenience: Submit + get, plus the retry/backoff loop when
  // Options::max_retries > 0 (see the header comment for the policy). Once
  // it gives up, it throws on the caller's thread: ServerError for a kError
  // frame, RequestTimeoutError for a timeout, std::runtime_error for a lost
  // connection or a failed reconnect.
  Result Walk(std::vector<NodeId> starts, uint32_t workload_id = 0, uint64_t deadline_us = 0);

  // Telemetry scrape: sends a kStatsRequest and returns the server's
  // metrics registry rendered as Prometheus text (docs/OBSERVABILITY.md).
  // Pipelines with Submit and ends like any other request, timer included;
  // a failure throws as Walk's would, without retries. A pre-stats server
  // answers kMalformedFrame and drops the connection, so that throws
  // ServerError.
  std::string FetchStats();

  // Ends outstanding requests as connection lost and tears the connection
  // down. Idempotent. The remembered endpoint survives, so a later Walk()
  // with retries can still reconnect.
  void Close();

  bool connected() const;

  uint64_t retries_attempted() const { return retries_attempted_; }

 private:
  // A request awaiting its ending.
  struct Pending {
    std::promise<Result> promise;
    std::chrono::steady_clock::time_point expiry;  // max() when no timer is armed
  };

  void ReceiveLoop();
  // Every request, walk or stats, starts here: registers a pending entry
  // under a fresh tag, then sends the frame `append_frame(bytes, tag)`
  // writes.
  template <typename AppendFrame>
  std::future<Result> Start(AppendFrame append_frame);
  // Every request ends here: resolves the tag's future with `result`,
  // unless an earlier ending already did.
  void Complete(uint64_t tag, Result result);
  // Marks the client closed and completes everything outstanding with
  // `failure`.
  void FailAllPending(const Result& failure);
  // Completes pending requests whose request_timeout_ms expiry has passed;
  // called from the reader thread (its recv is paced by SO_RCVTIMEO when
  // timers are armed).
  void SweepExpired();
  // Sleeps the capped-exponential-with-jitter delay for the given retry.
  void BackoffSleep(uint32_t retry_index);

  Options options_;
  std::string host_;  // remembered endpoint for retry reconnects
  uint16_t port_ = 0;
  std::mt19937_64 backoff_rng_;
  uint64_t retries_attempted_ = 0;  // touched only by Walk (not thread-safe)

  int fd_ = -1;
  std::thread reader_;

  mutable std::mutex mutex_;  // guards pending_, next_tag_, open_
  std::unordered_map<uint64_t, Pending> pending_;
  uint64_t next_tag_ = 1;
  bool open_ = false;

  std::mutex write_mutex_;  // serializes frame sends
};

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_NET_WALK_CLIENT_H_
