// WalkClient: the client half of the wire protocol — connect to a
// WalkServer, submit start-node batches, await path results. Usable from
// tests, benches (bench_net_serving's load generator), and the CLI's
// --connect mode.
//
// Submit() is pipelined: it frames and sends the request immediately and
// returns a future; a reader thread matches response frames back to futures
// by tag, so many requests can be in flight on one connection. Server-side
// errors for a request (out-of-range start, overload rejection, an expired
// deadline) surface as a ServerError thrown from the future; a dropped
// connection fails every outstanding future with a std::runtime_error.
//
// Robustness layer (all off by default — a default-constructed client
// behaves exactly as before):
//  - Options::connect_timeout_ms bounds Connect() (nonblocking connect +
//    poll) instead of waiting out the kernel's SYN retries.
//  - Options::request_timeout_ms arms a per-tag timer: a request with no
//    answer inside the budget fails its future with RequestTimeoutError.
//    The reader thread drives expiry, so pipelined requests time out
//    independently.
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

// A per-request kError frame surfaced through a Submit future. Carries the
// wire code so callers (and Walk's retry policy) can tell transient
// conditions — kOverloaded, kDraining, kDeadlineExceeded — from permanent
// ones without parsing the message.
class ServerError : public std::runtime_error {
 public:
  ServerError(WireErrorCode code, const std::string& message)
      : std::runtime_error(message), code_(code) {}
  WireErrorCode code() const { return code_; }

 private:
  WireErrorCode code_;
};

// A request that blew through Options::request_timeout_ms with no answer.
// The connection may still be healthy (the response is just late); Walk's
// retry policy treats it as transient.
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

  // One request's served walks: num_queries rows of path_stride nodes, in
  // the order the request's starts were given, padded with kInvalidNode
  // after dead ends — the same row format as WalkResult. first_query_id is
  // the service-global id of the first row (docs/SERVING.md replay handle).
  struct Result {
    uint64_t first_query_id = 0;
    uint32_t path_stride = 0;
    size_t num_queries = 0;
    std::vector<NodeId> paths;

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
  // again before earlier futures resolve (pipelining). After Close or a
  // connection failure the future holds a std::runtime_error; server-side
  // per-request errors throw ServerError; an armed request_timeout_ms throws
  // RequestTimeoutError.
  //
  // `workload_id` routes to a server-side registered workload (0 = the
  // default workload). `deadline_us` > 0 attaches a relative latency
  // budget.
  std::future<Result> Submit(std::vector<NodeId> starts, uint32_t workload_id = 0,
                             uint64_t deadline_us = 0);

  // Blocking convenience: Submit + get, plus the retry/backoff loop when
  // Options::max_retries > 0 (see the header comment for the policy).
  Result Walk(std::vector<NodeId> starts, uint32_t workload_id = 0, uint64_t deadline_us = 0);

  // Telemetry scrape: sends a kStatsRequest and resolves with the server's
  // metrics registry rendered as Prometheus text (docs/OBSERVABILITY.md).
  // Pipelines with Submit like any other request; fails like one too
  // (closed connection, pre-stats servers answer kMalformedFrame and drop
  // the connection — the future then carries that error).
  std::future<std::string> SubmitStatsRequest();

  // Blocking convenience: SubmitStatsRequest + get.
  std::string FetchStats();

  // Fails outstanding futures and tears the connection down. Idempotent.
  // The remembered endpoint survives, so a later Walk() with retries can
  // still reconnect.
  void Close();

  bool connected() const;

  uint64_t retries_attempted() const { return retries_attempted_; }

 private:
  void ReceiveLoop();
  // As Submit, also reporting the wire tag used (for the retry loop's
  // bookkeeping).
  std::future<Result> SubmitTagged(std::vector<NodeId> starts, uint32_t workload_id,
                                   uint64_t deadline_us, uint64_t* tag_out);
  // Fails every pending future with `error` and marks the client closed.
  void FailAllPending(std::exception_ptr error);
  void FailAllPending(const std::string& reason);
  // Fails pending requests whose request_timeout_ms deadline has passed;
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

  mutable std::mutex mutex_;  // guards pending_, pending_stats_, deadlines_, next_tag_, open_
  std::unordered_map<uint64_t, std::promise<Result>> pending_;
  std::unordered_map<uint64_t, std::promise<std::string>> pending_stats_;
  // tag -> absolute expiry, entries only when request_timeout_ms is armed.
  std::unordered_map<uint64_t, std::chrono::steady_clock::time_point> deadlines_;
  uint64_t next_tag_ = 1;
  bool open_ = false;

  std::mutex write_mutex_;  // serializes frame sends
};

}  // namespace flexi

#endif  // FLEXIWALKER_SRC_NET_WALK_CLIENT_H_
