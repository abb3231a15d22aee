#include "src/net/walk_client.h"

#include "src/net/socket_util.h"
#include "src/obs/metrics.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace flexi {

WalkClient::WalkClient(Options options)
    : options_(std::move(options)), backoff_rng_(options_.backoff.seed) {}

WalkClient::~WalkClient() { Close(); }

bool WalkClient::Connect(const std::string& host, uint16_t port, std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = what + ": " + std::strerror(errno);
    }
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    return false;
  };
  if (connected()) {
    errno = EISCONN;
    return fail("already connected");
  }
  addrinfo hints{};
  hints.ai_family = AF_INET;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* resolved = nullptr;
  if (::getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &resolved) != 0 ||
      resolved == nullptr) {
    errno = EHOSTUNREACH;
    return fail("resolve " + host);
  }
  fd_ = ::socket(resolved->ai_family, resolved->ai_socktype, resolved->ai_protocol);
  if (fd_ < 0) {
    ::freeaddrinfo(resolved);
    return fail("socket");
  }
  int rc;
  if (options_.connect_timeout_ms > 0) {
    // Bounded connect: go nonblocking, poll for writability, read back
    // SO_ERROR for the real verdict, then restore blocking mode. The
    // kernel's own SYN retry schedule (minutes) never holds the caller.
    int flags = ::fcntl(fd_, F_GETFL, 0);
    ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
    rc = ::connect(fd_, resolved->ai_addr, resolved->ai_addrlen);
    if (rc != 0 && errno == EINPROGRESS) {
      pollfd pfd{fd_, POLLOUT, 0};
      int pr = ::poll(&pfd, 1, static_cast<int>(options_.connect_timeout_ms));
      if (pr == 0) {
        errno = ETIMEDOUT;
        rc = -1;
      } else if (pr < 0) {
        rc = -1;
      } else {
        int so_error = 0;
        socklen_t len = sizeof(so_error);
        ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &so_error, &len);
        if (so_error != 0) {
          errno = so_error;
          rc = -1;
        } else {
          rc = 0;
        }
      }
    }
    if (rc == 0) {
      ::fcntl(fd_, F_SETFL, flags);
    }
  } else {
    rc = ::connect(fd_, resolved->ai_addr, resolved->ai_addrlen);
  }
  ::freeaddrinfo(resolved);
  if (rc != 0) {
    return fail("connect " + host + ":" + std::to_string(port));
  }
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (options_.request_timeout_ms > 0) {
    // Pace the reader's recv so per-tag timers fire without a dedicated
    // timer thread: each SO_RCVTIMEO expiry pops the reader out of recv to
    // sweep for lapsed requests (ReceiveLoop's EAGAIN branch).
    uint32_t tick_ms =
        std::max<uint32_t>(1, std::min<uint32_t>(options_.request_timeout_ms / 4, 50));
    timeval tv{};
    tv.tv_sec = tick_ms / 1000;
    tv.tv_usec = static_cast<suseconds_t>((tick_ms % 1000) * 1000);
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  host_ = host;  // remembered for retry reconnects
  port_ = port;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
  }
  reader_ = std::thread([this] { ReceiveLoop(); });
  return true;
}

bool WalkClient::connected() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return open_;
}

namespace {

WalkClient::Result Failure(WalkClient::Status status, std::string error,
                           WireErrorCode code = {}) {
  WalkClient::Result result;
  result.status = status;
  result.code = code;
  result.error = std::move(error);
  return result;
}

// The flexi_client_retries_total reason a failed Walk attempt retries
// under, or nullptr for a permanent failure.
const char* RetryReason(const WalkClient::Result& failure) {
  if (failure.status == WalkClient::Status::kTimedOut) {
    return "timeout";
  }
  if (failure.status == WalkClient::Status::kConnectionLost) {
    return "torn";  // closed, reset, send failed
  }
  switch (failure.code) {
    case WireErrorCode::kOverloaded:
      return "overloaded";
    case WireErrorCode::kDraining:
      return "draining";
    case WireErrorCode::kDeadlineExceeded:
      // Transient by definition — the server shed under load. Each attempt
      // carries a fresh budget, so retrying is meaningful for as long as
      // attempts remain.
      return "deadline";
    default:
      // kMalformedFrame, kNodeOutOfRange, kUnknownWorkload,
      // kRequestTooLarge, kShuttingDown: re-sending the same bytes
      // reproduces the same answer.
      return nullptr;
  }
}

// Walk and FetchStats raise a failed Result on the caller's thread.
[[noreturn]] void Throw(const WalkClient::Result& failure) {
  switch (failure.status) {
    case WalkClient::Status::kServerError:
      throw ServerError(failure.code, failure.error);
    case WalkClient::Status::kTimedOut:
      throw RequestTimeoutError(failure.error);
    default:
      throw std::runtime_error(failure.error);
  }
}

}  // namespace

template <typename AppendFrame>
std::future<WalkClient::Result> WalkClient::Start(AppendFrame append_frame) {
  Pending pending;
  pending.expiry = options_.request_timeout_ms > 0
                       ? std::chrono::steady_clock::now() +
                             std::chrono::milliseconds(options_.request_timeout_ms)
                       : std::chrono::steady_clock::time_point::max();
  std::future<Result> future = pending.promise.get_future();
  uint64_t tag;
  bool open;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // The entry must be registered before the frame leaves, or a fast
    // response could arrive with no one to claim it.
    tag = next_tag_++;
    open = open_;
    pending_.emplace(tag, std::move(pending));
  }
  if (!open) {
    Complete(tag, Failure(Status::kConnectionLost, "WalkClient is not connected"));
    return future;
  }
  std::vector<uint8_t> bytes;
  append_frame(bytes, tag);
  bool sent;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    sent = SendAll(fd_, bytes.data(), bytes.size());
  }
  if (!sent) {
    Complete(tag, Failure(Status::kConnectionLost, "send failed: connection lost"));
  }
  return future;
}

std::future<WalkClient::Result> WalkClient::Submit(std::vector<NodeId> starts,
                                                   uint32_t workload_id, uint64_t deadline_us) {
  return Start([&](std::vector<uint8_t>& bytes, uint64_t tag) {
    AppendRequestFrame(bytes, {tag, workload_id, std::move(starts), deadline_us});
  });
}

std::string WalkClient::FetchStats() {
  Result result = Start([](std::vector<uint8_t>& bytes, uint64_t tag) {
                    AppendStatsRequestFrame(bytes, {tag});
                  }).get();
  if (!result.ok()) {
    Throw(result);
  }
  return std::move(result.stats);
}

WalkClient::Result WalkClient::Walk(std::vector<NodeId> starts, uint32_t workload_id,
                                    uint64_t deadline_us) {
  uint32_t attempts = options_.max_retries + 1;
  for (uint32_t attempt = 0;; ++attempt) {
    bool reconnected = true;
    std::string connect_error;
    if (!connected() && !host_.empty()) {
      // The previous attempt (or a server restart) tore the connection
      // down: rebuild it. Close() first — the dead fd and its reader are
      // still around — then dial the remembered endpoint.
      Close();
      reconnected = Connect(host_, port_, &connect_error);
    }
    // starts is copied per attempt; each retry re-sends the same request
    // under a fresh tag (and a fresh deadline budget).
    Result result =
        reconnected ? Submit(starts, workload_id, deadline_us).get()
                    : Failure(Status::kConnectionLost, "connect failed: " + connect_error);
    if (result.ok()) {
      return result;
    }
    const char* retry_reason = reconnected ? RetryReason(result) : "connect";
    if (retry_reason == nullptr || attempt + 1 >= attempts) {
      Throw(result);
    }
    ++retries_attempted_;
    obs::MetricsRegistry::Global()
        .GetCounter(obs::WithLabel("flexi_client_retries_total", "reason", retry_reason))
        .Add(1);
    BackoffSleep(attempt);
  }
}

void WalkClient::BackoffSleep(uint32_t retry_index) {
  // Capped exponential: base * 2^retry, never past max_ms; jitter scales by
  // uniform [0.5, 1.0) so a herd of clients retrying the same outage fans
  // out instead of stampeding in lockstep.
  double cap = static_cast<double>(options_.backoff.base_ms) *
               static_cast<double>(uint64_t{1} << std::min(retry_index, 20u));
  cap = std::min(cap, static_cast<double>(options_.backoff.max_ms));
  std::uniform_real_distribution<double> jitter(0.5, 1.0);
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(cap * jitter(backoff_rng_)));
}

void WalkClient::Complete(uint64_t tag, Result result) {
  std::promise<Result> promise;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pending_.find(tag);
    if (it == pending_.end()) {
      // Already ended: a response after its timer fired (the timer
      // decided, not the wire), or a failed send after a teardown.
      return;
    }
    promise = std::move(it->second.promise);
    pending_.erase(it);
  }
  promise.set_value(std::move(result));
}

void WalkClient::SweepExpired() {
  if (options_.request_timeout_ms == 0) {
    return;
  }
  std::vector<uint64_t> lapsed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto now = std::chrono::steady_clock::now();
    for (const auto& [tag, pending] : pending_) {
      if (pending.expiry <= now) {
        lapsed.push_back(tag);
      }
    }
  }
  for (uint64_t tag : lapsed) {
    Complete(tag, Failure(Status::kTimedOut, "request timed out after " +
                                                 std::to_string(options_.request_timeout_ms) +
                                                 " ms"));
  }
}

void WalkClient::ReceiveLoop() {
  FrameDecoder decoder;
  std::vector<uint8_t> chunk(64 << 10);
  for (;;) {
    ssize_t n = ::recv(fd_, chunk.data(), chunk.size(), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // SO_RCVTIMEO tick with no bytes: fire any lapsed per-tag timers and
      // go back to listening.
      SweepExpired();
      continue;
    }
    if (n <= 0) {
      FailAllPending(Failure(Status::kConnectionLost, "connection closed"));
      return;
    }
    SweepExpired();  // timers must fire even under continuous traffic
    decoder.Append(chunk.data(), static_cast<size_t>(n));
    for (;;) {
      WireFrame frame;
      DecodeStatus status = decoder.Next(frame);
      if (status == DecodeStatus::kNeedMore) {
        break;
      }
      if (status == DecodeStatus::kMalformed) {
        // A server error, so retry policy sees "malformed" (never
        // retried), even though the whole connection is going down.
        FailAllPending(Failure(Status::kServerError, "malformed frame from server",
                               WireErrorCode::kMalformedFrame));
        return;
      }
      if (frame.type == FrameType::kResponse) {
        Result result;
        result.first_query_id = frame.response.first_query_id;
        result.path_stride = frame.response.path_stride;
        result.num_queries = frame.response.num_queries;
        result.paths = std::move(frame.response.paths);
        Complete(frame.response.tag, std::move(result));
      } else if (frame.type == FrameType::kStatsResponse) {
        Result result;
        result.stats = std::move(frame.stats_response.text);
        Complete(frame.stats_response.tag, std::move(result));
      } else if (frame.type == FrameType::kError) {
        Result failure = Failure(Status::kServerError,
                                 std::string("server error (") +
                                     WireErrorCodeName(frame.error.code) +
                                     "): " + frame.error.message,
                                 frame.error.code);
        if (frame.error.tag == 0) {
          // Not attributable to one request (e.g. the server is about to
          // close a desynced connection): everything outstanding fails,
          // with the wire code so retry policy can classify.
          FailAllPending(failure);
          return;
        }
        Complete(frame.error.tag, std::move(failure));
      }
      // A request frame from a server is nonsense; ignore it rather than
      // tearing down a connection that is otherwise consistent.
    }
  }
}

void WalkClient::FailAllPending(const Result& failure) {
  std::vector<uint64_t> tags;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
    for (const auto& [tag, pending] : pending_) {
      tags.push_back(tag);
    }
  }
  for (uint64_t tag : tags) {
    Complete(tag, failure);
  }
}

void WalkClient::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (fd_ < 0) {
      return;
    }
    open_ = false;
  }
  ::shutdown(fd_, SHUT_RDWR);  // pops the reader out of recv
  if (reader_.joinable()) {
    reader_.join();
  }
  FailAllPending(Failure(Status::kConnectionLost, "client closed"));
  ::close(fd_);
  fd_ = -1;
}

}  // namespace flexi
