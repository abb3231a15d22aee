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

std::future<WalkClient::Result> WalkClient::Submit(std::vector<NodeId> starts,
                                                   uint32_t workload_id, uint64_t deadline_us) {
  uint64_t tag = 0;
  return SubmitTagged(std::move(starts), workload_id, deadline_us, &tag);
}

std::future<WalkClient::Result> WalkClient::SubmitTagged(std::vector<NodeId> starts,
                                                         uint32_t workload_id,
                                                         uint64_t deadline_us,
                                                         uint64_t* tag_out) {
  std::promise<Result> promise;
  std::future<Result> future = promise.get_future();
  uint64_t tag = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!open_) {
      promise.set_exception(
          std::make_exception_ptr(std::runtime_error("WalkClient is not connected")));
      return future;
    }
    // The promise must be registered before the frame leaves, or a fast
    // response could arrive with no one to claim it.
    tag = next_tag_++;
    pending_.emplace(tag, std::move(promise));
    if (options_.request_timeout_ms > 0) {
      deadlines_.emplace(tag, std::chrono::steady_clock::now() +
                                  std::chrono::milliseconds(options_.request_timeout_ms));
    }
  }
  *tag_out = tag;
  WireRequest request;
  request.tag = tag;
  request.workload_id = workload_id;
  request.deadline_us = deadline_us;
  request.starts = std::move(starts);
  std::vector<uint8_t> bytes;
  AppendRequestFrame(bytes, request);
  bool sent;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    sent = SendAll(fd_, bytes.data(), bytes.size());
  }
  if (!sent) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pending_.find(tag);
    if (it != pending_.end()) {  // the reader may have failed it already
      it->second.set_exception(
          std::make_exception_ptr(std::runtime_error("send failed: connection lost")));
      pending_.erase(it);
    }
    deadlines_.erase(tag);
  }
  return future;
}

WalkClient::Result WalkClient::Walk(std::vector<NodeId> starts, uint32_t workload_id,
                                    uint64_t deadline_us) {
  uint32_t attempts = options_.max_retries + 1;
  for (uint32_t attempt = 0;; ++attempt) {
    // nullptr reason = permanent failure, never retried.
    const char* retry_reason = nullptr;
    std::exception_ptr error;
    if (!connected() && !host_.empty()) {
      // The previous attempt (or a server restart) tore the connection
      // down: rebuild it. Close() first — the dead fd and its reader are
      // still around — then dial the remembered endpoint.
      Close();
      std::string connect_error;
      if (!Connect(host_, port_, &connect_error)) {
        retry_reason = "connect";
        error =
            std::make_exception_ptr(std::runtime_error("connect failed: " + connect_error));
      }
    }
    if (error == nullptr) {
      try {
        // starts is copied per attempt; each retry re-sends the same
        // request under a fresh tag (and a fresh deadline budget).
        return Submit(starts, workload_id, deadline_us).get();
      } catch (const ServerError& e) {
        switch (e.code()) {
          case WireErrorCode::kOverloaded:
            retry_reason = "overloaded";
            break;
          case WireErrorCode::kDraining:
            retry_reason = "draining";
            break;
          case WireErrorCode::kDeadlineExceeded:
            // Transient by definition — the server shed under load. Each
            // attempt carries a fresh budget, so retrying is meaningful
            // for as long as attempts remain.
            retry_reason = "deadline";
            break;
          default:
            // kMalformedFrame, kNodeOutOfRange, kUnknownWorkload,
            // kRequestTooLarge, kShuttingDown: re-sending the same bytes
            // reproduces the same answer.
            break;
        }
        error = std::current_exception();
      } catch (const RequestTimeoutError&) {
        retry_reason = "timeout";
        error = std::current_exception();
      } catch (const std::runtime_error&) {
        retry_reason = "torn";  // connection-level: closed, reset, send failed
        error = std::current_exception();
      }
    }
    if (retry_reason == nullptr || attempt + 1 >= attempts) {
      std::rethrow_exception(error);
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

std::future<std::string> WalkClient::SubmitStatsRequest() {
  std::promise<std::string> promise;
  std::future<std::string> future = promise.get_future();
  uint64_t tag = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!open_) {
      promise.set_exception(
          std::make_exception_ptr(std::runtime_error("WalkClient is not connected")));
      return future;
    }
    tag = next_tag_++;
    pending_stats_.emplace(tag, std::move(promise));
  }
  std::vector<uint8_t> bytes;
  AppendStatsRequestFrame(bytes, {tag});
  bool sent;
  {
    std::lock_guard<std::mutex> lock(write_mutex_);
    sent = SendAll(fd_, bytes.data(), bytes.size());
  }
  if (!sent) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = pending_stats_.find(tag);
    if (it != pending_stats_.end()) {
      it->second.set_exception(
          std::make_exception_ptr(std::runtime_error("send failed: connection lost")));
      pending_stats_.erase(it);
    }
  }
  return future;
}

std::string WalkClient::FetchStats() { return SubmitStatsRequest().get(); }

void WalkClient::SweepExpired() {
  std::vector<std::promise<Result>> lapsed;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (deadlines_.empty()) {
      return;
    }
    auto now = std::chrono::steady_clock::now();
    for (auto it = deadlines_.begin(); it != deadlines_.end();) {
      if (it->second <= now) {
        auto pending_it = pending_.find(it->first);
        if (pending_it != pending_.end()) {
          lapsed.push_back(std::move(pending_it->second));
          pending_.erase(pending_it);
        }
        it = deadlines_.erase(it);
      } else {
        ++it;
      }
    }
  }
  // A late response for a swept tag finds no pending entry and is ignored —
  // the timer decided, not the wire.
  for (auto& promise : lapsed) {
    promise.set_exception(std::make_exception_ptr(RequestTimeoutError(
        "request timed out after " + std::to_string(options_.request_timeout_ms) + " ms")));
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
      FailAllPending("connection closed");
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
        // Typed so retry policy sees "malformed" (never retried), even
        // though the whole connection is going down.
        FailAllPending(std::make_exception_ptr(
            ServerError(WireErrorCode::kMalformedFrame, "malformed frame from server")));
        return;
      }
      if (frame.type == FrameType::kResponse) {
        std::promise<Result> promise;
        bool found = false;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          auto it = pending_.find(frame.response.tag);
          if (it != pending_.end()) {
            promise = std::move(it->second);
            pending_.erase(it);
            found = true;
          }
          deadlines_.erase(frame.response.tag);
        }
        if (found) {
          Result result;
          result.first_query_id = frame.response.first_query_id;
          result.path_stride = frame.response.path_stride;
          result.num_queries = frame.response.num_queries;
          result.paths = std::move(frame.response.paths);
          promise.set_value(std::move(result));
        }
      } else if (frame.type == FrameType::kStatsResponse) {
        std::promise<std::string> promise;
        bool found = false;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          auto it = pending_stats_.find(frame.stats_response.tag);
          if (it != pending_stats_.end()) {
            promise = std::move(it->second);
            pending_stats_.erase(it);
            found = true;
          }
        }
        if (found) {
          promise.set_value(std::move(frame.stats_response.text));
        }
      } else if (frame.type == FrameType::kError) {
        std::string reason = std::string("server error (") +
                             WireErrorCodeName(frame.error.code) + "): " + frame.error.message;
        if (frame.error.tag == 0) {
          // Not attributable to one request (e.g. the server is about to
          // close a desynced connection): everything outstanding fails,
          // typed with the wire code so retry policy can classify.
          FailAllPending(std::make_exception_ptr(ServerError(frame.error.code, reason)));
          return;
        }
        std::promise<Result> promise;
        bool found = false;
        std::promise<std::string> stats_promise;
        bool stats_found = false;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          auto it = pending_.find(frame.error.tag);
          if (it != pending_.end()) {
            promise = std::move(it->second);
            pending_.erase(it);
            found = true;
          } else {
            auto stats_it = pending_stats_.find(frame.error.tag);
            if (stats_it != pending_stats_.end()) {
              stats_promise = std::move(stats_it->second);
              pending_stats_.erase(stats_it);
              stats_found = true;
            }
          }
          deadlines_.erase(frame.error.tag);
        }
        if (found) {
          promise.set_exception(std::make_exception_ptr(ServerError(frame.error.code, reason)));
        }
        if (stats_found) {
          stats_promise.set_exception(
              std::make_exception_ptr(ServerError(frame.error.code, reason)));
        }
      }
      // A request frame from a server is nonsense; ignore it rather than
      // tearing down a connection that is otherwise consistent.
    }
  }
}

void WalkClient::FailAllPending(std::exception_ptr error) {
  std::unordered_map<uint64_t, std::promise<Result>> orphaned;
  std::unordered_map<uint64_t, std::promise<std::string>> orphaned_stats;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
    orphaned.swap(pending_);
    orphaned_stats.swap(pending_stats_);
    deadlines_.clear();
  }
  for (auto& [tag, promise] : orphaned) {
    promise.set_exception(error);
  }
  for (auto& [tag, promise] : orphaned_stats) {
    promise.set_exception(error);
  }
}

void WalkClient::FailAllPending(const std::string& reason) {
  FailAllPending(std::make_exception_ptr(std::runtime_error(reason)));
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
  FailAllPending("client closed");
  ::close(fd_);
  fd_ = -1;
}

}  // namespace flexi
