#include "src/net/walk_server.h"

#include "src/net/socket_util.h"
#include "src/obs/trace.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

namespace flexi {
namespace {

// Server-wide (workload-agnostic) scrape series, resolved once. Per-workload
// series live on WalkServer::Workload.
struct ServerMetrics {
  obs::Counter& connections;
  obs::Counter& frames_decoded;
  obs::Counter& frames_malformed;
  obs::Counter& cork_bytes;
  obs::Counter& epollout_resumptions;
  obs::Counter& stats_requests;
  obs::Counter& unknown_workload;
  // Pre-admission deadline sheds: expired at decode or while parked. The
  // flush/run stages of the same family live in the BatchCoalescer, which
  // owns those shed points.
  obs::Counter& deadline_decode;
  obs::Counter& draining_rejects;

  static ServerMetrics& Get() {
    static ServerMetrics* metrics = [] {
      auto& registry = obs::MetricsRegistry::Global();
      return new ServerMetrics{
          registry.GetCounter("flexi_server_connections_accepted_total"),
          registry.GetCounter("flexi_server_frames_decoded_total"),
          registry.GetCounter("flexi_server_frames_malformed_total"),
          registry.GetCounter("flexi_server_cork_bytes_total"),
          registry.GetCounter("flexi_server_epollout_resumptions_total"),
          registry.GetCounter("flexi_server_stats_requests_total"),
          registry.GetCounter("flexi_server_unknown_workload_total"),
          registry.GetCounter(obs::WithLabel("flexi_requests_deadline_exceeded_total", "stage",
                                             "decode")),
          registry.GetCounter("flexi_server_draining_rejects_total"),
      };
    }();
    return *metrics;
  }
};

}  // namespace

WalkServer::Connection::~Connection() {
  if (fd >= 0) {
    ::close(fd);
  }
}

WalkServer::WalkServer(WalkService& service, NodeId num_nodes, Options options)
    : num_nodes_(num_nodes), options_(std::move(options)) {
  RegisterWorkload("default", service, options_.coalescer);
}

WalkServer::~WalkServer() { Stop(); }

uint32_t WalkServer::RegisterWorkload(std::string name, WalkService& service,
                                      BatchCoalescer::Options coalescer_options) {
  auto workload = std::make_unique<Workload>();
  workload->name = std::move(name);
  coalescer_options.metrics_label = workload->name;
  workload->coalescer = std::make_unique<BatchCoalescer>(service, coalescer_options);
  auto& registry = obs::MetricsRegistry::Global();
  workload->m_requests =
      &registry.GetCounter(obs::WithLabel("flexi_server_requests_total", "workload",
                                          workload->name));
  workload->m_rejected =
      &registry.GetCounter(obs::WithLabel("flexi_server_requests_rejected_total", "workload",
                                          workload->name));
  workload->m_responses =
      &registry.GetCounter(obs::WithLabel("flexi_server_responses_total", "workload",
                                          workload->name));
  workload->m_latency_us =
      &registry.GetHistogram(obs::WithLabel("flexi_server_request_latency_us", "workload",
                                            workload->name));
  uint32_t id = static_cast<uint32_t>(workloads_.size());
  // The hook runs on the runner thread that walked each batch, after the
  // batch's callbacks: push the corked responses out, then wake any
  // connection parked on this workload's quota — the completed batch is
  // exactly what freed admission space.
  workload->coalescer->SetBatchCompleteHook([this, id] {
    FlushCorkedWrites();
    std::vector<std::shared_ptr<Connection>> parked;
    {
      std::lock_guard<std::mutex> lock(workloads_[id]->parked_mutex);
      parked.swap(workloads_[id]->parked);
    }
    for (auto& conn : parked) {
      PostCommand(conn->loop, {Command::kUnpark, conn});
    }
  });
  workloads_.push_back(std::move(workload));
  return id;
}

bool WalkServer::Start(std::string* error) {
  auto fail = [&](const std::string& what) {
    if (error != nullptr) {
      *error = what + ": " + std::strerror(errno);
    }
    for (auto& loop : loops_) {
      if (loop->epoll_fd >= 0) {
        ::close(loop->epoll_fd);
      }
      if (loop->wake_fd >= 0) {
        ::close(loop->wake_fd);
      }
    }
    loops_.clear();
    if (listen_fd_ >= 0) {
      ::close(listen_fd_);
      listen_fd_ = -1;
    }
    return false;
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return fail("socket");
  }
  int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) != 1) {
    errno = EINVAL;
    return fail("inet_pton(" + options_.bind_address + ")");
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return fail("bind");
  }
  if (::listen(listen_fd_, options_.backlog) != 0) {
    return fail("listen");
  }
  socklen_t addr_len = sizeof(addr);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    return fail("getsockname");
  }
  port_ = ntohs(addr.sin_port);
  // Nonblocking listener polled by loop 0; each loop owns an epoll set plus
  // an eventfd other threads write to hand it work.
  if (::fcntl(listen_fd_, F_SETFL, O_NONBLOCK) != 0) {
    return fail("fcntl(O_NONBLOCK)");
  }
  size_t num_loops = std::max<size_t>(1, options_.event_threads);
  for (size_t i = 0; i < num_loops; ++i) {
    auto loop = std::make_unique<EventLoop>();
    loop->epoll_fd = ::epoll_create1(EPOLL_CLOEXEC);
    loop->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    loop->chunk.resize(64 << 10);
    loops_.push_back(std::move(loop));
    if (loops_.back()->epoll_fd < 0 || loops_.back()->wake_fd < 0) {
      return fail("epoll_create1/eventfd");
    }
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = loops_.back()->wake_fd;
    if (::epoll_ctl(loops_.back()->epoll_fd, EPOLL_CTL_ADD, loops_.back()->wake_fd, &ev) != 0) {
      return fail("epoll_ctl(wake)");
    }
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = listen_fd_;
  if (::epoll_ctl(loops_[0]->epoll_fd, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
    return fail("epoll_ctl(listener)");
  }
  listener_registered_ = true;
  started_ = true;
  for (size_t i = 0; i < loops_.size(); ++i) {
    loops_[i]->thread = std::thread([this, i] { EventLoopMain(i); });
  }
  return true;
}

// ---------------------------------------------------------------------------
// Request path
// ---------------------------------------------------------------------------

WalkServer::HandleStatus WalkServer::HandleRequest(EventLoop& loop,
                                                   const std::shared_ptr<Connection>& conn,
                                                   WireRequest& request) {
  requests_received_.fetch_add(1, std::memory_order_relaxed);
  // The request's latency clock: decode happened within this call's caller,
  // microseconds ago — close enough to anchor decode -> response-cork.
  uint64_t decode_us = obs::NowMicros();
  uint64_t tag = request.tag;
  if (draining_.load(std::memory_order_acquire)) {
    // BeginDrain: nothing new is admitted, whatever the request looks like.
    // kDraining (not kShuttingDown) tells retry-capable clients the fleet
    // is fine — go hit a healthy replica.
    ServerMetrics::Get().draining_rejects.Add(1);
    RejectRequest(loop, conn, nullptr, tag, WireErrorCode::kDraining,
                  "server draining; no new requests are admitted");
    return HandleStatus::kHandled;
  }
  if (request.workload_id >= workloads_.size()) {
    ServerMetrics::Get().unknown_workload.Add(1);
    RejectRequest(loop, conn, nullptr, tag, WireErrorCode::kUnknownWorkload,
                  "unknown workload id " + std::to_string(request.workload_id) +
                      " (server has " + std::to_string(workloads_.size()) + " registered)");
    return HandleStatus::kHandled;
  }
  Workload& workload = *workloads_[request.workload_id];
  workload.requests_received.fetch_add(1, std::memory_order_relaxed);
  workload.m_requests->Add(1);
  // Deadline anchor: the wire carries a *relative* budget; pin it to this
  // host's monotonic timebase here, at decode. The anchor is `recv_us` —
  // when the bytes feeding the decoder left the socket, stamped by
  // ReadReady before any frame decodes — not this instant: a pipelined
  // frame whose predecessors parked in admission has already burned that
  // wait out of its budget, and the shed below notices.
  uint64_t deadline_at_us = 0;
  if (request.deadline_us != 0) {
    deadline_at_us = conn->recv_us + request.deadline_us;
    if (deadline_at_us <= obs::NowMicros()) {
      // Decode-stage shed: the budget lapsed before admission was even
      // attempted. Cheapest possible reject — no callbacks were built, no
      // quota was touched.
      ServerMetrics::Get().deadline_decode.Add(1);
      RejectRequest(loop, conn, &workload, tag, WireErrorCode::kDeadlineExceeded,
                    "deadline expired before admission");
      return HandleStatus::kHandled;
    }
  }
  if (request.starts.size() > options_.max_request_starts) {
    RejectRequest(loop, conn, &workload, tag, WireErrorCode::kRequestTooLarge,
                  "request has " + std::to_string(request.starts.size()) +
                      " starts; the per-request cap is " +
                      std::to_string(options_.max_request_starts));
    return HandleStatus::kHandled;
  }
  for (NodeId start : request.starts) {
    if (start >= num_nodes_) {
      RejectRequest(loop, conn, &workload, tag, WireErrorCode::kNodeOutOfRange,
                    "start node " + std::to_string(start) + " out of range (graph has " +
                        std::to_string(num_nodes_) + " nodes)");
      return HandleStatus::kHandled;
    }
  }
  ParkedRequest admission;
  admission.tag = tag;
  admission.workload_id = request.workload_id;
  admission.starts = std::move(request.starts);
  // Scatter-arena response path: preallocate the response frame and hand
  // its payload region to the coalescer as the request's row placement —
  // the scheduler's workers then write the walk's wire bytes directly
  // (PathArenaView scattered mode), and completion only patches the global
  // query id and corks the finished frame. Native row stores are wire order
  // only on little-endian hosts; big-endian declines placement and keeps
  // the serialize-on-completion path.
  auto response_frame = std::make_shared<std::vector<uint8_t>>();
  if constexpr (std::endian::native == std::endian::little) {
    admission.place = [response_frame, tag](size_t num_queries,
                                            uint32_t path_stride) -> BatchCoalescer::Placement {
      NodeId* rows = BuildPlacedResponseFrame(*response_frame, tag, path_stride,
                                              static_cast<uint32_t>(num_queries));
      return {rows, response_frame};
    };
  }
  // Runs on the coalescer runner thread that walked the batch; `conn` is
  // kept alive by the capture even after the connection leaves every
  // server-side list.
  uint32_t workload_id = request.workload_id;
  Workload* workload_ptr = &workload;
  admission.done = [this, conn, tag, response_frame, decode_us, workload_id,
                    workload_ptr](BatchCoalescer::RequestResult result) {
    if (result.placed) {
      PatchPlacedResponseQueryId(*response_frame, result.first_query_id);
      std::span<const uint8_t> bytes = PlacedFrameBytes(*response_frame);
      Cork(conn, {bytes.data(), bytes.size(), response_frame});
    } else {
      // Fallback: the view aliases the batch arena (kept alive by
      // result.keepalive across this call); serializing it into an owned
      // frame is the only copy on the way out.
      auto frame = std::make_shared<std::vector<uint8_t>>();
      AppendResponseFrame(*frame, WireResponseView{tag, result.first_query_id,
                                                   result.path_stride,
                                                   static_cast<uint32_t>(result.num_queries),
                                                   result.paths});
      Cork(conn, {frame->data(), frame->size(), std::move(frame)});
    }
    // The response is corked (the batch hook flushes it next): close the
    // request's latency span and count the completion.
    uint64_t now_us = obs::NowMicros();
    workload_ptr->m_responses->Add(1);
    workload_ptr->m_latency_us->Record(now_us - decode_us);
    obs::TraceRing::Global().Record("request", tag, workload_id, decode_us, now_us);
    // After the cork: retirement reads pending==0 as "every admitted
    // request's bytes are in the cork queue (or dropped with the
    // connection)".
    conn->pending_requests.fetch_sub(1, std::memory_order_acq_rel);
  };
  // The admitted request's deadline, if it carries one: the coalescer sheds
  // it at flush or cancels its batch mid-run once every member lapsed, and
  // answers through this ExpireFn — which runs on a coalescer runner
  // thread, so it corks (never sends inline) and settles the same
  // pending_requests slot DoneFn would have.
  if (deadline_at_us != 0) {
    admission.deadline.at_us = deadline_at_us;
    admission.deadline.expired = [this, conn, tag] {
      auto frame = std::make_shared<std::vector<uint8_t>>();
      AppendErrorFrame(*frame, {tag, WireErrorCode::kDeadlineExceeded,
                                "deadline exceeded before completion"});
      Cork(conn, {frame->data(), frame->size(), std::move(frame)});
      conn->pending_requests.fetch_sub(1, std::memory_order_acq_rel);
    };
  }
  if (TryAdmit(loop, conn, workload, admission) != BatchCoalescer::AdmitStatus::kWouldBlock) {
    return HandleStatus::kHandled;
  }
  // kBlock quota full: park the decoded request and stop reading this
  // connection until the workload completes a batch.
  conn->parked = std::move(admission);
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (conn->want_read) {
      conn->want_read = false;
      UpdateInterestLocked(*conn);
    }
  }
  return HandleStatus::kWouldBlock;
}

BatchCoalescer::AdmitStatus WalkServer::TryAdmit(EventLoop& loop,
                                                 const std::shared_ptr<Connection>& conn,
                                                 Workload& workload, ParkedRequest& request) {
  conn->pending_requests.fetch_add(1, std::memory_order_acq_rel);
  auto status = workload.coalescer->TryEnqueue(request.starts, request.done, request.place,
                                               request.deadline);
  if (status == BatchCoalescer::AdmitStatus::kWouldBlock) {
    // Register on the parked list *before* the re-try: a batch completing
    // between a failed admit and the registration would otherwise swap an
    // empty list and never wake us. After registration either the re-try
    // admits, or some batch is still outstanding and its completion sees
    // the entry. Stale entries (re-try admitted) cost one no-op unpark.
    {
      std::lock_guard<std::mutex> lock(workload.parked_mutex);
      workload.parked.push_back(conn);
    }
    status = workload.coalescer->TryEnqueue(request.starts, request.done, request.place,
                                            request.deadline);
  }
  if (status == BatchCoalescer::AdmitStatus::kAdmitted) {
    return status;
  }
  conn->pending_requests.fetch_sub(1, std::memory_order_acq_rel);
  if (status == BatchCoalescer::AdmitStatus::kRejected) {
    bool stopping = stopping_.load();
    RejectRequest(loop, conn, &workload, request.tag,
                  stopping ? WireErrorCode::kShuttingDown : WireErrorCode::kOverloaded,
                  stopping ? "server shutting down" : "admission queue full");
  }
  return status;
}

void WalkServer::RejectRequest(EventLoop& loop, const std::shared_ptr<Connection>& conn,
                               Workload* workload, uint64_t tag, WireErrorCode code,
                               const std::string& message) {
  requests_rejected_.fetch_add(1, std::memory_order_relaxed);
  if (workload != nullptr) {
    workload->requests_rejected.fetch_add(1, std::memory_order_relaxed);
    workload->m_rejected->Add(1);
  }
  CorkErrorEvent(loop, conn, tag, code, message);
}

// ---------------------------------------------------------------------------
// Event loop
// ---------------------------------------------------------------------------

void WalkServer::PostCommand(size_t loop_index, Command command) {
  EventLoop& loop = *loops_[loop_index];
  {
    std::lock_guard<std::mutex> lock(loop.mutex);
    if (loop.stopped) {
      return;
    }
    loop.commands.push_back(std::move(command));
  }
  uint64_t one = 1;
  [[maybe_unused]] ssize_t n = ::write(loop.wake_fd, &one, sizeof(one));
}

void WalkServer::EventLoopMain(size_t index) {
  EventLoop& loop = *loops_[index];
  std::vector<epoll_event> events(64);
  bool running = true;
  while (running) {
    // A parked request's deadline can lapse with no socket event and no
    // batch completion to notice it — bound the wait by the earliest parked
    // deadline on this loop so the sweep below runs in time. No parked
    // deadlines (the overwhelmingly common case) keeps the plain infinite
    // wait.
    uint64_t next_parked_deadline = 0;
    for (auto& [fd, conn] : loop.conns) {
      (void)fd;
      if (conn->parked.has_value() && conn->parked->deadline.at_us != 0 &&
          (next_parked_deadline == 0 || conn->parked->deadline.at_us < next_parked_deadline)) {
        next_parked_deadline = conn->parked->deadline.at_us;
      }
    }
    int timeout_ms = -1;
    if (next_parked_deadline != 0) {
      uint64_t now_us = obs::NowMicros();
      timeout_ms = next_parked_deadline <= now_us
                       ? 0
                       : static_cast<int>(
                             std::min<uint64_t>((next_parked_deadline - now_us) / 1000 + 1, 1000));
    }
    int n = ::epoll_wait(loop.epoll_fd, events.data(), static_cast<int>(events.size()),
                         timeout_ms);
    if (n < 0) {
      if (errno == EINTR) {
        continue;
      }
      return;
    }
    for (int i = 0; i < n; ++i) {
      int fd = events[i].data.fd;
      uint32_t ev = events[i].events;
      if (fd == loop.wake_fd) {
        uint64_t drained;
        while (::read(loop.wake_fd, &drained, sizeof(drained)) > 0) {
        }
        continue;
      }
      if (fd == listen_fd_ && index == 0) {
        AcceptReady(loop);
        continue;
      }
      // Events address connections by fd, looked up in the loop's map — a
      // stale event for an fd torn down earlier in this batch just misses.
      // The fd itself cannot have been reused: the Connection holds it
      // until its last shared_ptr drops.
      auto it = loop.conns.find(fd);
      if (it == loop.conns.end()) {
        continue;
      }
      std::shared_ptr<Connection> conn = it->second;
      if (ev & EPOLLOUT) {
        WriteReady(loop, conn);
      }
      if (conn->open && (ev & (EPOLLIN | EPOLLHUP | EPOLLERR))) {
        ReadReady(loop, conn, ev);
      }
    }
    std::vector<Command> commands;
    {
      std::lock_guard<std::mutex> lock(loop.mutex);
      commands.swap(loop.commands);
    }
    for (Command& command : commands) {
      switch (command.kind) {
        case Command::kAdd:
          RegisterConnection(loop, command.conn);
          break;
        case Command::kUnpark:
          HandleUnpark(loop, command.conn);
          break;
        case Command::kTeardown:
          TeardownConnection(loop, command.conn);
          break;
        case Command::kShutdownReads:
          ShutdownReads(loop);
          break;
        case Command::kStop:
          running = false;
          break;
      }
    }
    if (next_parked_deadline != 0) {
      SweepExpiredParked(loop);
    }
  }
}

void WalkServer::ResumeReads(EventLoop& loop, const std::shared_ptr<Connection>& conn) {
  // Drain any frames decoded before the park, then resume reading the
  // socket.
  FrameProgress progress = ProcessFrames(loop, conn);
  if (progress == FrameProgress::kNeedMore) {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (!conn->want_read && !conn->peer_eof) {
      conn->want_read = true;
      UpdateInterestLocked(*conn);
    }
  }
}

void WalkServer::AnswerParkedExpired(EventLoop& loop, const std::shared_ptr<Connection>& conn,
                                     ParkedRequest request) {
  // The request was never admitted, so there is no quota slot to release —
  // pre-admission expiry is the same "decode" stage as a shed in
  // HandleRequest, just noticed later.
  ServerMetrics::Get().deadline_decode.Add(1);
  RejectRequest(loop, conn, workloads_[request.workload_id].get(), request.tag,
                WireErrorCode::kDeadlineExceeded, "deadline expired while parked for admission");
  if (conn->open) {
    ResumeReads(loop, conn);
  }
}

void WalkServer::SweepExpiredParked(EventLoop& loop) {
  uint64_t now_us = obs::NowMicros();
  std::vector<std::shared_ptr<Connection>> lapsed;
  for (auto& [fd, conn] : loop.conns) {
    (void)fd;
    if (conn->parked.has_value() && conn->parked->deadline.at_us != 0 &&
        conn->parked->deadline.at_us <= now_us) {
      lapsed.push_back(conn);
    }
  }
  // Answer outside the map walk: resuming reads can decode more frames and
  // tear the connection down, which mutates loop.conns.
  for (auto& conn : lapsed) {
    if (!conn->open || !conn->parked.has_value()) {
      continue;
    }
    ParkedRequest request = std::move(*conn->parked);
    conn->parked.reset();
    AnswerParkedExpired(loop, conn, std::move(request));
  }
}

void WalkServer::AcceptReady(EventLoop& loop) {
  for (;;) {
    int fd = ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) {
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      // Listener shut down (Stop) or broken: deregister so the level-
      // triggered readiness cannot spin this loop.
      if (listener_registered_) {
        ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
        listener_registered_ = false;
      }
      return;
    }
    if (stopping_.load()) {
      ::close(fd);
      continue;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (options_.send_buffer_bytes > 0) {
      ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &options_.send_buffer_bytes, sizeof(int));
    }
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    ServerMetrics::Get().connections.Add(1);
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conn->decoder = FrameDecoder(options_.max_frame_payload);
    size_t target = next_loop_.fetch_add(1, std::memory_order_relaxed) % loops_.size();
    conn->loop = target;
    conn->epoll_fd = loops_[target]->epoll_fd;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.push_back(conn);
    }
    if (target == 0) {
      RegisterConnection(loop, conn);
    } else {
      PostCommand(target, {Command::kAdd, conn});
    }
  }
}

void WalkServer::RegisterConnection(EventLoop& loop, const std::shared_ptr<Connection>& conn) {
  loop.conns[conn->fd] = conn;
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    conn->registered = true;
    conn->want_read = true;
  }
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = conn->fd;
  ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_ADD, conn->fd, &ev);
}

void WalkServer::UpdateInterestLocked(Connection& conn) {
  if (!conn.registered) {
    return;
  }
  epoll_event ev{};
  ev.events = (conn.want_read ? EPOLLIN : 0u) | (conn.want_write ? EPOLLOUT : 0u);
  ev.data.fd = conn.fd;
  ::epoll_ctl(conn.epoll_fd, EPOLL_CTL_MOD, conn.fd, &ev);
}

bool WalkServer::ShouldRetireLocked(const Connection& conn) {
  return conn.peer_eof && conn.corked.empty() &&
         conn.pending_requests.load(std::memory_order_acquire) == 0;
}

SendResult WalkServer::DrainCorkLocked(Connection& conn) {
  if (!conn.writable) {
    conn.corked.clear();
    conn.cork_offset = 0;
    return SendResult::kClosed;
  }
  if (conn.corked.empty()) {
    if (conn.want_write) {
      conn.want_write = false;
      UpdateInterestLocked(conn);
    }
    return SendResult::kDone;
  }
  std::vector<iovec> iov;
  iov.reserve(conn.corked.size());
  bool first = true;
  for (const CorkEntry& entry : conn.corked) {
    const uint8_t* data = entry.data;
    size_t size = entry.size;
    if (first) {
      data += conn.cork_offset;
      size -= conn.cork_offset;
      first = false;
    }
    iov.push_back({const_cast<uint8_t*>(data), size});
  }
  iovec* cursor = iov.data();
  size_t count = iov.size();
  SendResult result = SendVec(conn.fd, cursor, count);
  switch (result) {
    case SendResult::kDone:
      conn.corked.clear();
      conn.cork_offset = 0;
      if (conn.want_write) {
        conn.want_write = false;
        UpdateInterestLocked(conn);
      }
      break;
    case SendResult::kAgain: {
      // SendVec advanced cursor/count to the unsent suffix: drop the fully
      // sent entries and record how far into the (new) front entry the
      // kernel got, then wait for EPOLLOUT to resume exactly there.
      size_t sent_entries = iov.size() - count;
      for (size_t i = 0; i < sent_entries; ++i) {
        conn.corked.pop_front();
      }
      conn.cork_offset = conn.corked.front().size - cursor->iov_len;
      if (!conn.want_write) {
        conn.want_write = true;
        UpdateInterestLocked(conn);
      }
      break;
    }
    case SendResult::kClosed:
      conn.writable = false;
      conn.corked.clear();
      conn.cork_offset = 0;
      if (conn.want_write) {
        conn.want_write = false;
        UpdateInterestLocked(conn);
      }
      break;
  }
  return result;
}

void WalkServer::WriteReady(EventLoop& loop, const std::shared_ptr<Connection>& conn) {
  ServerMetrics::Get().epollout_resumptions.Add(1);
  SendResult result;
  bool retire = false;
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    result = DrainCorkLocked(*conn);
    retire = result == SendResult::kDone && ShouldRetireLocked(*conn);
  }
  if (result == SendResult::kClosed || retire) {
    TeardownConnection(loop, conn);
  }
}

void WalkServer::CorkErrorEvent(EventLoop& loop, const std::shared_ptr<Connection>& conn,
                                uint64_t tag, WireErrorCode code, const std::string& message) {
  auto frame = std::make_shared<std::vector<uint8_t>>();
  AppendErrorFrame(*frame, {tag, code, message});
  CorkFrameEvent(loop, conn, std::move(frame));
}

void WalkServer::CorkFrameEvent(EventLoop& loop, const std::shared_ptr<Connection>& conn,
                                std::shared_ptr<std::vector<uint8_t>> frame) {
  ServerMetrics::Get().cork_bytes.Add(frame->size());
  bool teardown = false;
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (!conn->writable) {
      return;
    }
    conn->corked.push_back({frame->data(), frame->size(), std::move(frame)});
    teardown = DrainCorkLocked(*conn) == SendResult::kClosed;
  }
  if (teardown) {
    TeardownConnection(loop, conn);
  }
}

void WalkServer::HandleStatsRequest(EventLoop& loop, const std::shared_ptr<Connection>& conn,
                                    uint64_t tag) {
  ServerMetrics::Get().stats_requests.Add(1);
  auto frame = std::make_shared<std::vector<uint8_t>>();
  AppendStatsResponseFrame(*frame, {tag, obs::MetricsRegistry::Global().RenderPrometheusText()});
  CorkFrameEvent(loop, conn, std::move(frame));
}

WalkServer::FrameProgress WalkServer::ProcessFrames(EventLoop& loop,
                                                    const std::shared_ptr<Connection>& conn) {
  obs::TraceRing& trace = obs::TraceRing::Global();
  for (;;) {
    WireFrame frame;
    uint64_t decode_start_us = trace.enabled() ? obs::NowMicros() : 0;
    DecodeStatus status = conn->decoder.Next(frame);
    if (status == DecodeStatus::kNeedMore) {
      return FrameProgress::kNeedMore;
    }
    if (status == DecodeStatus::kFrame) {
      ServerMetrics::Get().frames_decoded.Add(1);
      if (trace.enabled()) {
        trace.Record("decode", frame.type == FrameType::kStatsRequest ? frame.stats_request.tag
                                                                      : frame.request.tag,
                     frame.request.workload_id, decode_start_us, obs::NowMicros());
      }
    }
    if (status == DecodeStatus::kFrame && frame.type == FrameType::kStatsRequest) {
      HandleStatsRequest(loop, conn, frame.stats_request.tag);
      if (!conn->open) {
        return FrameProgress::kStopReading;
      }
      continue;
    }
    if (status == DecodeStatus::kMalformed || frame.type != FrameType::kRequest) {
      frames_malformed_.fetch_add(1, std::memory_order_relaxed);
      ServerMetrics::Get().frames_malformed.Add(1);
      CorkErrorEvent(loop, conn, 0, WireErrorCode::kMalformedFrame,
                     "undecodable frame; closing connection");
      // The byte stream is desynced for good: never read again, deliver
      // whatever is corked (the error, plus earlier requests' responses as
      // they complete), then retire.
      bool retire = false;
      if (conn->open) {
        std::lock_guard<std::mutex> lock(conn->write_mutex);
        conn->peer_eof = true;
        if (conn->want_read) {
          conn->want_read = false;
          UpdateInterestLocked(*conn);
        }
        retire = ShouldRetireLocked(*conn);
      }
      ::shutdown(conn->fd, SHUT_RD);
      if (retire) {
        TeardownConnection(loop, conn);
      }
      return FrameProgress::kStopReading;
    }
    uint64_t admit_start_us = trace.enabled() ? obs::NowMicros() : 0;
    uint64_t request_tag = frame.request.tag;
    uint32_t request_workload = frame.request.workload_id;
    HandleStatus handled = HandleRequest(loop, conn, frame.request);
    if (trace.enabled()) {
      trace.Record("admit", request_tag, request_workload, admit_start_us, obs::NowMicros());
    }
    if (handled == HandleStatus::kWouldBlock) {
      return FrameProgress::kParked;
    }
    if (!conn->open) {
      return FrameProgress::kStopReading;
    }
  }
}

void WalkServer::ReadReady(EventLoop& loop, const std::shared_ptr<Connection>& conn,
                           uint32_t events) {
  if (events & EPOLLERR) {
    TeardownConnection(loop, conn);
    return;
  }
  if (conn->parked.has_value()) {
    // EPOLLIN interest is off; only a fully dead peer gets us here.
    if (events & EPOLLHUP) {
      TeardownConnection(loop, conn);
    }
    return;
  }
  bool reading;
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    reading = conn->want_read;
  }
  if (!reading) {
    // Read side already retired (peer half-close or malformed close).
    // EPOLLHUP means the peer is gone entirely — nothing corked can be
    // delivered, so drop the connection now.
    if (events & EPOLLHUP) {
      TeardownConnection(loop, conn);
    }
    return;
  }
  for (;;) {
    ssize_t n = ::recv(conn->fd, loop.chunk.data(), loop.chunk.size(), 0);
    if (n < 0 && errno == EINTR) {
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return;
    }
    if (n < 0) {
      TeardownConnection(loop, conn);
      return;
    }
    if (n == 0) {
      // Peer half-closed: stop reading, but deliver every response still
      // owed.
      bool retire;
      {
        std::lock_guard<std::mutex> lock(conn->write_mutex);
        conn->peer_eof = true;
        if (conn->want_read) {
          conn->want_read = false;
          UpdateInterestLocked(*conn);
        }
        retire = ShouldRetireLocked(*conn);
      }
      if (retire) {
        TeardownConnection(loop, conn);
      }
      return;
    }
    conn->recv_us = obs::NowMicros();  // deadline anchor for these frames
    conn->decoder.Append(loop.chunk.data(), static_cast<size_t>(n));
    if (ProcessFrames(loop, conn) != FrameProgress::kNeedMore) {
      return;
    }
  }
}

void WalkServer::HandleUnpark(EventLoop& loop, const std::shared_ptr<Connection>& conn) {
  if (!conn->open || !conn->parked.has_value()) {
    return;  // torn down meanwhile, or a stale wakeup — nothing parked
  }
  ParkedRequest request = std::move(*conn->parked);
  conn->parked.reset();
  if (request.deadline.at_us != 0 && request.deadline.at_us <= obs::NowMicros()) {
    // Lapsed while parked: answer kDeadlineExceeded instead of admitting a
    // walk whose requester already gave up.
    AnswerParkedExpired(loop, conn, std::move(request));
    return;
  }
  if (TryAdmit(loop, conn, *workloads_[request.workload_id], request) ==
      BatchCoalescer::AdmitStatus::kWouldBlock) {
    conn->parked = std::move(request);
    return;  // still no space; the registered entry gets the next wakeup
  }
  if (!conn->open) {
    return;  // the rejection's error write found the peer gone
  }
  // Admitted (or rejected with the connection still up): resume reading.
  ResumeReads(loop, conn);
}

void WalkServer::ShutdownReads(EventLoop& loop) {
  if (&loop == loops_[0].get() && listener_registered_) {
    ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, listen_fd_, nullptr);
    listener_registered_ = false;
  }
  std::vector<std::shared_ptr<Connection>> conns;
  conns.reserve(loop.conns.size());
  for (auto& [fd, conn] : loop.conns) {
    conns.push_back(conn);
  }
  for (auto& conn : conns) {
    if (conn->parked.has_value()) {
      // Never admitted, so no slot to release — answer and drop it.
      ParkedRequest request = std::move(*conn->parked);
      conn->parked.reset();
      CorkErrorEvent(loop, conn, request.tag, WireErrorCode::kShuttingDown,
                     "server shutting down");
      if (!conn->open) {
        continue;
      }
    }
    bool retire;
    {
      std::lock_guard<std::mutex> lock(conn->write_mutex);
      conn->peer_eof = true;
      if (conn->want_read) {
        conn->want_read = false;
        UpdateInterestLocked(*conn);
      }
      retire = ShouldRetireLocked(*conn);
    }
    ::shutdown(conn->fd, SHUT_RD);
    if (retire) {
      TeardownConnection(loop, conn);
    }
  }
}

void WalkServer::TeardownConnection(EventLoop& loop, const std::shared_ptr<Connection>& conn) {
  if (!conn->open) {
    return;
  }
  conn->open = false;
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    conn->writable = false;
    conn->corked.clear();
    conn->cork_offset = 0;
    if (conn->registered) {
      ::epoll_ctl(loop.epoll_fd, EPOLL_CTL_DEL, conn->fd, nullptr);
      conn->registered = false;
    }
  }
  ::shutdown(conn->fd, SHUT_RDWR);
  conn->parked.reset();
  loop.conns.erase(conn->fd);
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    std::erase(connections_, conn);
  }
  // The fd itself closes in ~Connection once the last straggling response
  // callback lets go of its shared_ptr — never while anyone could write.
}

// ---------------------------------------------------------------------------
// Response path
// ---------------------------------------------------------------------------

void WalkServer::Cork(const std::shared_ptr<Connection>& conn, CorkEntry entry) {
  ServerMetrics::Get().cork_bytes.Add(entry.size);
  bool newly_dirty = false;
  {
    std::lock_guard<std::mutex> lock(conn->write_mutex);
    if (!conn->writable) {
      return;
    }
    newly_dirty = conn->corked.empty();
    conn->corked.push_back(std::move(entry));
  }
  if (newly_dirty) {
    std::lock_guard<std::mutex> lock(corked_mutex_);
    corked_connections_.push_back(conn);
  }
}

void WalkServer::FlushCorkedWrites() {
  obs::TraceRing& trace = obs::TraceRing::Global();
  uint64_t flush_start_us = trace.enabled() ? obs::NowMicros() : 0;
  std::vector<std::shared_ptr<Connection>> dirty;
  {
    std::lock_guard<std::mutex> lock(corked_mutex_);
    dirty.swap(corked_connections_);
  }
  // Nonblocking drain: a partial send leaves the remainder corked with
  // EPOLLOUT armed, so a slow client stalls only itself — this runner
  // thread moves straight on to the next connection.
  for (const auto& conn : dirty) {
    SendResult result;
    bool retire = false;
    {
      std::lock_guard<std::mutex> lock(conn->write_mutex);
      if (conn->corked.empty() && !conn->peer_eof) {
        continue;  // EPOLLOUT drained it between cork and flush
      }
      result = DrainCorkLocked(*conn);
      retire = result == SendResult::kDone && ShouldRetireLocked(*conn);
    }
    if (result == SendResult::kClosed || retire) {
      // Teardown is loop-thread work (conns map, epoll membership).
      PostCommand(conn->loop, {Command::kTeardown, conn});
    }
  }
  // Recorded after the sends, so the span is the socket-write stage.
  if (trace.enabled() && !dirty.empty()) {
    trace.Record("flush", 0, 0, flush_start_us, obs::NowMicros());
  }
}

// ---------------------------------------------------------------------------
// Stop
// ---------------------------------------------------------------------------

void WalkServer::BeginDrain(std::chrono::milliseconds grace) {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) {
    return;
  }
  uint64_t drain_start_us = obs::NowMicros();
  if (started_ && !stopping_.load()) {
    // Stop accepting. Connections keep reading — their new requests are
    // answered kDraining by HandleRequest — and everything already admitted
    // keeps completing through the still-running loops.
    ::shutdown(listen_fd_, SHUT_RDWR);
    auto grace_deadline = std::chrono::steady_clock::now() + grace;
    for (;;) {
      bool busy = false;
      for (auto& workload : workloads_) {
        if (workload->coalescer->outstanding_queries() > 0) {
          busy = true;
          break;
        }
      }
      if (!busy) {
        // Admitted queries are done; their responses may still be corked
        // behind slow readers — those count as undrained work too.
        std::lock_guard<std::mutex> lock(connections_mutex_);
        for (auto& conn : connections_) {
          std::lock_guard<std::mutex> wl(conn->write_mutex);
          if (conn->writable && !conn->corked.empty()) {
            busy = true;
            break;
          }
        }
      }
      if (!busy || std::chrono::steady_clock::now() >= grace_deadline) {
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  obs::MetricsRegistry::Global()
      .GetGauge("flexi_drain_duration_ms")
      .Set(static_cast<int64_t>((obs::NowMicros() - drain_start_us) / 1000));
  // Grace spent (or nothing was left): the full teardown. Anything still
  // running is now on Stop()'s much shorter leash — this is the hard stop.
  Stop();
}

void WalkServer::Stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    return;
  }
  if (!started_) {
    for (auto& workload : workloads_) {
      workload->coalescer->Shutdown();
    }
    return;
  }
  // 1. Stop accepting and reading: the loops retire read interest on every
  // connection (parked requests get kShuttingDown) but stay alive to drive
  // EPOLLOUT drains.
  ::shutdown(listen_fd_, SHUT_RDWR);
  for (size_t i = 0; i < loops_.size(); ++i) {
    PostCommand(i, {Command::kShutdownReads, nullptr});
  }
  // 2. Drain every workload: admitted requests complete; their callbacks
  // cork responses and the batch hooks flush them (partial sends resume via
  // the still-running loops).
  for (auto& workload : workloads_) {
    workload->coalescer->Shutdown();
  }
  // 3. Bounded grace for slow readers to take the last corked bytes.
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    bool pending = false;
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      for (auto& conn : connections_) {
        std::lock_guard<std::mutex> wl(conn->write_mutex);
        if (conn->writable && !conn->corked.empty()) {
          pending = true;
          break;
        }
      }
    }
    if (!pending || std::chrono::steady_clock::now() >= deadline) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // 4. Stop the loops, then tear down whatever connections remain.
  for (size_t i = 0; i < loops_.size(); ++i) {
    PostCommand(i, {Command::kStop, nullptr});
  }
  for (auto& loop : loops_) {
    if (loop->thread.joinable()) {
      loop->thread.join();
    }
  }
  for (auto& loop : loops_) {
    {
      std::lock_guard<std::mutex> lock(loop->mutex);
      loop->stopped = true;
    }
    for (auto& [fd, conn] : loop->conns) {
      std::lock_guard<std::mutex> wl(conn->write_mutex);
      conn->writable = false;
      conn->corked.clear();
      conn->registered = false;
      ::shutdown(fd, SHUT_RDWR);
    }
    loop->conns.clear();
    ::close(loop->epoll_fd);
    ::close(loop->wake_fd);
  }
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.clear();
  }
  ::close(listen_fd_);
  listen_fd_ = -1;
}

}  // namespace flexi
