// Deadline-aware serving (ctest -L robustness): the three shedding stages
// (decode / flush / mid-run cancellation), the bit-identity contract of
// cooperative cancellation (a cancelled batch never perturbs later batches'
// paths or ids), client request timeouts with retry classification, and
// graceful drain. docs/SERVING.md "Deadlines, retries, and drain" is the
// prose contract this enforces.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/graph/generators.h"
#include "src/net/batch_coalescer.h"
#include "src/net/walk_client.h"
#include "src/net/walk_server.h"
#include "src/net/wire.h"
#include "src/obs/metrics.h"
#include "src/sampling/inverse_transform.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walker/path_arena.h"
#include "src/walker/walk_service.h"
#include "src/walks/node2vec.h"

namespace flexi {
namespace {

Graph TestGraph() {
  Graph g = GenerateErdosRenyi(256, 8.0, 71);
  AssignWeights(g, WeightDistribution::kUniform, 0.0, 72);
  return g;
}

StepKernel ItsStep() {
  return [](const WalkContext& ctx, const WalkLogic& l, const QueryState& q, KernelRng& rng) {
    return InverseTransformStep(ctx, l, q, rng);
  };
}

WalkService::Options ItsOptions(uint64_t seed, unsigned threads = 4) {
  WalkService::Options options;
  options.seed = seed;
  options.scheduler.num_threads = threads;
  return options;
}

std::vector<NodeId> Range(NodeId begin, NodeId end) {
  std::vector<NodeId> starts;
  for (NodeId v = begin; v < end; ++v) {
    starts.push_back(v);
  }
  return starts;
}

// A served FlexiWalker stack mirroring net_test's ServedStack, with the
// walk length configurable so the mid-run cancellation test can make a
// batch genuinely long-running.
struct DeadlineStack {
  Graph graph;
  Node2VecWalk walk;
  FlexiWalkerOptions engine_options;
  std::unique_ptr<WalkService> service;
  std::unique_ptr<WalkServer> server;

  explicit DeadlineStack(double coalesce_ms, BatchCoalescer::Options coalescer_extra = {},
                         WalkServer::Options server_base = {}, uint32_t walk_length = 12)
      : walk(2.0, 0.5, walk_length) {
    graph = TestGraph();
    engine_options.edge_cost_ratio = 4.0;  // pin the selector: no profiling noise
    engine_options.host_threads = 4;
    service = MakeFlexiWalkerService(graph, walk, engine_options, /*seed=*/99,
                                     /*pipeline_depth=*/1);
    WalkServer::Options server_options = server_base;
    server_options.port = 0;
    server_options.backlog = 64;
    server_options.coalescer = coalescer_extra;
    server_options.coalescer.max_delay_ms = coalesce_ms;
    server.reset(new WalkServer(*service, graph.num_nodes(), server_options));
    std::string error;
    EXPECT_TRUE(server->Start(&error)) << error;
  }

  ~DeadlineStack() { server->Stop(); }
};

void ExpectOutstandingDrains(const BatchCoalescer& coalescer,
                             std::chrono::seconds deadline = std::chrono::seconds(10)) {
  auto give_up = std::chrono::steady_clock::now() + deadline;
  while (coalescer.outstanding_queries() != 0) {
    if (std::chrono::steady_clock::now() > give_up) {
      FAIL() << "coalescer still holds " << coalescer.outstanding_queries()
             << " outstanding queries after a shed";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SUCCEED();
}

// ------------------------------------------------------------ decode shed --

TEST(DeadlineShedding, ExpiredAtDecodeIsRejectedBeforeAdmission) {
  BatchCoalescer::Options coalescer;
  coalescer.max_outstanding_queries = 8;
  coalescer.overflow = BatchCoalescer::OverflowPolicy::kBlock;
  DeadlineStack stack(/*coalesce_ms=*/80.0, coalescer);
  obs::Counter& decode_sheds = obs::MetricsRegistry::Global().GetCounter(
      obs::WithLabel("flexi_requests_deadline_exceeded_total", "stage", "decode"));
  uint64_t decode_sheds_before = decode_sheds.Value();

  // One send carrying three pipelined frames. The first fills the admission
  // bound; the second (deadline-free) parks on the full quota, and the
  // connection stops reading until the first batch completes. The third
  // arrived in the same send but is decoded only after the unpark, and its
  // 20 ms budget — anchored at recv, when its bytes actually arrived — is
  // long gone by then, so it must be shed at decode, before admission.
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(stack.server->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);

  std::vector<uint8_t> bytes;
  AppendRequestFrame(bytes, {1, 0, Range(0, 8)});
  AppendRequestFrame(bytes, {2, 0, {1}});
  WireRequest late{3, 0, {2}};
  late.deadline_us = 20'000;
  AppendRequestFrame(bytes, late);
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0), static_cast<ssize_t>(bytes.size()));

  std::map<uint64_t, WireFrame> answers;
  FrameDecoder decoder;
  std::vector<uint8_t> chunk(64 << 10);
  while (answers.size() < 3) {
    ssize_t n = ::recv(fd, chunk.data(), chunk.size(), 0);
    ASSERT_GT(n, 0) << "server closed before answering all three requests";
    decoder.Append(chunk.data(), static_cast<size_t>(n));
    WireFrame frame;
    while (decoder.Next(frame) == DecodeStatus::kFrame) {
      uint64_t tag = frame.type == FrameType::kError ? frame.error.tag : frame.response.tag;
      answers.emplace(tag, std::move(frame));
    }
  }
  ::close(fd);

  EXPECT_EQ(answers[1].type, FrameType::kResponse);
  EXPECT_EQ(answers[2].type, FrameType::kResponse);
  ASSERT_EQ(answers[3].type, FrameType::kError);
  EXPECT_EQ(answers[3].error.code, WireErrorCode::kDeadlineExceeded);
  EXPECT_EQ(decode_sheds.Value() - decode_sheds_before, 1u);
  ExpectOutstandingDrains(stack.server->coalescer());
}

// ------------------------------------------------------------- flush shed --

TEST(DeadlineShedding, LapsedAtFlushIsShedAndSurvivorsStayBitIdentical) {
  DeadlineStack stack(/*coalesce_ms=*/150.0);
  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));

  // Both requests land in the same pending window; the first's 30 ms budget
  // lapses long before the 150 ms flush, so the runner drops it — and
  // because a flush-shed member never consumed global query ids, the
  // survivor's rows must equal a one-shot engine run over the survivor's
  // starts alone.
  std::future<WalkClient::Result> doomed =
      client.Submit(Range(5, 7), /*workload_id=*/0, /*deadline_us=*/30'000);
  std::vector<NodeId> survivor_starts = Range(40, 45);
  std::future<WalkClient::Result> survivor = client.Submit(survivor_starts);

  try {
    doomed.get();
    FAIL() << "a request whose deadline lapses in the pending window must be shed at flush";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kDeadlineExceeded);
  }
  WalkClient::Result survived = survivor.get();
  EXPECT_EQ(survived.first_query_id, 0u);  // the shed request consumed no ids
  WalkResult reference =
      FlexiWalkerEngine(stack.engine_options).Run(stack.graph, stack.walk, survivor_starts, 99);
  EXPECT_EQ(survived.paths, reference.paths);

  // The shed is visible through the stats frame, stage-labeled.
  std::string stats = client.FetchStats();
  EXPECT_NE(stats.find("flexi_requests_deadline_exceeded_total"), std::string::npos);
  EXPECT_NE(stats.find("stage=\"flush\""), std::string::npos);
  client.Close();
  ExpectOutstandingDrains(stack.server->coalescer());
}

// ----------------------------------------------------- mid-run cancellation --

TEST(DeadlineShedding, AllDeadlinedBatchIsCancelledMidRun) {
  // A genuinely long batch: 4000-step node2vec over 1024 queries takes far
  // longer than the 15 ms budget, so the request survives decode and flush
  // (window 0: it flushes immediately) and must be cancelled cooperatively
  // mid-run.
  DeadlineStack stack(/*coalesce_ms=*/0.0, {}, {}, /*walk_length=*/4000);
  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));

  std::vector<NodeId> starts;
  for (NodeId i = 0; i < 1024; ++i) {
    starts.push_back(i % stack.graph.num_nodes());
  }
  auto begin = std::chrono::steady_clock::now();
  try {
    client.Walk(std::move(starts), /*workload_id=*/0, /*deadline_us=*/15'000);
    FAIL() << "a batch whose every member's deadline lapsed mid-run must not complete";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kDeadlineExceeded);
  }
  auto elapsed = std::chrono::steady_clock::now() - begin;
  // The answer arrives at the deadline (plus one pass-boundary poll), not
  // after the full walk. Minutes of slack for sanitizer builds — the point
  // is it cannot be the uncancelled completion.
  EXPECT_LT(elapsed, std::chrono::seconds(30));

  // The server stays healthy: cancellation released every admission slot,
  // and a fresh deadline-free request completes normally.
  EXPECT_EQ(client.Walk({1}).num_queries, 1u);
  std::string stats = client.FetchStats();
  EXPECT_NE(stats.find("flexi_batches_cancelled_total"), std::string::npos);
  client.Close();
  ExpectOutstandingDrains(stack.server->coalescer());
}

// ----------------------------------------------------- cancellation parity --

TEST(Cancellation, CancelledBatchLeavesLaterBatchesBitIdentical) {
  // Global query ids are consumed at claim; cancellation truncates
  // delivery only. A service that cancelled its first batch must produce
  // later batches bit-identical to a service that ran the first to the
  // end — and an armed deadline that never fires must not change a draw.
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 10);
  WalkService reference(graph, walk, ItsOptions(42), ItsStep());
  BatchResult ref_first = reference.Submit({Range(0, 64)}).get();
  BatchResult ref_second = reference.Submit({Range(64, 128)}).get();
  BatchResult ref_third = reference.Submit({Range(128, 192)}).get();

  // NowMicros() reads 0 on its first call in a process, and a 0 deadline
  // means "never": start the clock and let it tick before taking a
  // deadline that has already passed when the run begins.
  obs::NowMicros();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  uint64_t past_us = obs::NowMicros();
  ASSERT_GT(past_us, 0u);

  WalkService cancelled_service(graph, walk, ItsOptions(42), ItsStep());
  PathArena arena(64, cancelled_service.path_stride());
  std::vector<NodeId> first_starts = Range(0, 64);
  BatchResult first = cancelled_service.RunClaimed(cancelled_service.ClaimQueryIds(64),
                                                   first_starts, arena.view(), past_us);
  EXPECT_EQ(first.first_query_id, ref_first.first_query_id);
  BatchResult second = cancelled_service.Submit({Range(64, 128)}).get();
  EXPECT_EQ(second.first_query_id, ref_second.first_query_id);
  EXPECT_EQ(second.walk.paths, ref_second.walk.paths);

  std::vector<NodeId> third_starts = Range(128, 192);
  uint64_t far_future_us = obs::NowMicros() + 3'600'000'000ull;
  BatchResult third = cancelled_service.RunClaimed(cancelled_service.ClaimQueryIds(64),
                                                   third_starts, {}, far_future_us);
  EXPECT_EQ(third.first_query_id, ref_third.first_query_id);
  EXPECT_EQ(third.walk.paths, ref_third.walk.paths);
}

// --------------------------------------------------------- client timeouts --

TEST(ClientRetry, RequestTimeoutFiresAndRetriesAreCounted) {
  // An accept-only listener: connections succeed, requests are never
  // answered — every attempt must fail on the client's own timer.
  int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  ASSERT_EQ(::listen(listener, 4), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len), 0);
  uint16_t port = ntohs(addr.sin_port);

  WalkClient::Options options;
  options.request_timeout_ms = 50;
  options.max_retries = 2;
  options.backoff.base_ms = 20;
  options.backoff.max_ms = 40;
  WalkClient client(options);
  ASSERT_TRUE(client.Connect("127.0.0.1", port));
  auto begin = std::chrono::steady_clock::now();
  EXPECT_THROW(client.Walk({1}), RequestTimeoutError);
  auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - begin);
  EXPECT_EQ(client.retries_attempted(), 2u);
  // 3 attempts x 50 ms timer, plus two jittered backoffs whose floors are
  // 10 and 20 ms: anything faster means a timer or a backoff never ran.
  EXPECT_GE(elapsed.count(), 170);
  client.Close();
  ::close(listener);
}

TEST(ClientRetry, PermanentErrorsAreNeverRetried) {
  DeadlineStack stack(/*coalesce_ms=*/0.5);
  WalkClient::Options options;
  options.max_retries = 3;
  options.backoff.base_ms = 1;
  WalkClient client(options);
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  try {
    client.Walk({stack.graph.num_nodes() + 7});
    FAIL() << "an out-of-range start must fail";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kNodeOutOfRange);
  }
  // Re-sending identical bytes reproduces the identical answer; retrying a
  // permanent error would only multiply load, so none may have run.
  EXPECT_EQ(client.retries_attempted(), 0u);
  // The connection survives the error and serves the next request.
  EXPECT_EQ(client.Walk({2}).num_queries, 1u);
  client.Close();
}

// ------------------------------------------------------------------- drain --

TEST(Drain, BeginDrainRejectsNewRequestsAndFinishesAdmittedWork) {
  DeadlineStack stack(/*coalesce_ms=*/200.0);
  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  std::future<WalkClient::Result> admitted = client.Submit(Range(0, 4));
  // Let the admitted request reach the coalescer's pending window before
  // the drain begins; it sits there until the 200 ms flush.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  std::thread drainer([&] { stack.server->BeginDrain(std::chrono::seconds(10)); });
  while (!stack.server->draining()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // New requests on existing connections are answered kDraining...
  std::future<WalkClient::Result> rejected = client.Submit({1});
  try {
    rejected.get();
    FAIL() << "a request submitted during drain must be rejected";
  } catch (const ServerError& e) {
    EXPECT_EQ(e.code(), WireErrorCode::kDraining);
  }
  // ...while already-admitted work runs to completion and is delivered.
  EXPECT_EQ(admitted.get().num_queries, 4u);
  drainer.join();
  EXPECT_TRUE(stack.server->draining());
  client.Close();
}

}  // namespace
}  // namespace flexi
