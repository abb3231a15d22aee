// Tests for the network serving subsystem (src/net/): wire-protocol
// round-trips and rejection of truncated/oversized/garbage/retired-layout
// frames, the BatchCoalescer's merge/flush/backpressure semantics, and the
// end-to-end
// server <-> client contract — paths served over the socket are
// bit-identical to a one-shot engine run over the same starts and seed,
// regardless of coalesce window or pipeline depth (the walk_service_test
// determinism contract extended across TCP).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <future>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "src/graph/generators.h"
#include "src/net/batch_coalescer.h"
#include "src/net/socket_util.h"
#include "src/net/walk_client.h"
#include "src/net/walk_server.h"
#include "src/net/wire.h"
#include "src/obs/trace.h"
#include "src/sampling/inverse_transform.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walker/walk_service.h"
#include "src/walks/node2vec.h"

namespace flexi {
namespace {

// ---------------------------------------------------------------- wire ----

// Request frames the wire tests feed through every check: the default
// workload with no deadline, and a routed request carrying a deadline.
std::vector<WireRequest> SampleRequests() {
  WireRequest plain{0xDEADBEEFCAFEull, 0, {0, 7, 42, 0xFFFFFFFEu}};
  WireRequest routed{7, 3, {10, 11, 12, 13}};
  routed.deadline_us = 250'000;
  return {plain, routed};
}

TEST(Wire, RequestRoundTrip) {
  for (const WireRequest& request : SampleRequests()) {
    SCOPED_TRACE("tag " + std::to_string(request.tag));
    std::vector<uint8_t> bytes;
    AppendRequestFrame(bytes, request);
    // Header = u32 magic + u32 payload_len; the payload leads with the type.
    EXPECT_EQ(bytes[8], static_cast<uint8_t>(FrameType::kRequest));
    EXPECT_EQ(bytes.size(), 8 + 25 + 4 * request.starts.size());

    WireFrame frame;
    size_t consumed = 0;
    ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), kDefaultMaxFramePayload, frame, consumed),
              DecodeStatus::kFrame);
    EXPECT_EQ(consumed, bytes.size());
    ASSERT_EQ(frame.type, FrameType::kRequest);
    EXPECT_EQ(frame.request.tag, request.tag);
    EXPECT_EQ(frame.request.workload_id, request.workload_id);
    EXPECT_EQ(frame.request.deadline_us, request.deadline_us);
    EXPECT_EQ(frame.request.starts, request.starts);
  }
}

TEST(Wire, ResponseRoundTrip) {
  WireResponse response;
  response.tag = 3;
  response.first_query_id = 1ull << 40;
  response.path_stride = 4;
  response.num_queries = 2;
  response.paths = {1, 2, 3, kInvalidNode, 9, 8, 7, 6};
  std::vector<uint8_t> bytes;
  AppendResponseFrame(bytes, response);

  WireFrame frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), kDefaultMaxFramePayload, frame, consumed),
            DecodeStatus::kFrame);
  ASSERT_EQ(frame.type, FrameType::kResponse);
  EXPECT_EQ(frame.response.tag, 3u);
  EXPECT_EQ(frame.response.first_query_id, 1ull << 40);
  EXPECT_EQ(frame.response.path_stride, 4u);
  EXPECT_EQ(frame.response.num_queries, 2u);
  EXPECT_EQ(frame.response.paths, response.paths);
}

TEST(Wire, ErrorRoundTrip) {
  WireError error{77, WireErrorCode::kOverloaded, "admission queue full"};
  std::vector<uint8_t> bytes;
  AppendErrorFrame(bytes, error);

  WireFrame frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), kDefaultMaxFramePayload, frame, consumed),
            DecodeStatus::kFrame);
  ASSERT_EQ(frame.type, FrameType::kError);
  EXPECT_EQ(frame.error.tag, 77u);
  EXPECT_EQ(frame.error.code, WireErrorCode::kOverloaded);
  EXPECT_EQ(frame.error.message, "admission queue full");
}

TEST(Wire, TruncatedFramesNeedMoreAtEveryPrefix) {
  for (const WireRequest& request : SampleRequests()) {
    std::vector<uint8_t> bytes;
    AppendRequestFrame(bytes, request);
    for (size_t prefix = 0; prefix < bytes.size(); ++prefix) {
      WireFrame frame;
      size_t consumed = 0;
      EXPECT_EQ(DecodeFrame(bytes.data(), prefix, kDefaultMaxFramePayload, frame, consumed),
                DecodeStatus::kNeedMore)
          << "tag " << request.tag << " prefix " << prefix;
    }
  }
}

TEST(Wire, GarbageIsMalformedNotCrash) {
  // ASCII garbage (an HTTP request aimed at the wrong port) and random-ish
  // bytes must both be rejected without ever decoding a frame.
  const char* garbage = "GET / HTTP/1.1\r\nHost: x\r\n\r\n";
  WireFrame frame;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(reinterpret_cast<const uint8_t*>(garbage), std::strlen(garbage),
                        kDefaultMaxFramePayload, frame, consumed),
            DecodeStatus::kMalformed);

  std::vector<uint8_t> noise(256);
  for (size_t i = 0; i < noise.size(); ++i) {
    noise[i] = static_cast<uint8_t>(i * 37 + 11);
  }
  EXPECT_EQ(DecodeFrame(noise.data(), noise.size(), kDefaultMaxFramePayload, frame, consumed),
            DecodeStatus::kMalformed);
}

TEST(Wire, OversizedDeclaredPayloadIsMalformed) {
  WireRequest request{1, 0, {2, 3}};
  std::vector<uint8_t> bytes;
  AppendRequestFrame(bytes, request);
  WireFrame frame;
  size_t consumed = 0;
  // The same valid frame decoded under a tiny ceiling must be rejected
  // before any allocation happens.
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), /*max_payload=*/8, frame, consumed),
            DecodeStatus::kMalformed);
}

TEST(Wire, LengthCountMismatchIsMalformed) {
  for (const WireRequest& request : SampleRequests()) {
    std::vector<uint8_t> bytes;
    AppendRequestFrame(bytes, request);
    // Claim one more start than the payload holds: the exact-length check
    // must reject instead of reading past the buffer.
    constexpr size_t kCountOffset = 8 + 1 + 8 + 4 + 8;  // header, type, tag, workload, deadline
    bytes[kCountOffset] = static_cast<uint8_t>(request.starts.size() + 1);
    WireFrame frame;
    size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), kDefaultMaxFramePayload, frame, consumed),
              DecodeStatus::kMalformed)
        << "tag " << request.tag;
  }
}

// A well-formed frame in one of the retired request layouts: type 1
// (tag | count | starts) or type 4 (tag | workload_id | count | starts).
std::vector<uint8_t> RetiredRequestFrame(uint8_t type, uint64_t tag,
                                         const std::vector<NodeId>& starts) {
  std::vector<uint8_t> bytes;
  auto put = [&bytes](uint64_t value, int width) {
    for (int i = 0; i < width; ++i) {
      bytes.push_back(static_cast<uint8_t>(value >> (8 * i)));
    }
  };
  size_t fields = type == 4 ? 4 : 0;  // type 4's workload_id
  put(kWireMagic, 4);
  put(1 + 8 + fields + 4 + 4 * starts.size(), 4);
  put(type, 1);
  put(tag, 8);
  if (type == 4) {
    put(/*workload_id=*/1, 4);
  }
  put(starts.size(), 4);
  for (NodeId start : starts) {
    put(start, 4);
  }
  return bytes;
}

TEST(Wire, RetiredRequestTypesAreMalformed) {
  for (uint8_t type : {1, 4}) {
    std::vector<uint8_t> bytes = RetiredRequestFrame(type, 5, {1, 2});
    WireFrame frame;
    size_t consumed = 0;
    EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), kDefaultMaxFramePayload, frame, consumed),
              DecodeStatus::kMalformed)
        << "type " << int{type};
  }
}

TEST(Wire, UnknownFrameTypeIsMalformed) {
  WireRequest request{1, 0, {2}};
  std::vector<uint8_t> bytes;
  AppendRequestFrame(bytes, request);
  bytes[8] = 0x7F;  // type byte
  WireFrame frame;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(bytes.data(), bytes.size(), kDefaultMaxFramePayload, frame, consumed),
            DecodeStatus::kMalformed);
}

TEST(Wire, FrameDecoderReassemblesByteAtATime) {
  // Three frames dribbled in one byte at a time must come out intact and in
  // order — the socket-fragmentation case.
  std::vector<uint8_t> stream;
  AppendRequestFrame(stream, {1, 0, {10, 11}});
  AppendResponseFrame(stream, {2, 99, 3, 1, {5, 6, 7}});
  AppendErrorFrame(stream, {3, WireErrorCode::kNodeOutOfRange, "nope"});

  FrameDecoder decoder;
  std::vector<WireFrame> frames;
  for (uint8_t byte : stream) {
    decoder.Append(&byte, 1);
    WireFrame frame;
    while (decoder.Next(frame) == DecodeStatus::kFrame) {
      frames.push_back(frame);
    }
  }
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kRequest);
  EXPECT_EQ(frames[0].request.starts, (std::vector<NodeId>{10, 11}));
  EXPECT_EQ(frames[1].type, FrameType::kResponse);
  EXPECT_EQ(frames[1].response.first_query_id, 99u);
  EXPECT_EQ(frames[2].type, FrameType::kError);
  EXPECT_EQ(frames[2].error.message, "nope");
}

// ----------------------------------------------------------- coalescer ----

Graph CoalescerGraph() {
  Graph g = GenerateErdosRenyi(256, 8.0, 71);
  AssignWeights(g, WeightDistribution::kUniform, 0.0, 72);
  return g;
}

StepKernel ItsStep() {
  return [](const WalkContext& ctx, const WalkLogic& l, const QueryState& q, KernelRng& rng) {
    return InverseTransformStep(ctx, l, q, rng);
  };
}

WalkService::Options ItsOptions(uint64_t seed, unsigned threads = 4, unsigned depth = 1) {
  WalkService::Options options;
  options.seed = seed;
  options.scheduler.num_threads = threads;
  options.pipeline_depth = depth;
  return options;
}

std::vector<NodeId> Range(NodeId begin, NodeId end) {
  std::vector<NodeId> starts;
  for (NodeId v = begin; v < end; ++v) {
    starts.push_back(v);
  }
  return starts;
}

using AdmitStatus = BatchCoalescer::AdmitStatus;

// Presents one request through TryEnqueue's lvalue interface.
AdmitStatus Admit(BatchCoalescer& coalescer, std::vector<NodeId> starts,
                  BatchCoalescer::DoneFn done, BatchCoalescer::PlaceFn place = nullptr) {
  return coalescer.TryEnqueue(starts, done, place);
}

TEST(BatchCoalescer, MergesRequestsAndSlicesMatchDirectSubmission) {
  Graph graph = CoalescerGraph();
  Node2VecWalk walk(2.0, 0.5, 10);

  // Coalesced: five requests admitted inside one 100 ms window become one
  // service batch.
  WalkService coalesced_service(graph, walk, ItsOptions(42), ItsStep());
  BatchCoalescer::Options options;
  options.max_delay_ms = 100.0;
  options.max_batch_queries = 1 << 20;
  BatchCoalescer coalescer(coalesced_service, options);

  std::vector<std::pair<NodeId, NodeId>> requests = {{0, 5}, {5, 6}, {6, 30}, {30, 31}, {31, 40}};
  std::vector<std::promise<BatchCoalescer::RequestResult>> done(requests.size());
  std::vector<std::future<BatchCoalescer::RequestResult>> futures;
  for (size_t r = 0; r < requests.size(); ++r) {
    futures.push_back(done[r].get_future());
    ASSERT_EQ(Admit(coalescer, Range(requests[r].first, requests[r].second),
                    [&done, r](BatchCoalescer::RequestResult result) {
                      done[r].set_value(std::move(result));
                    }),
              AdmitStatus::kAdmitted);
  }
  std::vector<BatchCoalescer::RequestResult> results;
  for (auto& future : futures) {
    results.push_back(future.get());
  }
  EXPECT_EQ(coalescer.batches_flushed(), 1u);
  EXPECT_EQ(coalesced_service.batches_completed(), 1u);
  EXPECT_EQ(coalescer.requests_admitted(), requests.size());

  // Reference: the same 40 starts as one direct batch on an identical
  // service. Every request's slice must match its offset range, and its
  // first_query_id must be the offset itself.
  WalkService direct(graph, walk, ItsOptions(42), ItsStep());
  BatchResult reference = direct.Submit({Range(0, 40)}).get();
  uint64_t offset = 0;
  for (size_t r = 0; r < requests.size(); ++r) {
    size_t queries = requests[r].second - requests[r].first;
    EXPECT_EQ(results[r].first_query_id, offset);
    EXPECT_EQ(results[r].num_queries, queries);
    std::vector<NodeId> expected(
        reference.walk.paths.begin() + offset * reference.walk.path_stride,
        reference.walk.paths.begin() + (offset + queries) * reference.walk.path_stride);
    // RequestResult::paths is a zero-copy arena slice; materialize it for
    // the comparison.
    std::vector<NodeId> sliced(results[r].paths.begin(), results[r].paths.end());
    EXPECT_EQ(sliced, expected) << "request " << r;
    offset += queries;
  }
}

TEST(BatchCoalescer, RejectPolicyRefusesWhenAdmissionBoundHit) {
  Graph graph = CoalescerGraph();
  Node2VecWalk walk(2.0, 0.5, 6);
  WalkService service(graph, walk, ItsOptions(7), ItsStep());
  BatchCoalescer::Options options;
  options.max_delay_ms = 200.0;  // the first request stays pending meanwhile
  options.max_outstanding_queries = 8;
  options.overflow = BatchCoalescer::OverflowPolicy::kReject;
  BatchCoalescer coalescer(service, options);

  std::promise<BatchCoalescer::RequestResult> first_done;
  auto first_future = first_done.get_future();
  ASSERT_EQ(Admit(coalescer, Range(0, 8),
                  [&](BatchCoalescer::RequestResult result) {
                    first_done.set_value(std::move(result));
                  }),
            AdmitStatus::kAdmitted);
  // 8 outstanding + 1 > 8: rejected immediately, callback never owed.
  EXPECT_EQ(Admit(coalescer, Range(8, 9),
                  [](BatchCoalescer::RequestResult) {
                    FAIL() << "rejected request must not complete";
                  }),
            AdmitStatus::kRejected);
  EXPECT_EQ(coalescer.requests_rejected(), 1u);

  coalescer.Shutdown();  // flushes the pending window
  BatchCoalescer::RequestResult result = first_future.get();
  EXPECT_EQ(result.num_queries, 8u);
  EXPECT_EQ(result.first_query_id, 0u);
}

TEST(BatchCoalescer, BlockPolicyAnswersWouldBlockAndAdmitsAfterCompletion) {
  Graph graph = CoalescerGraph();
  Node2VecWalk walk(2.0, 0.5, 6);
  WalkService service(graph, walk, ItsOptions(7), ItsStep());
  BatchCoalescer::Options options;
  options.max_delay_ms = 5.0;
  options.max_outstanding_queries = 4;
  options.overflow = BatchCoalescer::OverflowPolicy::kBlock;
  BatchCoalescer coalescer(service, options);
  // The hook runs after a batch's admission slots are released — the
  // moment the server unparks connections.
  std::promise<void> first_batch_done;
  std::atomic<int> batches{0};
  coalescer.SetBatchCompleteHook([&] {
    if (++batches == 1) {
      first_batch_done.set_value();
    }
  });

  std::atomic<int> completed{0};
  ASSERT_EQ(Admit(coalescer, Range(0, 4), [&](BatchCoalescer::RequestResult) { ++completed; }),
            AdmitStatus::kAdmitted);
  // Over the bound: kWouldBlock, with the request left intact for a retry.
  std::vector<NodeId> starts = Range(4, 8);
  BatchCoalescer::DoneFn done = [&](BatchCoalescer::RequestResult) { ++completed; };
  BatchCoalescer::PlaceFn place;
  EXPECT_EQ(coalescer.TryEnqueue(starts, done, place), AdmitStatus::kWouldBlock);
  EXPECT_EQ(starts, Range(4, 8));
  EXPECT_TRUE(done != nullptr);
  EXPECT_EQ(coalescer.requests_rejected(), 0u);
  // The same request is admitted once the first batch has completed.
  first_batch_done.get_future().wait();
  EXPECT_EQ(coalescer.TryEnqueue(starts, done, place), AdmitStatus::kAdmitted);
  coalescer.Shutdown();
  EXPECT_EQ(completed.load(), 2);
  EXPECT_EQ(coalescer.requests_admitted(), 2u);
  EXPECT_EQ(coalescer.requests_rejected(), 0u);
}

TEST(BatchCoalescer, EmptyRequestCompletes) {
  Graph graph = CoalescerGraph();
  Node2VecWalk walk(2.0, 0.5, 4);
  WalkService service(graph, walk, ItsOptions(1), ItsStep());
  BatchCoalescer::Options options;
  options.max_delay_ms = 0.0;
  BatchCoalescer coalescer(service, options);
  std::promise<BatchCoalescer::RequestResult> done;
  auto future = done.get_future();
  ASSERT_EQ(Admit(coalescer, {},
                  [&](BatchCoalescer::RequestResult result) {
                    done.set_value(std::move(result));
                  }),
            AdmitStatus::kAdmitted);
  EXPECT_EQ(future.get().num_queries, 0u);
}

TEST(BatchCoalescer, AdaptiveWindowFlushesSparseTrafficImmediately) {
  // A 10-second window would normally hold every request for 10 s; with the
  // adaptive window on, a cold-start request (the queue has been idle
  // forever) and a request arriving after a gap longer than the window must
  // both flush immediately — sparse traffic pays walk latency, not
  // max_delay_ms. The giant window doubles as the flakiness guard: if the
  // adaptive path failed, the .get() calls below would stall 10 s each.
  Graph graph = CoalescerGraph();
  Node2VecWalk walk(2.0, 0.5, 6);
  WalkService service(graph, walk, ItsOptions(7), ItsStep());
  BatchCoalescer::Options options;
  options.max_delay_ms = 10'000.0;
  options.adaptive_window = true;
  BatchCoalescer coalescer(service, options);

  auto walk_one = [&](NodeId start) {
    std::promise<BatchCoalescer::RequestResult> done;
    auto future = done.get_future();
    EXPECT_EQ(Admit(coalescer, {start},
                    [&done](BatchCoalescer::RequestResult result) {
                      done.set_value(std::move(result));
                    }),
              AdmitStatus::kAdmitted);
    return future.get();
  };
  auto t0 = std::chrono::steady_clock::now();
  walk_one(1);  // cold start: idle-forever counts as sparse
  double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(elapsed_ms, 5'000.0);
  EXPECT_EQ(coalescer.batches_flushed(), 1u);
}

TEST(BatchCoalescer, AdaptiveWindowFlushesPostIdleGapImmediately) {
  // A request arriving after the queue sat idle longer than the window must
  // not wait the window out. With a 1 s window and a 1.2 s idle gap, the
  // adaptive path completes both requests in ~the gap itself; the fixed
  // window would take ~gap + 2 windows (>= 3.2 s), so the 2.4 s bound
  // discriminates with a wide margin on a noisy host.
  Graph graph = CoalescerGraph();
  Node2VecWalk walk(2.0, 0.5, 6);
  WalkService service(graph, walk, ItsOptions(7), ItsStep());
  BatchCoalescer::Options options;
  options.max_delay_ms = 1'000.0;
  options.adaptive_window = true;
  BatchCoalescer coalescer(service, options);

  auto walk_one = [&](NodeId start) {
    std::promise<BatchCoalescer::RequestResult> done;
    auto future = done.get_future();
    EXPECT_EQ(Admit(coalescer, {start},
                    [&done](BatchCoalescer::RequestResult result) {
                      done.set_value(std::move(result));
                    }),
              AdmitStatus::kAdmitted);
    return future.get();
  };
  auto t0 = std::chrono::steady_clock::now();
  walk_one(1);
  std::this_thread::sleep_for(std::chrono::milliseconds(1'200));  // idle > window
  walk_one(2);
  double elapsed_ms =
      std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0).count();
  EXPECT_LT(elapsed_ms, 2'400.0);
  EXPECT_EQ(coalescer.batches_flushed(), 2u);
}

TEST(BatchCoalescer, AdaptiveWindowStillCoalescesDenseTraffic) {
  // After the cold-start flush, back-to-back arrivals must read as dense:
  // the window stays open and the concurrent requests merge exactly as with
  // the fixed window.
  Graph graph = CoalescerGraph();
  Node2VecWalk walk(2.0, 0.5, 6);
  WalkService service(graph, walk, ItsOptions(7), ItsStep());
  BatchCoalescer::Options options;
  options.max_delay_ms = 1'000.0;
  // Size-triggered flush for the dense run, so the test never waits out
  // the window even if a scheduling hiccup misclassifies a request.
  options.max_batch_queries = 4;
  options.adaptive_window = true;
  BatchCoalescer coalescer(service, options);

  std::promise<BatchCoalescer::RequestResult> cold_done;
  auto cold = cold_done.get_future();
  ASSERT_EQ(Admit(coalescer, {1},
                  [&](BatchCoalescer::RequestResult result) {
                    cold_done.set_value(std::move(result));
                  }),
            AdmitStatus::kAdmitted);
  // Wait for the cold FLUSH (not completion): the sparse/dense decision
  // keys off enqueue-to-enqueue gaps, so gating on batches_flushed keeps
  // the dense enqueues' gaps tiny regardless of how long the cold walk
  // itself takes on a loaded host.
  for (int spin = 0; spin < 2000 && coalescer.batches_flushed() == 0; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(coalescer.batches_flushed(), 1u);

  std::vector<std::promise<BatchCoalescer::RequestResult>> done(4);
  std::vector<std::future<BatchCoalescer::RequestResult>> futures;
  for (size_t r = 0; r < done.size(); ++r) {
    futures.push_back(done[r].get_future());
    ASSERT_EQ(Admit(coalescer, {static_cast<NodeId>(r)},
                    [&done, r](BatchCoalescer::RequestResult result) {
                      done[r].set_value(std::move(result));
                    }),
              AdmitStatus::kAdmitted);
  }
  for (auto& future : futures) {
    future.get();
  }
  // Dense run: one window, one merged batch (2 total with the cold start).
  EXPECT_EQ(coalescer.batches_flushed(), 2u);
  cold.get();
}

TEST(BatchCoalescer, RequestResultArenaOutlivesCoalescer) {
  // The zero-copy contract: a RequestResult's path span aliases the rows
  // the workers wrote (here the batch's shared fallback PathArena — no
  // placement was supplied), and the keepalive it carries must keep those
  // rows valid after the batch retires and even after the coalescer itself
  // is destroyed.
  Graph graph = CoalescerGraph();
  Node2VecWalk walk(2.0, 0.5, 8);
  WalkService service(graph, walk, ItsOptions(11), ItsStep());
  BatchCoalescer::RequestResult kept;
  {
    BatchCoalescer::Options options;
    options.max_delay_ms = 0.0;
    BatchCoalescer coalescer(service, options);
    std::promise<BatchCoalescer::RequestResult> done;
    auto future = done.get_future();
    ASSERT_EQ(Admit(coalescer, Range(3, 6),
                    [&](BatchCoalescer::RequestResult result) {
                      done.set_value(std::move(result));
                    }),
              AdmitStatus::kAdmitted);
    kept = future.get();
  }
  ASSERT_EQ(kept.num_queries, 3u);
  ASSERT_TRUE(kept.keepalive != nullptr);
  ASSERT_EQ(kept.paths.size(), 3u * kept.path_stride);
  for (size_t q = 0; q < 3; ++q) {
    EXPECT_EQ(kept.paths[q * kept.path_stride], 3 + q) << "row " << q << " start node";
  }
}

TEST(BatchCoalescer, PlacedRowsMatchFallbackAndDirectSubmission) {
  // Scatter-arena mode: a request that supplies a PlaceFn gets its rows
  // written into caller-owned storage during the walk itself; requests
  // without one share the batch's fallback arena. Mixing both in one
  // coalesced batch must not change a single path relative to a direct
  // submission of the same starts.
  Graph graph = CoalescerGraph();
  Node2VecWalk walk(2.0, 0.5, 9);
  WalkService service(graph, walk, ItsOptions(21), ItsStep());
  BatchCoalescer::Options options;
  options.max_delay_ms = 100.0;
  BatchCoalescer coalescer(service, options);

  std::vector<std::pair<NodeId, NodeId>> requests = {{0, 4}, {4, 10}, {10, 11}, {11, 25}};
  std::vector<std::shared_ptr<std::vector<NodeId>>> buffers(requests.size());
  std::vector<std::promise<BatchCoalescer::RequestResult>> done(requests.size());
  std::vector<std::future<BatchCoalescer::RequestResult>> futures;
  for (size_t r = 0; r < requests.size(); ++r) {
    futures.push_back(done[r].get_future());
    BatchCoalescer::PlaceFn place;
    if (r % 2 == 0) {  // even requests place their rows, odd ones fall back
      place = [&buffers, r](size_t num_queries,
                            uint32_t stride) -> BatchCoalescer::Placement {
        buffers[r] = std::make_shared<std::vector<NodeId>>(num_queries * stride, kInvalidNode);
        return {buffers[r]->data(), buffers[r]};
      };
    }
    ASSERT_EQ(Admit(coalescer, Range(requests[r].first, requests[r].second),
                    [&done, r](BatchCoalescer::RequestResult result) {
                      done[r].set_value(std::move(result));
                    },
                    std::move(place)),
              AdmitStatus::kAdmitted);
  }
  std::vector<BatchCoalescer::RequestResult> results;
  for (auto& future : futures) {
    results.push_back(future.get());
  }

  WalkService direct(graph, walk, ItsOptions(21), ItsStep());
  BatchResult reference = direct.Submit({Range(0, 25)}).get();
  uint64_t offset = 0;
  for (size_t r = 0; r < requests.size(); ++r) {
    size_t queries = requests[r].second - requests[r].first;
    EXPECT_EQ(results[r].placed, r % 2 == 0) << "request " << r;
    if (r % 2 == 0) {
      ASSERT_TRUE(buffers[r] != nullptr);
      EXPECT_EQ(results[r].paths.data(), buffers[r]->data())
          << "placed rows must alias the placement, not a copy";
    }
    std::vector<NodeId> expected(
        reference.walk.paths.begin() + offset * reference.walk.path_stride,
        reference.walk.paths.begin() + (offset + queries) * reference.walk.path_stride);
    std::vector<NodeId> got(results[r].paths.begin(), results[r].paths.end());
    EXPECT_EQ(got, expected) << "request " << r;
    offset += queries;
  }
}

TEST(BatchCoalescer, AdmissionAfterShutdownIsRejected) {
  Graph graph = CoalescerGraph();
  Node2VecWalk walk(2.0, 0.5, 4);
  WalkService service(graph, walk, ItsOptions(1), ItsStep());
  BatchCoalescer coalescer(service, {});
  coalescer.Shutdown();
  EXPECT_EQ(Admit(coalescer, Range(0, 4),
                  [](BatchCoalescer::RequestResult) {
                    FAIL() << "must not complete after shutdown";
                  }),
            AdmitStatus::kRejected);
}

// ------------------------------------------------------------ end to end --

struct ServedStack {
  Graph graph;
  Node2VecWalk walk{2.0, 0.5, 12};
  FlexiWalkerOptions engine_options;
  std::unique_ptr<WalkService> service;
  std::unique_ptr<WalkServer> server;

  explicit ServedStack(double coalesce_ms, unsigned pipeline_depth,
                       BatchCoalescer::Options extra = {}, WalkServer::Options base = {}) {
    graph = CoalescerGraph();
    engine_options.edge_cost_ratio = 4.0;  // pin: skip profiling in tests
    engine_options.host_threads = 4;
    service = MakeFlexiWalkerService(graph, walk, engine_options, /*seed=*/99, pipeline_depth);
    WalkServer::Options server_options = base;
    server_options.port = 0;  // ephemeral
    server_options.coalescer = extra;
    server_options.coalescer.max_delay_ms = coalesce_ms;
    server_options.backlog = 64;
    server.reset(new WalkServer(*service, graph.num_nodes(), server_options));
    std::string error;
    bool ok = server->Start(&error);
    EXPECT_TRUE(ok) << error;
  }

  ~ServedStack() { server->Stop(); }
};

// The acceptance-criterion test: one client pipelines many small requests;
// the rows reassembled by first_query_id must equal a one-shot engine run
// over the same starts in submission order — for no coalescing, a real
// coalesce window, and pipelined batch execution alike. With window 0 and
// four runners, consecutive one-request windows race to run; only the id
// claim under the window lock keeps the rows equal to the engine's.
TEST(WalkServerEndToEnd, ServedPathsMatchOneShotEngineAcrossConfigs) {
  struct Config {
    double coalesce_ms;
    unsigned pipeline_depth;
  };
  for (Config config : {Config{0.0, 1}, Config{0.0, 4}, Config{5.0, 1}, Config{5.0, 4}}) {
    SCOPED_TRACE("coalesce_ms=" + std::to_string(config.coalesce_ms) +
                 " depth=" + std::to_string(config.pipeline_depth));
    ServedStack stack(config.coalesce_ms, config.pipeline_depth);

    WalkClient client;
    ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
    // 24 requests, sizes cycling 1..4, fixed start pattern. Submitted
    // without waiting so the coalescer actually sees concurrent requests.
    std::vector<NodeId> all_starts;
    std::vector<std::future<WalkClient::Result>> futures;
    for (uint32_t r = 0; r < 24; ++r) {
      std::vector<NodeId> starts;
      for (uint32_t i = 0; i <= r % 4; ++i) {
        starts.push_back((r * 11 + i * 3) % stack.graph.num_nodes());
      }
      all_starts.insert(all_starts.end(), starts.begin(), starts.end());
      futures.push_back(client.Submit(std::move(starts)));
    }

    WalkResult engine_result =
        FlexiWalkerEngine(stack.engine_options).Run(stack.graph, stack.walk, all_starts, 99);

    std::vector<NodeId> served(engine_result.paths.size(), kInvalidNode);
    uint32_t stride = 0;
    for (auto& future : futures) {
      WalkClient::Result result = future.get();
      ASSERT_GT(result.path_stride, 0u);
      stride = result.path_stride;
      ASSERT_LE((result.first_query_id + result.num_queries) * stride, served.size());
      std::copy(result.paths.begin(), result.paths.end(),
                served.begin() + result.first_query_id * stride);
    }
    EXPECT_EQ(stride, engine_result.path_stride);
    EXPECT_EQ(served, engine_result.paths);
    client.Close();
  }
}

TEST(WalkServerEndToEnd, OutOfRangeStartFailsThatRequestOnly) {
  ServedStack stack(/*coalesce_ms=*/0.5, /*pipeline_depth=*/1);
  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  EXPECT_THROW(client.Walk({stack.graph.num_nodes() + 5}), std::runtime_error);
  // The connection survives; a valid request still completes.
  WalkClient::Result result = client.Walk({1, 2});
  EXPECT_EQ(result.num_queries, 2u);
  EXPECT_EQ(result.paths[0], 1u);
  EXPECT_EQ(stack.server->requests_rejected(), 1u);

  // Through a future the same failure is a status, not an exception, and
  // the connection again serves the next request.
  WalkClient::Result failed = client.Submit({stack.graph.num_nodes() + 5}).get();
  EXPECT_EQ(failed.status, WalkClient::Status::kServerError);
  EXPECT_EQ(failed.code, WireErrorCode::kNodeOutOfRange);
  EXPECT_NE(failed.error.find("node out of range"), std::string::npos);
  EXPECT_EQ(failed.num_queries, 0u);
  WalkClient::Result next = client.Submit({3}).get();
  EXPECT_TRUE(next.ok());
  EXPECT_EQ(next.num_queries, 1u);
  EXPECT_EQ(stack.server->requests_rejected(), 2u);
}

TEST(WalkServerEndToEnd, OversizedRequestRejectedWithoutKillingConnection) {
  // The per-request start cap bounds the *response* frame (starts x stride
  // x 4 bytes must stay under the peer's decode ceiling); beyond it the
  // request fails cleanly and the connection lives on.
  BatchCoalescer::Options coalescer;
  ServedStack stack(/*coalesce_ms=*/0.2, /*pipeline_depth=*/1, coalescer);
  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  std::vector<NodeId> huge(20000, 1);  // default max_request_starts = 16384
  EXPECT_THROW(client.Walk(std::move(huge)), std::runtime_error);
  EXPECT_EQ(stack.server->requests_rejected(), 1u);
  EXPECT_EQ(client.Walk({2}).num_queries, 1u);
}

TEST(WalkServerEndToEnd, OverloadRejectionSurfacesAsError) {
  BatchCoalescer::Options coalescer;
  coalescer.max_outstanding_queries = 8;
  coalescer.overflow = BatchCoalescer::OverflowPolicy::kReject;
  // A long window parks the first request in the pending window, so the
  // second deterministically exceeds the admission bound.
  ServedStack stack(/*coalesce_ms=*/200.0, /*pipeline_depth=*/1, coalescer);
  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  std::future<WalkClient::Result> first = client.Submit(Range(0, 8));
  EXPECT_THROW(client.Walk({1}), std::runtime_error);  // kOverloaded
  EXPECT_EQ(first.get().num_queries, 8u);  // flushed at the window deadline
}

TEST(WalkServerEndToEnd, GarbageBytesCloseThatConnectionOnly) {
  ServedStack stack(/*coalesce_ms=*/0.2, /*pipeline_depth=*/1);
  // A well-behaved client stays connected throughout: each bad connection
  // must be closed alone.
  WalkClient bystander;
  ASSERT_TRUE(bystander.Connect("127.0.0.1", stack.server->port()));

  // HTTP aimed at the walk port, and well-formed frames in the retired
  // request layouts (type bytes 1 and 4): each must be answered with a
  // malformed-frame error, then that connection closes.
  const char* http = "GET / HTTP/1.1\r\n\r\n";
  std::vector<std::vector<uint8_t>> inputs = {
      std::vector<uint8_t>(http, http + std::strlen(http)),
      RetiredRequestFrame(1, 5, {1, 2}),
      RetiredRequestFrame(4, 6, {3}),
  };
  for (size_t i = 0; i < inputs.size(); ++i) {
    SCOPED_TRACE("input " + std::to_string(i));
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(stack.server->port());
    ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    // A server that kept the connection open must fail the test, not hang it.
    timeval timeout{10, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    ASSERT_EQ(::send(fd, inputs[i].data(), inputs[i].size(), 0),
              static_cast<ssize_t>(inputs[i].size()));
    // Drain until EOF: the server sends its error frame then closes.
    FrameDecoder decoder;
    char buffer[512];
    ssize_t n;
    while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
      decoder.Append(reinterpret_cast<const uint8_t*>(buffer), static_cast<size_t>(n));
    }
    EXPECT_EQ(n, 0);
    ::close(fd);
    WireFrame frame;
    ASSERT_EQ(decoder.Next(frame), DecodeStatus::kFrame);
    ASSERT_EQ(frame.type, FrameType::kError);
    EXPECT_EQ(frame.error.code, WireErrorCode::kMalformedFrame);
    EXPECT_EQ(stack.server->frames_malformed(), i + 1);
  }
  EXPECT_EQ(stack.server->requests_received(), 0u);

  EXPECT_EQ(bystander.Walk({3}).num_queries, 1u);
  // So is a client on a fresh connection.
  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  EXPECT_EQ(client.Walk({3}).num_queries, 1u);
}

TEST(WalkServerEndToEnd, ConcurrentClientsAllComplete) {
  ServedStack stack(/*coalesce_ms=*/0.5, /*pipeline_depth=*/2);
  constexpr int kClients = 6;
  constexpr int kRequestsPerClient = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      WalkClient client;
      if (!client.Connect("127.0.0.1", stack.server->port())) {
        ++failures;
        return;
      }
      for (int r = 0; r < kRequestsPerClient; ++r) {
        NodeId start = static_cast<NodeId>((c * 31 + r) % stack.graph.num_nodes());
        WalkClient::Result result = client.Walk({start});
        // Arrival order across clients is nondeterministic, so ids differ
        // run to run — but every row must be this client's requested walk.
        if (result.num_queries != 1 || result.paths.empty() || result.paths[0] != start) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& thread : clients) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(stack.service->queries_submitted(), uint64_t{kClients * kRequestsPerClient});
  EXPECT_EQ(stack.server->requests_received(), uint64_t{kClients * kRequestsPerClient});
  // Coalescing must have merged at least some of the 150 single-query
  // requests (worst case every request its own batch — then this still
  // holds as <=).
  EXPECT_LE(stack.service->batches_completed(), stack.server->requests_received());
}

// --------------------------------------------------------- socket util ----

// RAII install/uninstall for the sendmsg test seam, so a failed assertion
// cannot leave the override poisoning every later test.
struct SendMsgOverrideGuard {
  explicit SendMsgOverrideGuard(SendMsgFn fn) { SendMsgOverrideForTesting().store(fn); }
  ~SendMsgOverrideGuard() { SendMsgOverrideForTesting().store(nullptr); }
};

std::atomic<int> g_sendmsg_calls{0};
std::atomic<int> g_eintr_injected{0};

ssize_t EintrEveryOtherSendMsg(int fd, const msghdr* msg, int flags) {
  if (g_sendmsg_calls.fetch_add(1) % 2 == 0) {
    ++g_eintr_injected;
    errno = EINTR;
    return -1;
  }
  return ::sendmsg(fd, msg, flags);
}

// Pattern bytes so any dropped/duplicated/reordered range shows up as a
// mismatch, not a coincidence.
std::vector<uint8_t> PatternBytes(size_t size, uint8_t salt) {
  std::vector<uint8_t> bytes(size);
  for (size_t i = 0; i < size; ++i) {
    bytes[i] = static_cast<uint8_t>((i * 131 + salt) & 0xFF);
  }
  return bytes;
}

// The satellite pinning test: a nonblocking sender with a tiny SO_SNDBUF is
// forced into partial sendmsg returns, including splits *inside* an iovec
// entry; SendVec must advance its cursor exactly and resume until every
// byte of every entry has left in order.
TEST(SocketUtil, SendVecResumesAcrossPartialNonblockingWrites) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  int tiny = 4096;
  ::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &tiny, sizeof(tiny));
  ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);

  // Entry sizes straddle the buffer: some much larger (guaranteed
  // mid-entry split), some tiny (whole-entry advance), one empty.
  std::vector<std::vector<uint8_t>> chunks;
  std::vector<size_t> sizes = {9000, 3, 0, 40000, 1, 7000, 512};
  size_t total = 0;
  for (size_t i = 0; i < sizes.size(); ++i) {
    chunks.push_back(PatternBytes(sizes[i], static_cast<uint8_t>(i)));
    total += sizes[i];
  }
  std::vector<iovec> iov;
  for (auto& chunk : chunks) {
    iov.push_back({chunk.data(), chunk.size()});
  }

  std::vector<uint8_t> received;
  std::vector<uint8_t> buffer(2048);
  iovec* cursor = iov.data();
  size_t count = iov.size();
  int again = 0;
  while (count > 0) {
    SendResult result = SendVec(fds[0], cursor, count);
    ASSERT_NE(result, SendResult::kClosed);
    if (result == SendResult::kDone) {
      EXPECT_EQ(count, 0u);
      break;
    }
    ++again;
    // Drain a little on the peer side to open up send space; small reads
    // keep the sender hitting EAGAIN many times.
    ssize_t n = ::recv(fds[1], buffer.data(), buffer.size(), 0);
    ASSERT_GT(n, 0);
    received.insert(received.end(), buffer.begin(), buffer.begin() + n);
  }
  EXPECT_GT(again, 2) << "partial-write path never exercised; shrink the buffers";
  ::shutdown(fds[0], SHUT_WR);
  ssize_t n;
  while ((n = ::recv(fds[1], buffer.data(), buffer.size(), 0)) > 0) {
    received.insert(received.end(), buffer.begin(), buffer.begin() + n);
  }
  std::vector<uint8_t> expected;
  for (auto& chunk : chunks) {
    expected.insert(expected.end(), chunk.begin(), chunk.end());
  }
  EXPECT_EQ(received.size(), total);
  EXPECT_EQ(received, expected);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(SocketUtil, SendVecRetriesInjectedEintr) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  g_sendmsg_calls = 0;
  g_eintr_injected = 0;
  SendMsgOverrideGuard guard(&EintrEveryOtherSendMsg);

  std::vector<uint8_t> payload = PatternBytes(20000, 7);
  std::thread consumer([&] {
    std::vector<uint8_t> received;
    std::vector<uint8_t> buffer(4096);
    ssize_t n;
    while ((n = ::recv(fds[1], buffer.data(), buffer.size(), 0)) > 0) {
      received.insert(received.end(), buffer.begin(), buffer.begin() + n);
    }
    EXPECT_EQ(received, payload);
  });
  iovec iov[3] = {{payload.data(), 5000},
                  {payload.data() + 5000, 7000},
                  {payload.data() + 12000, 8000}};
  iovec* cursor = iov;
  size_t count = 3;
  EXPECT_EQ(SendVec(fds[0], cursor, count), SendResult::kDone);
  ::shutdown(fds[0], SHUT_WR);
  consumer.join();
  EXPECT_GT(g_eintr_injected.load(), 0);
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(SocketUtil, SendVecReportsClosedPeerNotAgain) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ::close(fds[1]);
  std::vector<uint8_t> payload = PatternBytes(64, 1);
  iovec iov[1] = {{payload.data(), payload.size()}};
  iovec* cursor = iov;
  size_t count = 1;
  EXPECT_EQ(SendVec(fds[0], cursor, count), SendResult::kClosed);
  ::close(fds[0]);
}

// ---------------------------------------------------------- wire fuzz ----

// A mixed valid stream plus the byte offset where each frame starts —
// corruption tests aim at specific header fields by offset.
struct ValidStream {
  std::vector<uint8_t> bytes;
  std::vector<size_t> frame_offsets;
  std::vector<FrameType> types;
  std::vector<uint64_t> tags;

  void Add(FrameType type, uint64_t tag, std::function<void(std::vector<uint8_t>&)> append) {
    frame_offsets.push_back(bytes.size());
    types.push_back(type);
    tags.push_back(tag);
    append(bytes);
  }
};

ValidStream BuildValidStream() {
  ValidStream s;
  s.Add(FrameType::kRequest, 1,
        [](std::vector<uint8_t>& out) { AppendRequestFrame(out, {1, 0, {10, 11, 12}}); });
  s.Add(FrameType::kRequest, 2, [](std::vector<uint8_t>& out) {
    WireRequest routed{2, 3, {7}};
    routed.deadline_us = 5'000;
    AppendRequestFrame(out, routed);
  });
  s.Add(FrameType::kResponse, 3, [](std::vector<uint8_t>& out) {
    AppendResponseFrame(out, WireResponse{3, 99, 4, 2, {5, 6, 7, 8, 1, 2, 3, 4}});
  });
  s.Add(FrameType::kError, 4, [](std::vector<uint8_t>& out) {
    AppendErrorFrame(out, {4, WireErrorCode::kOverloaded, "busy"});
  });
  s.Add(FrameType::kRequest, 5,
        [](std::vector<uint8_t>& out) { AppendRequestFrame(out, {5, 0, {}}); });
  return s;
}

std::vector<WireFrame> DrainDecoder(FrameDecoder& decoder, DecodeStatus& final_status) {
  std::vector<WireFrame> frames;
  for (;;) {
    WireFrame frame;
    final_status = decoder.Next(frame);
    if (final_status != DecodeStatus::kFrame) {
      return frames;
    }
    frames.push_back(std::move(frame));
  }
}

void ExpectMatchesStream(const ValidStream& stream, const std::vector<WireFrame>& frames) {
  ASSERT_EQ(frames.size(), stream.types.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i].type, stream.types[i]) << "frame " << i;
    uint64_t tag = 0;
    switch (frames[i].type) {
      case FrameType::kRequest:
        tag = frames[i].request.tag;
        break;
      case FrameType::kResponse:
        tag = frames[i].response.tag;
        break;
      case FrameType::kError:
        tag = frames[i].error.tag;
        break;
      default:
        break;  // the stream holds no stats frames
    }
    EXPECT_EQ(tag, stream.tags[i]) << "frame " << i;
  }
  // Deep-check the fields the offsets depend on (a decode off by a field
  // width would shift every start).
  EXPECT_EQ(frames[1].request.workload_id, 3u);
  EXPECT_EQ(frames[1].request.deadline_us, 5'000u);
  EXPECT_EQ(frames[1].request.starts, std::vector<NodeId>{7});
  EXPECT_EQ(frames[2].response.paths.size(), 8u);
  EXPECT_EQ(frames[4].request.starts.size(), 0u);
}

// Property: splitting a valid stream at ANY byte boundary (two segments,
// exhaustive) cannot change what decodes.
TEST(WireFuzz, ResplitAtEveryByteBoundaryDecodesIdentically) {
  ValidStream stream = BuildValidStream();
  for (size_t split = 0; split <= stream.bytes.size(); ++split) {
    FrameDecoder decoder;
    std::vector<WireFrame> frames;
    DecodeStatus status = DecodeStatus::kNeedMore;
    decoder.Append(stream.bytes.data(), split);
    for (WireFrame& frame : DrainDecoder(decoder, status)) {
      frames.push_back(std::move(frame));
    }
    ASSERT_EQ(status, DecodeStatus::kNeedMore) << "split=" << split;
    decoder.Append(stream.bytes.data() + split, stream.bytes.size() - split);
    for (WireFrame& frame : DrainDecoder(decoder, status)) {
      frames.push_back(std::move(frame));
    }
    ASSERT_EQ(status, DecodeStatus::kNeedMore) << "split=" << split;
    ExpectMatchesStream(stream, frames);
  }
}

// Property: any seeded random chunking (1..9-byte segments) decodes the
// same frames.
TEST(WireFuzz, RandomChunkingDecodesIdentically) {
  ValidStream stream = BuildValidStream();
  std::mt19937 rng(20260808);
  for (int iter = 0; iter < 200; ++iter) {
    FrameDecoder decoder;
    std::vector<WireFrame> frames;
    DecodeStatus status = DecodeStatus::kNeedMore;
    size_t pos = 0;
    while (pos < stream.bytes.size()) {
      size_t len = std::min<size_t>(1 + rng() % 9, stream.bytes.size() - pos);
      decoder.Append(stream.bytes.data() + pos, len);
      pos += len;
      for (WireFrame& frame : DrainDecoder(decoder, status)) {
        frames.push_back(std::move(frame));
      }
      ASSERT_EQ(status, DecodeStatus::kNeedMore) << "iter=" << iter << " pos=" << pos;
    }
    ExpectMatchesStream(stream, frames);
  }
}

// Targeted corruption classes with known verdicts:
//  - a flipped magic byte at a frame start is malformed the moment it is
//    seen (even before a full header arrives) — garbage cannot stall a
//    connection in kNeedMore;
//  - a declared payload length beyond the decode ceiling is malformed
//    before any allocation;
//  - a truncated tail is kNeedMore, never malformed — a slow sender is not
//    an attacker. Frames ahead of the corruption always decode intact.
TEST(WireFuzz, SeededCorruptionClassifiesDeterministically) {
  ValidStream stream = BuildValidStream();
  std::mt19937 rng(4242);
  for (int iter = 0; iter < 400; ++iter) {
    std::vector<uint8_t> bytes = stream.bytes;
    size_t victim = rng() % stream.frame_offsets.size();
    size_t offset = stream.frame_offsets[victim];
    DecodeStatus expected;
    switch (iter % 3) {
      case 0: {  // flip one magic byte
        size_t byte = rng() % 4;
        bytes[offset + byte] ^= static_cast<uint8_t>(1 + rng() % 255);
        expected = DecodeStatus::kMalformed;
        break;
      }
      case 1: {  // oversize declared length
        uint32_t huge = static_cast<uint32_t>(kDefaultMaxFramePayload) + 1 + rng() % 1000;
        for (int b = 0; b < 4; ++b) {
          bytes[offset + 4 + b] = static_cast<uint8_t>(huge >> (8 * b));
        }
        expected = DecodeStatus::kMalformed;
        break;
      }
      default: {  // truncate the tail mid-frame
        size_t keep = offset + rng() % (bytes.size() - offset);
        bytes.resize(keep);
        victim = stream.frame_offsets.size();  // recomputed below
        for (size_t f = 0; f < stream.frame_offsets.size(); ++f) {
          if (stream.frame_offsets[f] >= keep ||
              (f + 1 < stream.frame_offsets.size() ? stream.frame_offsets[f + 1] : keep + 1) >
                  keep) {
            victim = f;
            break;
          }
        }
        expected = DecodeStatus::kNeedMore;
        break;
      }
    }
    // Feed in random chunks — corruption classification must not depend on
    // packetization either.
    FrameDecoder decoder;
    std::vector<WireFrame> frames;
    DecodeStatus status = DecodeStatus::kNeedMore;
    size_t pos = 0;
    while (pos < bytes.size()) {
      size_t len = std::min<size_t>(1 + rng() % 17, bytes.size() - pos);
      decoder.Append(bytes.data() + pos, len);
      pos += len;
      for (WireFrame& frame : DrainDecoder(decoder, status)) {
        frames.push_back(std::move(frame));
      }
      if (status == DecodeStatus::kMalformed) {
        break;
      }
    }
    EXPECT_EQ(status, expected) << "iter=" << iter << " victim=" << victim;
    // Every frame ahead of the corrupted one decoded intact.
    ASSERT_GE(frames.size(), victim) << "iter=" << iter;
    for (size_t i = 0; i < victim && i < frames.size(); ++i) {
      EXPECT_EQ(frames[i].type, stream.types[i]) << "iter=" << iter << " frame " << i;
    }
  }
}

// Pure survival fuzz: arbitrary single-byte flips anywhere in the stream.
// No verdict is asserted (a flipped count byte legitimately reads as a
// longer frame still in flight) — only that decoding never crashes, never
// loops, and never fabricates more frames than the stream held.
TEST(WireFuzz, RandomByteFlipsNeverCrashTheDecoder) {
  ValidStream stream = BuildValidStream();
  std::mt19937 rng(98765);
  for (int iter = 0; iter < 1000; ++iter) {
    std::vector<uint8_t> bytes = stream.bytes;
    size_t flips = 1 + rng() % 4;
    for (size_t f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
    }
    FrameDecoder decoder;
    decoder.Append(bytes.data(), bytes.size());
    DecodeStatus status = DecodeStatus::kNeedMore;
    std::vector<WireFrame> frames = DrainDecoder(decoder, status);
    EXPECT_NE(status, DecodeStatus::kFrame);
    EXPECT_LE(frames.size(), stream.types.size());
  }
}

// ----------------------------------------------------- fault injection ----

// Raw nonblocking-free helper: a plain blocking TCP connection with
// explicit control over what is sent and when it is read — the misbehaving
// client the event loop has to survive.
int RawConnect(uint16_t port, int rcvbuf_bytes = 0) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  if (rcvbuf_bytes > 0) {
    // Must be set before connect so the window scales from the handshake.
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &rcvbuf_bytes, sizeof(rcvbuf_bytes));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  EXPECT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
  return fd;
}

// Polls until the workload's coalescer has zero outstanding queries — the
// no-leaked-slots assertion every fault test ends on. A torn connection
// that leaked its admitted slots would park here until the deadline.
void ExpectOutstandingDrains(const BatchCoalescer& coalescer,
                             std::chrono::seconds deadline = std::chrono::seconds(10)) {
  auto give_up = std::chrono::steady_clock::now() + deadline;
  while (coalescer.outstanding_queries() != 0) {
    if (std::chrono::steady_clock::now() > give_up) {
      FAIL() << "coalescer still holds " << coalescer.outstanding_queries()
             << " outstanding queries — a dropped connection leaked its slots";
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  SUCCEED();
}

TEST(WalkServerFaults, DeadlineExpiryWhileParkedAnswersAndDrains) {
  BatchCoalescer::Options coalescer;
  coalescer.max_outstanding_queries = 8;
  coalescer.overflow = BatchCoalescer::OverflowPolicy::kBlock;
  // A long window keeps the first request pending — holding every admission
  // slot — so the deadlined second request parks on the event loop, and its
  // budget lapses while parked, long before the window would flush.
  ServedStack stack(/*coalesce_ms=*/200.0, /*pipeline_depth=*/1, coalescer);
  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  std::future<WalkClient::Result> admitted = client.Submit(Range(0, 8));
  // The parked request's deadline lapses; it must not complete.
  WalkClient::Result parked = client.Submit({1}, /*workload_id=*/0, /*deadline_us=*/30'000).get();
  EXPECT_EQ(parked.status, WalkClient::Status::kServerError);
  EXPECT_EQ(parked.code, WireErrorCode::kDeadlineExceeded);
  // The admitted batch is untouched by the shed, and nothing leaks: a
  // parked request holds no admission slot, so its expiry must leave the
  // coalescer's accounting exactly balanced.
  EXPECT_EQ(admitted.get().num_queries, 8u);
  client.Close();
  ExpectOutstandingDrains(stack.server->coalescer());
}

TEST(WalkServerFaults, ClientRetriesRideOutServerRestart) {
  Graph graph = CoalescerGraph();
  Node2VecWalk walk{2.0, 0.5, 12};
  FlexiWalkerOptions engine_options;
  engine_options.edge_cost_ratio = 4.0;
  engine_options.host_threads = 4;
  auto make_server = [&graph](WalkService& service, uint16_t port) {
    WalkServer::Options options;
    options.port = port;
    options.backlog = 64;
    options.coalescer.max_delay_ms = 0.5;
    return std::make_unique<WalkServer>(service, graph.num_nodes(), options);
  };
  auto first_service = MakeFlexiWalkerService(graph, walk, engine_options, /*seed=*/99, 1);
  auto first_server = make_server(*first_service, /*port=*/0);
  std::string error;
  ASSERT_TRUE(first_server->Start(&error)) << error;
  uint16_t port = first_server->port();

  WalkClient::Options client_options;
  client_options.connect_timeout_ms = 1000;
  client_options.max_retries = 8;
  client_options.backoff.base_ms = 20;
  client_options.backoff.max_ms = 100;
  WalkClient client(client_options);
  ASSERT_TRUE(client.Connect("127.0.0.1", port));
  EXPECT_EQ(client.Walk({3}).num_queries, 1u);

  // Tear the server down mid-session and bring a fresh one up on the same
  // port a beat later: the next Walk sees a dead connection, then refused
  // connects, and must ride the gap on reconnect + backoff alone.
  first_server->Stop();
  first_server.reset();
  std::unique_ptr<WalkService> second_service;
  std::unique_ptr<WalkServer> second_server;
  std::thread restarter([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    second_service = MakeFlexiWalkerService(graph, walk, engine_options, /*seed=*/99, 1);
    second_server = make_server(*second_service, port);
    std::string restart_error;
    EXPECT_TRUE(second_server->Start(&restart_error)) << restart_error;
  });
  WalkClient::Result result = client.Walk({3});
  restarter.join();
  EXPECT_EQ(result.num_queries, 1u);
  ASSERT_FALSE(result.paths.empty());
  EXPECT_EQ(result.paths[0], 3u);
  EXPECT_GE(client.retries_attempted(), 1u);
  client.Close();
  second_server->Stop();
}

TEST(WalkServerFaults, DisconnectMidRequestFrameIsCleanlyDropped) {
  ServedStack stack(/*coalesce_ms=*/0.2, /*pipeline_depth=*/1);
  for (int round = 0; round < 8; ++round) {
    int fd = RawConnect(stack.server->port());
    std::vector<uint8_t> bytes;
    AppendRequestFrame(bytes, {1, 0, Range(0, 16)});
    // Send a strict prefix — anywhere from just the magic to one byte shy
    // of complete — then vanish.
    size_t prefix = 1 + static_cast<size_t>(round) * (bytes.size() - 2) / 7;
    ASSERT_LT(prefix, bytes.size());
    ASSERT_GT(::send(fd, bytes.data(), prefix, 0), 0);
    ::close(fd);
  }
  ExpectOutstandingDrains(stack.server->coalescer());
  // The half-requests never completed decoding: nothing was admitted, and
  // the server keeps serving.
  EXPECT_EQ(stack.server->requests_received(), 0u);
  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  EXPECT_EQ(client.Walk({3}).num_queries, 1u);
  EXPECT_EQ(stack.server->requests_received(), 1u);
}

TEST(WalkServerFaults, DisconnectWithResponsesStillCorkedDoesNotLeakSlots) {
  // Small server-side send buffers guarantee big responses stay corked
  // long enough for the disconnect to race them.
  WalkServer::Options base;
  base.send_buffer_bytes = 4096;
  ServedStack stack(/*coalesce_ms=*/1.0, /*pipeline_depth=*/1, {}, base);
  for (int round = 0; round < 6; ++round) {
    int fd = RawConnect(stack.server->port(), /*rcvbuf_bytes=*/2048);
    std::vector<uint8_t> bytes;
    // Four pipelined requests, ~13 KiB of response in total — far past
    // sndbuf + rcvbuf, so at least one response is corked when we vanish.
    for (uint64_t tag = 1; tag <= 4; ++tag) {
      AppendRequestFrame(bytes, {tag, 0, Range(0, 64)});
    }
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
    // Close without reading a byte: pending data turns the close into an
    // abortive RST — the drain path sees a dead peer mid-cork.
    ::close(fd);
  }
  ExpectOutstandingDrains(stack.server->coalescer());
  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  EXPECT_EQ(client.Walk({5}).num_queries, 1u);
}

TEST(WalkServerFaults, SlowReaderIsDrainedByEpolloutResumption) {
  WalkServer::Options base;
  base.send_buffer_bytes = 4096;
  ServedStack stack(/*coalesce_ms=*/0.2, /*pipeline_depth=*/1, {}, base);
  int fd = RawConnect(stack.server->port(), /*rcvbuf_bytes=*/2048);
  // 512 starts x stride 13 x 4 bytes ≈ 26 KiB of response — many times the
  // socket buffers, so the first nonblocking drain MUST hit EAGAIN and the
  // rest arrives only through EPOLLOUT resumption.
  std::vector<NodeId> starts;
  for (NodeId i = 0; i < 512; ++i) {
    starts.push_back(i % stack.graph.num_nodes());
  }
  std::vector<uint8_t> bytes;
  AppendRequestFrame(bytes, {77, 0, starts});
  ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0), static_cast<ssize_t>(bytes.size()));

  // Read deliberately slowly, in sips, with pauses: every pause parks the
  // remainder in the server's cork queue.
  FrameDecoder decoder;
  WireFrame frame;
  DecodeStatus status = DecodeStatus::kNeedMore;
  std::vector<uint8_t> sip(1024);
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (status == DecodeStatus::kNeedMore) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up) << "response never completed";
    ssize_t n = ::recv(fd, sip.data(), sip.size(), 0);
    ASSERT_GT(n, 0) << "server dropped a merely-slow reader";
    decoder.Append(sip.data(), static_cast<size_t>(n));
    status = decoder.Next(frame);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(status, DecodeStatus::kFrame);
  ASSERT_EQ(frame.type, FrameType::kResponse);
  EXPECT_EQ(frame.response.tag, 77u);
  ASSERT_EQ(frame.response.num_queries, starts.size());
  // Byte-exactness through the resumed partial writes: every row leads
  // with its start node.
  uint32_t stride = frame.response.path_stride;
  for (size_t q = 0; q < starts.size(); ++q) {
    ASSERT_EQ(frame.response.paths[q * stride], starts[q]) << "row " << q;
  }
  ::close(fd);
  ExpectOutstandingDrains(stack.server->coalescer());
}

TEST(WalkServerFaults, InjectedEintrInSendPathIsInvisibleToClients) {
  g_sendmsg_calls = 0;
  g_eintr_injected = 0;
  SendMsgOverrideGuard guard(&EintrEveryOtherSendMsg);
  ServedStack stack(/*coalesce_ms=*/0.5, /*pipeline_depth=*/1);
  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  std::vector<std::future<WalkClient::Result>> futures;
  for (uint32_t r = 0; r < 16; ++r) {
    futures.push_back(client.Submit({r % 200, (r * 7) % 200}));
  }
  for (uint32_t r = 0; r < 16; ++r) {
    WalkClient::Result result = futures[r].get();
    ASSERT_EQ(result.num_queries, 2u);
    EXPECT_EQ(result.paths[0], r % 200);
    EXPECT_EQ(result.paths[result.path_stride], (r * 7) % 200);
  }
  EXPECT_GT(g_eintr_injected.load(), 0) << "the injection seam never fired";
}

// Sleeps before every sendmsg(), so each socket write takes at least
// kSlowSend.
constexpr std::chrono::milliseconds kSlowSend(2);

ssize_t SlowSendMsg(int fd, const msghdr* msg, int flags) {
  std::this_thread::sleep_for(kSlowSend);
  return ::sendmsg(fd, msg, flags);
}

// The ring's `flush` span is the socket-write stage: a response sent
// through a slowed sendmsg() must show up inside some flush span.
TEST(WalkServerTrace, FlushSpanCoversTheSocketWrites) {
  obs::TraceRing& ring = obs::TraceRing::Global();
  ring.Enable(1 << 12);
  struct RingOff {
    ~RingOff() { obs::TraceRing::Global().Disable(); }
  } ring_off;
  ServedStack stack(/*coalesce_ms=*/0.2, /*pipeline_depth=*/1);
  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  {
    SendMsgOverrideGuard guard(&SlowSendMsg);
    EXPECT_EQ(client.Walk({3}).num_queries, 1u);
    // Stop joins the coalescer's runner threads, so every flush span is
    // recorded.
    stack.server->Stop();
  }
  uint64_t longest_flush_us = 0;
  for (const obs::TraceSpan& span : ring.Snapshot()) {
    if (std::strcmp(span.name, "flush") == 0) {
      longest_flush_us = std::max(longest_flush_us, span.dur_us);
    }
  }
  EXPECT_GE(longest_flush_us,
            static_cast<uint64_t>(std::chrono::microseconds(kSlowSend).count()));
}

TEST(WalkServerFaults, SeededCorruptStreamsAlwaysErrorAndCloseServerSide) {
  ServedStack stack(/*coalesce_ms=*/0.2, /*pipeline_depth=*/1);
  std::mt19937 rng(31337);
  for (int iter = 0; iter < 8; ++iter) {
    int fd = RawConnect(stack.server->port());
    std::vector<uint8_t> bytes;
    AppendRequestFrame(bytes, {9, 0, {1, 2, 3}});
    // Corruptions guaranteed malformed: magic flip, oversize length, or an
    // unknown frame-type byte. (A payload flip would just be a different
    // valid request — not this test.)
    switch (iter % 3) {
      case 0:
        bytes[rng() % 4] ^= static_cast<uint8_t>(1 + rng() % 255);
        break;
      case 1: {
        uint32_t huge = static_cast<uint32_t>(kDefaultMaxFramePayload) * 2;
        for (int b = 0; b < 4; ++b) {
          bytes[4 + b] = static_cast<uint8_t>(huge >> (8 * b));
        }
        break;
      }
      default:
        bytes[8] = static_cast<uint8_t>(200 + rng() % 55);  // no such frame type
        break;
    }
    ASSERT_GT(::send(fd, bytes.data(), bytes.size(), 0), 0);
    // The server must answer (an error frame, best effort) and close; a
    // peer that only reads must see EOF, not a hang.
    char buffer[512];
    ssize_t n;
    while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    }
    EXPECT_EQ(n, 0) << "iter=" << iter;
    ::close(fd);
  }
  EXPECT_GE(stack.server->frames_malformed(), 8u);
  ExpectOutstandingDrains(stack.server->coalescer());
  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", stack.server->port()));
  EXPECT_EQ(client.Walk({3}).num_queries, 1u);
}

TEST(WalkServerFaults, ManyConnectionsOnFewEventThreadsAllComplete) {
  WalkServer::Options base;
  base.event_threads = 2;
  ServedStack stack(/*coalesce_ms=*/0.5, /*pipeline_depth=*/2, {}, base);
  constexpr int kClients = 32;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      WalkClient client;
      if (!client.Connect("127.0.0.1", stack.server->port())) {
        ++failures;
        return;
      }
      for (int r = 0; r < 4; ++r) {
        NodeId start = static_cast<NodeId>((c * 13 + r) % stack.graph.num_nodes());
        WalkClient::Result result = client.Walk({start});
        if (result.num_queries != 1 || result.paths.empty() || result.paths[0] != start) {
          ++failures;
        }
      }
    });
  }
  for (std::thread& thread : clients) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(stack.server->requests_received(), uint64_t{kClients * 4});
  EXPECT_GE(stack.server->connections_accepted(), uint64_t{kClients});
}

}  // namespace
}  // namespace flexi
