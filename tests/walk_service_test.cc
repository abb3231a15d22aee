// Tests for the streaming WalkService: global query-id assignment keeps
// paths bit-identical whether batches are submitted concurrently (in
// flight together) or strictly sequentially, batch results match one-shot
// scheduler runs over the concatenated starts, and the FlexiWalker serving
// factory reproduces the one-shot engine.
#include "src/walker/walk_service.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <span>
#include <vector>

#include "src/graph/generators.h"
#include "src/net/walk_client.h"
#include "src/net/walk_server.h"
#include "src/sampling/inverse_transform.h"
#include "src/walks/deepwalk.h"
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

WalkService::Options ItsOptions(uint64_t seed, unsigned threads = 0) {
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

TEST(WalkService, ConcurrentSubmissionMatchesSequentialSubmission) {
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 12);
  std::vector<NodeId> batch_a = Range(0, 100);
  std::vector<NodeId> batch_b = Range(100, 256);

  // Sequential: submit A, wait, submit B, wait.
  WalkService sequential(graph, walk, ItsOptions(42, 8), ItsStep());
  BatchResult seq_a = sequential.Submit({batch_a}).get();
  BatchResult seq_b = sequential.Submit({batch_b}).get();

  // Concurrent: both batches in flight before either result is read.
  WalkService concurrent(graph, walk, ItsOptions(42, 8), ItsStep());
  std::future<BatchResult> fut_a = concurrent.Submit({batch_a});
  std::future<BatchResult> fut_b = concurrent.Submit({batch_b});
  BatchResult con_b = fut_b.get();
  BatchResult con_a = fut_a.get();

  EXPECT_EQ(seq_a.walk.paths, con_a.walk.paths);
  EXPECT_EQ(seq_b.walk.paths, con_b.walk.paths);
  EXPECT_EQ(seq_a.first_query_id, con_a.first_query_id);
  EXPECT_EQ(seq_b.first_query_id, con_b.first_query_id);
  EXPECT_EQ(seq_b.walk.cost.rng_draws, con_b.walk.cost.rng_draws);
}

TEST(WalkService, BatchCarvingDoesNotChangePaths) {
  // The same 256 starts served as one batch and as three uneven batches:
  // the concatenated path rows must be bit-identical, because a query's
  // Philox subsequence is keyed by its global id, not its batch.
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 12);

  WalkService one_batch(graph, walk, ItsOptions(7, 8), ItsStep());
  BatchResult whole = one_batch.Submit({Range(0, 256)}).get();

  WalkService three_batches(graph, walk, ItsOptions(7, 8), ItsStep());
  std::vector<std::future<BatchResult>> futures;
  futures.push_back(three_batches.Submit({Range(0, 11)}));
  futures.push_back(three_batches.Submit({Range(11, 200)}));
  futures.push_back(three_batches.Submit({Range(200, 256)}));
  std::vector<NodeId> stitched;
  for (auto& future : futures) {
    BatchResult part = future.get();
    stitched.insert(stitched.end(), part.walk.paths.begin(), part.walk.paths.end());
  }
  EXPECT_EQ(whole.walk.paths, stitched);
}

TEST(WalkService, ServedPathsBitIdenticalAcrossWavefrontWidths) {
  // Served-vs-one-shot parity over the wavefront matrix: the scheduler's
  // batched inner loop (scheduler.h, wavefront) must not change a served
  // path for any width or thread count — the draws of every query come
  // from its own global-id-keyed stream.
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 12);
  std::vector<NodeId> starts = Range(0, 256);

  SchedulerOptions reference_options;
  reference_options.num_threads = 1;
  reference_options.wavefront = 1;
  WalkResult reference =
      WalkScheduler(reference_options).Run(graph, walk, starts, /*seed=*/42, ItsStep());

  for (uint32_t wavefront : {1u, 4u, 16u}) {
    for (unsigned threads : {1u, 2u, 8u}) {
      WalkService::Options options = ItsOptions(42, threads);
      options.scheduler.wavefront = wavefront;
      WalkService service(graph, walk, options, ItsStep());
      BatchResult served = service.Submit({starts}).get();
      EXPECT_EQ(served.walk.paths, reference.paths)
          << "wavefront=" << wavefront << " threads=" << threads;
    }
  }
}

TEST(WalkService, RunClaimedWritesCallerArenaBitIdenticalToSubmit) {
  // The zero-copy serving path: rows land in a caller-owned PathArena and
  // walk.paths stays empty — but the bytes must equal a plain Submit of the
  // same starts, and interleaved arena/non-arena batches must share the
  // global id cursor.
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 12);

  WalkService plain(graph, walk, ItsOptions(42, 8), ItsStep());
  BatchResult expected_a = plain.Submit({Range(0, 100)}).get();
  BatchResult expected_b = plain.Submit({Range(100, 256)}).get();

  WalkService arena_service(graph, walk, ItsOptions(42, 8), ItsStep());
  EXPECT_EQ(arena_service.path_stride(), walk.walk_length() + 1);
  PathArena arena_a(100, arena_service.path_stride());
  std::vector<NodeId> starts_a = Range(0, 100);
  BatchResult got_a =
      arena_service.RunClaimed(arena_service.ClaimQueryIds(100), starts_a, arena_a.view());
  BatchResult got_b = arena_service.Submit({Range(100, 256)}).get();

  EXPECT_TRUE(got_a.walk.paths.empty());  // rows live in the arena
  EXPECT_EQ(got_a.walk.num_queries, 100u);
  EXPECT_EQ(got_a.first_query_id, expected_a.first_query_id);
  std::span<const NodeId> rows = arena_a.Slice(0, 100);
  EXPECT_TRUE(std::equal(rows.begin(), rows.end(), expected_a.walk.paths.begin(),
                         expected_a.walk.paths.end()));
  EXPECT_EQ(got_b.walk.paths, expected_b.walk.paths);
  EXPECT_EQ(got_b.first_query_id, expected_b.first_query_id);
}

TEST(WalkService, QueryIdsAreContiguousAcrossBatches) {
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 4);
  WalkService service(graph, walk, ItsOptions(1), ItsStep());
  BatchResult first = service.Submit({Range(0, 10)}).get();
  BatchResult second = service.Submit({Range(10, 15)}).get();
  BatchResult third = service.Submit({Range(15, 40)}).get();
  EXPECT_EQ(first.first_query_id, 0u);
  EXPECT_EQ(second.first_query_id, 10u);
  EXPECT_EQ(third.first_query_id, 15u);
  EXPECT_EQ(first.batch_index, 0u);
  EXPECT_EQ(third.batch_index, 2u);
  EXPECT_EQ(service.queries_submitted(), 40u);
  EXPECT_EQ(service.batches_completed(), 3u);
}

TEST(WalkService, EmptyBatchCompletes) {
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 4);
  WalkService service(graph, walk, ItsOptions(1), ItsStep());
  BatchResult result = service.Submit({}).get();
  EXPECT_EQ(result.walk.num_queries, 0u);
  EXPECT_TRUE(result.walk.paths.empty());
}

TEST(FlexiWalkerService, FirstBatchMatchesOneShotEngine) {
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 12);
  auto starts = AllNodesAsStarts(graph);

  FlexiWalkerOptions options;
  options.host_threads = 8;
  WalkResult engine_result = FlexiWalkerEngine(options).Run(graph, walk, starts, 99);

  auto service = MakeFlexiWalkerService(graph, walk, options, 99);
  BatchResult served = service->Submit({starts}).get();
  EXPECT_EQ(engine_result.paths, served.walk.paths);
  EXPECT_EQ(engine_result.cost.rng_draws, served.walk.cost.rng_draws);
  // Both tiers run the same worker factory, so the served batch reports the
  // engine's eRJS/eRVS tally. Node2Vec is dynamic — every step is a
  // selection — so the tallies are non-zero.
  EXPECT_GT(engine_result.selection.chose_rjs + engine_result.selection.chose_rvs, 0u);
  EXPECT_EQ(engine_result.selection.chose_rjs, served.walk.selection.chose_rjs);
  EXPECT_EQ(engine_result.selection.chose_rvs, served.walk.selection.chose_rvs);
}

// The engine and the service walk on the host, so their default options
// take the host's EdgeCost ratio and run no profiling phase: both select
// eRJS/eRVS exactly as an engine given kHostEdgeCostRatio does, and not as
// one that profiles the simulated GPU.
TEST(FlexiWalkerService, DefaultOptionsWalkAtTheHostRatioWithoutProfiling) {
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 12);
  auto starts = AllNodesAsStarts(graph);

  FlexiWalkerEngine engine;
  WalkResult defaults = engine.Run(graph, walk, starts, 99);
  EXPECT_EQ(defaults.profile_sim_ms, 0.0);
  EXPECT_EQ(engine.last_edge_cost_ratio(), kHostEdgeCostRatio);

  // MakeFlexiWalkerService prepares through PrepareFlexiWalker.
  DeviceContext device(DeviceProfile::SimulatedGpu());
  FlexiPreparation prep = PrepareFlexiWalker(graph, walk, FlexiWalkerOptions(), device);
  EXPECT_EQ(prep.profile_sim_ms, 0.0);
  EXPECT_EQ(prep.params.edge_cost_ratio, kHostEdgeCostRatio);
  auto service = MakeFlexiWalkerService(graph, walk, FlexiWalkerOptions(), 99);
  BatchResult served = service->Submit({starts}).get();

  FlexiWalkerOptions host;
  host.edge_cost_ratio = kHostEdgeCostRatio;
  WalkResult at_host = FlexiWalkerEngine(host).Run(graph, walk, starts, 99);
  FlexiWalkerOptions profiled;
  profiled.edge_cost_ratio = std::nullopt;
  WalkResult at_profiled = FlexiWalkerEngine(profiled).Run(graph, walk, starts, 99);
  ASSERT_GT(at_profiled.profile_sim_ms, 0.0);
  ASSERT_NE(at_profiled.selection.chose_rjs, at_host.selection.chose_rjs)
      << "the graph must tell the two ratios apart";
  for (const WalkResult* result : {&defaults, &served.walk}) {
    EXPECT_EQ(result->paths, at_host.paths);
    EXPECT_EQ(result->selection.chose_rjs, at_host.selection.chose_rjs);
    EXPECT_EQ(result->selection.chose_rvs, at_host.selection.chose_rvs);
  }
}

TEST(WalkService, PipelinedBatchesMatchSerialBatches) {
  // pipeline_depth > 1 runs batches concurrently on the pool; global ids are
  // assigned at Submit, so every batch's paths must match the depth-1
  // service fed identically — pipelining moves execution, never randomness.
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 10);

  WalkService::Options serial_options = ItsOptions(13, 4);
  WalkService serial(graph, walk, serial_options, ItsStep());
  WalkService::Options pipelined_options = ItsOptions(13, 4);
  pipelined_options.pipeline_depth = 4;
  WalkService pipelined(graph, walk, pipelined_options, ItsStep());
  EXPECT_EQ(pipelined.pipeline_depth(), 4u);

  std::vector<std::future<BatchResult>> serial_futures;
  std::vector<std::future<BatchResult>> pipelined_futures;
  for (int b = 0; b < 12; ++b) {
    NodeId begin = static_cast<NodeId>((b * 17) % 200);
    serial_futures.push_back(serial.Submit({Range(begin, begin + 20)}));
    pipelined_futures.push_back(pipelined.Submit({Range(begin, begin + 20)}));
  }
  for (int b = 0; b < 12; ++b) {
    BatchResult s = serial_futures[b].get();
    BatchResult p = pipelined_futures[b].get();
    EXPECT_EQ(s.first_query_id, p.first_query_id) << "batch " << b;
    EXPECT_EQ(s.walk.paths, p.walk.paths) << "batch " << b;
  }
}

TEST(FlexiWalkerService, PipelinedServiceMatchesEngineAndDepthOne) {
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 12);
  FlexiWalkerOptions options;
  options.edge_cost_ratio = 4.0;
  options.host_threads = 4;
  auto starts = Range(0, 128);

  auto depth1 = MakeFlexiWalkerService(graph, walk, options, 31, /*pipeline_depth=*/1);
  auto depth4 = MakeFlexiWalkerService(graph, walk, options, 31, /*pipeline_depth=*/4);
  std::vector<std::future<BatchResult>> f1;
  std::vector<std::future<BatchResult>> f4;
  for (int b = 0; b < 6; ++b) {
    f1.push_back(depth1->Submit({starts}));
    f4.push_back(depth4->Submit({starts}));
  }
  for (int b = 0; b < 6; ++b) {
    EXPECT_EQ(f1[b].get().walk.paths, f4[b].get().walk.paths) << "batch " << b;
  }
}

TEST(FlexiWalkerService, StaticCacheServiceMatchesStaticCacheEngine) {
  // The cached static-walk fast path (DeepWalk => per-node alias tables
  // built once) must keep the serving contract: service batches reproduce
  // the one-shot engine bit-for-bit under the same options, across thread
  // counts and pipeline depths.
  Graph graph = TestGraph();
  DeepWalk walk(16);
  auto starts = AllNodesAsStarts(graph);

  FlexiWalkerOptions options;
  options.edge_cost_ratio = 4.0;
  options.cache_static_tables = true;
  options.host_threads = 8;
  WalkResult engine_result = FlexiWalkerEngine(options).Run(graph, walk, starts, 55);

  auto service = MakeFlexiWalkerService(graph, walk, options, 55, /*pipeline_depth=*/2);
  BatchResult served = service->Submit({starts}).get();
  EXPECT_EQ(engine_result.paths, served.walk.paths);

  // Bit-identical across thread counts (the contract every parallel phase
  // obeys), and no per-step selection happens on the fast path.
  FlexiWalkerOptions one_thread = options;
  one_thread.host_threads = 1;
  WalkResult single = FlexiWalkerEngine(one_thread).Run(graph, walk, starts, 55);
  EXPECT_EQ(single.paths, engine_result.paths);
  EXPECT_EQ(engine_result.selection.chose_rjs + engine_result.selection.chose_rvs, 0u);

  // Walk validity: every transition must follow a real out-edge.
  for (size_t q = 0; q < engine_result.num_queries; ++q) {
    auto path = engine_result.Path(q);
    for (size_t s = 1; s < path.size() && path[s] != kInvalidNode; ++s) {
      bool is_neighbor = false;
      for (uint32_t i = 0; i < graph.Degree(path[s - 1]); ++i) {
        if (graph.Neighbor(path[s - 1], i) == path[s]) {
          is_neighbor = true;
          break;
        }
      }
      ASSERT_TRUE(is_neighbor) << "query " << q << " step " << s;
    }
  }
}

TEST(FlexiWalkerService, StaticCacheIsNoOpForDynamicWorkloads) {
  // Node2Vec's weight depends on the previous node: the static analysis
  // must refuse the cache and leave paths exactly as without the option.
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 10);
  auto starts = Range(0, 64);
  FlexiWalkerOptions off;
  off.edge_cost_ratio = 4.0;
  off.host_threads = 4;
  FlexiWalkerOptions on = off;
  on.cache_static_tables = true;
  WalkResult without = FlexiWalkerEngine(off).Run(graph, walk, starts, 9);
  WalkResult with = FlexiWalkerEngine(on).Run(graph, walk, starts, 9);
  EXPECT_EQ(without.paths, with.paths);
  EXPECT_GT(with.selection.chose_rjs + with.selection.chose_rvs, 0u);
}

TEST(FlexiWalkerService, StaticCacheChangesDrawSequenceButStaysSeedStable) {
  // Cached sampling consumes different RNG draws than eRJS/eRVS, so paths
  // legitimately differ from the uncached configuration — but two cached
  // runs at the same seed agree exactly.
  Graph graph = TestGraph();
  DeepWalk walk(16);
  auto starts = Range(0, 128);
  FlexiWalkerOptions cached;
  cached.edge_cost_ratio = 4.0;
  cached.cache_static_tables = true;
  cached.host_threads = 4;
  FlexiWalkerOptions uncached = cached;
  uncached.cache_static_tables = false;
  WalkResult a = FlexiWalkerEngine(cached).Run(graph, walk, starts, 5);
  WalkResult b = FlexiWalkerEngine(cached).Run(graph, walk, starts, 5);
  WalkResult c = FlexiWalkerEngine(uncached).Run(graph, walk, starts, 5);
  EXPECT_EQ(a.paths, b.paths);
  EXPECT_NE(a.paths, c.paths);
}

TEST(FlexiWalkerService, RepeatedBatchesStayDeterministicPerGlobalId) {
  // Serving the same starts twice yields different paths (fresh global ids,
  // fresh Philox subsequences — walks are new draws, not replays), but two
  // services fed identically agree batch-for-batch.
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 8);
  FlexiWalkerOptions options;
  options.edge_cost_ratio = 4.0;
  options.host_threads = 4;
  auto starts = Range(0, 128);

  auto service_x = MakeFlexiWalkerService(graph, walk, options, 5);
  auto service_y = MakeFlexiWalkerService(graph, walk, options, 5);
  BatchResult x1 = service_x->Submit({starts}).get();
  BatchResult x2 = service_x->Submit({starts}).get();
  BatchResult y1 = service_y->Submit({starts}).get();
  BatchResult y2 = service_y->Submit({starts}).get();

  EXPECT_NE(x1.walk.paths, x2.walk.paths);
  EXPECT_EQ(x1.walk.paths, y1.walk.paths);
  EXPECT_EQ(x2.walk.paths, y2.walk.paths);
}

// ------------------------------------------------- multi-workload serving ----

// Two workloads — different walk logics, different seeds, independent
// prepared engines — registered on ONE server and interleaved over ONE
// connection must each be bit-identical to a one-shot engine run over that
// workload's starts in submission order. Routing (the v2 workload_id field)
// must never mix the streams: a request landing on the wrong coalescer
// would get the other logic's stride and paths.
TEST(MultiWorkloadServing, InterleavedWorkloadsMatchTheirOneShotEngines) {
  Graph graph = TestGraph();
  Node2VecWalk n2v(2.0, 0.5, 12);
  DeepWalk deepwalk(8);  // different stride (9 vs 13): crossed routing is loud
  FlexiWalkerOptions options;
  options.edge_cost_ratio = 4.0;
  options.host_threads = 4;

  auto service_a = MakeFlexiWalkerService(graph, n2v, options, /*seed=*/99);
  auto service_b = MakeFlexiWalkerService(graph, deepwalk, options, /*seed=*/1234);

  WalkServer::Options server_options;
  server_options.port = 0;
  server_options.coalescer.max_delay_ms = 2.0;
  WalkServer server(*service_a, graph.num_nodes(), server_options);
  BatchCoalescer::Options b_admission;
  b_admission.max_delay_ms = 2.0;
  uint32_t workload_b = server.RegisterWorkload("deepwalk", *service_b, b_admission);
  ASSERT_EQ(workload_b, 1u);
  EXPECT_EQ(server.workload_count(), 2u);
  EXPECT_EQ(server.workload_name(0), "default");
  EXPECT_EQ(server.workload_name(1), "deepwalk");
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  std::vector<NodeId> starts_a;
  std::vector<NodeId> starts_b;
  std::vector<std::future<WalkClient::Result>> futures_a;
  std::vector<std::future<WalkClient::Result>> futures_b;
  // Interleaved pipelined submissions so both coalescers see real
  // concurrency, on one connection so per-workload arrival order is exact.
  for (uint32_t r = 0; r < 20; ++r) {
    std::vector<NodeId> a;
    for (uint32_t i = 0; i <= r % 3; ++i) {
      a.push_back((r * 17 + i * 5) % graph.num_nodes());
    }
    starts_a.insert(starts_a.end(), a.begin(), a.end());
    futures_a.push_back(client.Submit(std::move(a), /*workload_id=*/0));
    std::vector<NodeId> b;
    for (uint32_t i = 0; i <= r % 2; ++i) {
      b.push_back((r * 23 + i * 7) % graph.num_nodes());
    }
    starts_b.insert(starts_b.end(), b.begin(), b.end());
    futures_b.push_back(client.Submit(std::move(b), workload_b));
  }

  WalkResult engine_a = FlexiWalkerEngine(options).Run(graph, n2v, starts_a, 99);
  WalkResult engine_b = FlexiWalkerEngine(options).Run(graph, deepwalk, starts_b, 1234);

  auto reassemble = [](std::vector<std::future<WalkClient::Result>>& futures,
                       const WalkResult& expected) {
    std::vector<NodeId> served(expected.paths.size(), kInvalidNode);
    for (auto& future : futures) {
      WalkClient::Result result = future.get();
      ASSERT_EQ(result.path_stride, expected.path_stride);
      ASSERT_LE((result.first_query_id + result.num_queries) * result.path_stride,
                served.size());
      std::copy(result.paths.begin(), result.paths.end(),
                served.begin() + result.first_query_id * result.path_stride);
    }
    EXPECT_EQ(served, expected.paths);
  };
  reassemble(futures_a, engine_a);
  reassemble(futures_b, engine_b);

  EXPECT_EQ(server.workload_requests_received(0), 20u);
  EXPECT_EQ(server.workload_requests_received(1), 20u);
  EXPECT_EQ(server.workload_requests_rejected(0), 0u);
  EXPECT_EQ(server.workload_requests_rejected(1), 0u);

  client.Close();
  server.Stop();
}

// Admission quotas are per-workload: a workload whose quota is exhausted
// answers per-request kOverloaded errors while the other workload's
// requests keep completing promptly — one hot tenant cannot starve the
// other's admission, and the connection survives every rejection.
TEST(MultiWorkloadServing, QuotaExhaustedWorkloadDoesNotStarveTheOther) {
  Graph graph = TestGraph();
  Node2VecWalk n2v(2.0, 0.5, 10);
  DeepWalk deepwalk(6);
  FlexiWalkerOptions options;
  options.edge_cost_ratio = 4.0;
  options.host_threads = 4;
  auto service_a = MakeFlexiWalkerService(graph, n2v, options, /*seed=*/7);
  auto service_b = MakeFlexiWalkerService(graph, deepwalk, options, /*seed=*/8);

  WalkServer::Options server_options;
  server_options.port = 0;
  server_options.coalescer.max_delay_ms = 0.2;  // workload 0 stays snappy
  WalkServer server(*service_a, graph.num_nodes(), server_options);
  // Workload 1: tiny quota, reject on overflow, and a window long enough
  // that the quota-filling request deterministically sits in pending while
  // the rejections and the cross-workload probes run.
  BatchCoalescer::Options starved;
  starved.max_outstanding_queries = 4;
  starved.overflow = BatchCoalescer::OverflowPolicy::kReject;
  starved.max_delay_ms = 2000.0;
  uint32_t workload_b = server.RegisterWorkload("starved", *service_b, starved);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  // Fill workload 1's quota; the long window parks it in pending.
  std::future<WalkClient::Result> parked = client.Submit({0, 1, 2, 3}, workload_b);
  // Give the event loop a moment to admit it before probing the quota.
  auto quota_full = [&] {
    return server.workload_coalescer(workload_b).outstanding_queries() >= 4;
  };
  for (int i = 0; i < 2000 && !quota_full(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_TRUE(quota_full());

  auto wall_start = std::chrono::steady_clock::now();
  int rejections = 0;
  for (int r = 0; r < 8; ++r) {
    // Quota-exhausted workload: every request gets its own error...
    try {
      client.Walk({5}, workload_b);
    } catch (const std::runtime_error&) {
      ++rejections;
    }
    // ...while the other workload keeps serving on the same connection.
    WalkClient::Result ok = client.Walk({static_cast<NodeId>(r * 3)}, 0);
    EXPECT_EQ(ok.num_queries, 1u);
    EXPECT_EQ(ok.paths[0], static_cast<NodeId>(r * 3));
  }
  double elapsed_ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - wall_start)
                          .count();
  EXPECT_EQ(rejections, 8);
  // All 8 workload-0 round trips finished while workload 1's 2-second
  // window was still holding its quota — bounded latency, not starvation.
  EXPECT_LT(elapsed_ms, 1900.0);
  EXPECT_EQ(server.workload_requests_rejected(workload_b), 8u);
  EXPECT_EQ(server.workload_requests_rejected(0), 0u);

  // Stop flushes workload 1's pending window: the parked request completes
  // with its responses delivered before the connection closes.
  server.Stop();
  WalkClient::Result parked_result = parked.get();
  EXPECT_EQ(parked_result.num_queries, 4u);
  client.Close();
}

}  // namespace
}  // namespace flexi
