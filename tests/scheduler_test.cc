// Tests for the WalkScheduler: seed-stable parallelism (paths bit-identical
// for any worker count, wavefront width and steal schedule), deterministic
// counter merging, exactly-once query dispensation under contention — per
// query and through adaptive chunks with range stealing — the per-query
// fallback of a 2^31-id queue, and the dispensed() progress clamp.
#include "src/walker/scheduler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "src/graph/generators.h"
#include "src/sampling/alias.h"
#include "src/sampling/inverse_transform.h"
#include "src/sampling/reservoir.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walker/partitioned.h"
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

WalkResult RunWithThreads(const Graph& graph, const WalkLogic& logic,
                          std::span<const NodeId> starts, unsigned threads) {
  SchedulerOptions options;
  options.num_threads = threads;
  return WalkScheduler(options).Run(graph, logic, starts, /*seed=*/1234, ItsStep());
}

TEST(WalkScheduler, PathsBitIdenticalAcrossThreadCounts) {
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 16);
  auto starts = AllNodesAsStarts(graph);
  WalkResult one = RunWithThreads(graph, walk, starts, 1);
  WalkResult two = RunWithThreads(graph, walk, starts, 2);
  WalkResult eight = RunWithThreads(graph, walk, starts, 8);
  EXPECT_EQ(one.paths, two.paths);
  EXPECT_EQ(one.paths, eight.paths);
}

TEST(WalkScheduler, MergedCountersEqualSingleThreadTotals) {
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 16);
  auto starts = AllNodesAsStarts(graph);
  CostCounters single = RunWithThreads(graph, walk, starts, 1).cost;
  CostCounters merged = RunWithThreads(graph, walk, starts, 8).cost;
  EXPECT_EQ(single.coalesced_transactions, merged.coalesced_transactions);
  EXPECT_EQ(single.random_transactions, merged.random_transactions);
  EXPECT_EQ(single.bytes_read, merged.bytes_read);
  EXPECT_EQ(single.bytes_written, merged.bytes_written);
  EXPECT_EQ(single.rng_draws, merged.rng_draws);
  EXPECT_EQ(single.alu_ops, merged.alu_ops);
  EXPECT_EQ(single.warp_collectives, merged.warp_collectives);
}

TEST(WalkScheduler, EveryQueryRunsExactlyOnceUnderContention) {
  // 5000 queries over 8 workers: every path row must be claimed by exactly
  // one worker. The rows are pre-filled with kInvalidNode, so a written
  // start slot proves the query was dispensed; identical rows across thread
  // counts prove no query ran under a stolen ticket.
  Graph graph = GenerateComplete(32);  // no dead ends: every row fully walked
  DeepWalk walk(4);
  std::vector<NodeId> starts(5000);
  for (size_t i = 0; i < starts.size(); ++i) {
    starts[i] = static_cast<NodeId>(i % graph.num_nodes());
  }
  WalkResult result = RunWithThreads(graph, walk, starts, 8);
  ASSERT_EQ(result.num_queries, starts.size());
  for (size_t qid = 0; qid < starts.size(); ++qid) {
    auto path = result.Path(qid);
    EXPECT_EQ(path[0], starts[qid]) << qid;
    for (NodeId node : path) {
      EXPECT_NE(node, kInvalidNode) << qid;
    }
  }
}

TEST(WalkScheduler, WavefrontPathParityMatrix) {
  // The wavefront tentpole's determinism contract: a query's draws come
  // from its own Philox stream, consumed strictly in per-query order, so
  // how many walks a worker keeps in flight — and how their steps
  // interleave — can never change a path. Swept over every sampler family
  // the hot loop serves (including the static-cache fast path's
  // CachedAliasStep) x wavefront x threads, each against a walk-at-a-time
  // single-thread reference.
  Graph graph = TestGraph();
  std::vector<AliasTable> tables = BuildNodeAliasTables(graph, /*threads=*/1);
  const std::vector<AliasTable>* tables_ptr = &tables;
  struct NamedKernel {
    const char* name;
    StepKernel step;
  };
  const NamedKernel kernels[] = {
      {"its", StepKernel([](const WalkContext& ctx, const WalkLogic& l, const QueryState& q,
                            KernelRng& rng) { return InverseTransformStep(ctx, l, q, rng); })},
      {"alias", StepKernel([](const WalkContext& ctx, const WalkLogic& l, const QueryState& q,
                              KernelRng& rng) { return AliasStep(ctx, l, q, rng); })},
      {"reservoir",
       StepKernel([](const WalkContext& ctx, const WalkLogic& l, const QueryState& q,
                     KernelRng& rng) { return ReservoirStep(ctx, l, q, rng); })},
      {"cached-alias",
       StepKernel([tables_ptr](const WalkContext& ctx, const WalkLogic&, const QueryState& q,
                               KernelRng& rng) { return CachedAliasStep(ctx, *tables_ptr, q, rng); })},
  };
  Node2VecWalk walk(2.0, 0.5, 12);
  auto starts = AllNodesAsStarts(graph);

  for (const NamedKernel& kernel : kernels) {
    SchedulerOptions reference_options;
    reference_options.num_threads = 1;
    reference_options.wavefront = 1;
    WalkResult reference =
        WalkScheduler(reference_options).Run(graph, walk, starts, /*seed=*/77, kernel.step);

    for (uint32_t wavefront : {1u, 4u, 16u}) {
      for (unsigned threads : {1u, 2u, 8u}) {
        SchedulerOptions options;
        options.num_threads = threads;
        options.wavefront = wavefront;
        WalkResult result =
            WalkScheduler(options).Run(graph, walk, starts, /*seed=*/77, kernel.step);
        EXPECT_EQ(result.paths, reference.paths)
            << kernel.name << " wavefront=" << wavefront << " threads=" << threads;
        EXPECT_EQ(result.cost.rng_draws, reference.cost.rng_draws) << kernel.name;
      }
    }
  }
}

TEST(FlexiWalkerParallel, WavefrontWidthsPreservePathsIncludingStaticCache) {
  // Engine-level wavefront parity, covering the mixed eRJS/eRVS kernel and
  // the cached static-walk fast path the serving CLI enables.
  Graph weighted = TestGraph();
  Graph unweighted = GenerateErdosRenyi(256, 8.0, 71);
  Node2VecWalk n2v(2.0, 0.5, 12);
  DeepWalk deepwalk(12);
  struct Case {
    const Graph* graph;
    const WalkLogic* logic;
    bool static_cache;
  };
  const Case cases[] = {{&weighted, &n2v, false}, {&unweighted, &deepwalk, true}};
  for (const Case& c : cases) {
    auto starts = AllNodesAsStarts(*c.graph);
    std::vector<NodeId> reference;
    for (uint32_t wavefront : {1u, 4u, 16u}) {
      FlexiWalkerOptions options;
      options.cache_static_tables = c.static_cache;
      options.wavefront = wavefront;
      options.host_threads = wavefront == 4 ? 8 : 1;  // vary threads with width too
      WalkResult result = FlexiWalkerEngine(options).Run(*c.graph, *c.logic, starts, 99);
      if (reference.empty()) {
        reference = std::move(result.paths);
      } else {
        EXPECT_EQ(result.paths, reference)
            << "wavefront=" << wavefront << " static_cache=" << c.static_cache;
      }
    }
  }
}

TEST(QueryQueueChunked, ExactlyOnceAcrossModesUnderContention) {
  // 8 real threads hammer one queue in each mode; a per-id claim counter
  // proves every id is dispensed exactly once — no drops from a stolen
  // range, no duplicates from a racing refill.
  constexpr size_t kIds = 20000;
  std::vector<NodeId> starts(kIds, 1);
  for (DispenseMode mode : {DispenseMode::kPerQuery, DispenseMode::kChunkedSteal}) {
    QueryQueue queue(starts, /*workers=*/8, mode);
    std::vector<std::atomic<uint32_t>> claimed(kIds);
    std::vector<std::thread> workers;
    for (unsigned w = 0; w < 8; ++w) {
      workers.emplace_back([&queue, &claimed, w] {
        while (std::optional<QueryQueue::Query> next = queue.Next(w)) {
          claimed[next->id].fetch_add(1, std::memory_order_relaxed);
        }
      });
    }
    for (auto& worker : workers) {
      worker.join();
    }
    for (size_t id = 0; id < kIds; ++id) {
      ASSERT_EQ(claimed[id].load(), 1u) << "id " << id << " mode " << static_cast<int>(mode);
    }
    EXPECT_EQ(queue.dispensed(), kIds);
  }
}

TEST(QueryQueueChunked, DeterministicStealRunsEveryIdExactlyOnce) {
  // Worker 0 claims its first adaptive chunk, 1024 / (2 * 8) = 64 ids, and
  // pops one. Worker 1 then drains every other id through its own refills,
  // so the global counter is exhausted while worker 0 still holds [1, 64).
  // Worker 1's next pull can make progress only by stealing the back half
  // of that range — no thread timing involved. Afterwards both cursors
  // drain concurrently and every id must land exactly once.
  constexpr size_t kIds = 1024;
  std::vector<NodeId> starts(kIds, 1);
  QueryQueue queue(starts, /*workers=*/2, DispenseMode::kChunkedSteal);
  std::vector<std::atomic<uint32_t>> claimed(kIds);

  std::optional<QueryQueue::Query> first = queue.Next(0);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->id, 0u);
  claimed[first->id].fetch_add(1);
  for (size_t i = 64; i < kIds; ++i) {
    std::optional<QueryQueue::Query> next = queue.Next(1);
    ASSERT_TRUE(next.has_value());
    ASSERT_GE(next->id, 64u) << "worker 1 refills from the counter, past worker 0's chunk";
    claimed[next->id].fetch_add(1);
  }
  EXPECT_EQ(queue.dispensed(), kIds);  // every id is in a cursor or drawn
  EXPECT_EQ(queue.steals(), 0u);

  std::optional<QueryQueue::Query> stolen = queue.Next(1);
  ASSERT_TRUE(stolen.has_value());
  EXPECT_EQ(queue.steals(), 1u);
  EXPECT_GE(stolen->id, 32u) << "a thief takes from the victim's back half";
  EXPECT_LT(stolen->id, 64u);
  claimed[stolen->id].fetch_add(1);

  std::vector<std::thread> workers;
  for (unsigned w = 0; w < 2; ++w) {
    workers.emplace_back([&, w] {
      while (std::optional<QueryQueue::Query> next = queue.Next(w)) {
        claimed[next->id].fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  for (size_t id = 0; id < kIds; ++id) {
    ASSERT_EQ(claimed[id].load(), 1u) << "id " << id;
  }
}

TEST(QueryQueueChunked, RefillsStayFarBelowPerQueryTicketCount) {
  // The contention claim made concrete: per-query dispatch touches the
  // global counter once per id; adaptive chunks shrink geometrically, so
  // draining N ids over W workers takes about 8W * ln(N / 8W) claims plus
  // a tail of single ids — some 300 for these 65536 ids over 4 workers.
  constexpr size_t kIds = 65536;
  QueryQueue queue(uint64_t{kIds}, /*workers=*/4, DispenseMode::kChunkedSteal);
  std::vector<std::thread> workers;
  for (unsigned w = 0; w < 4; ++w) {
    workers.emplace_back([&queue, w] {
      while (queue.Next(w).has_value()) {
      }
    });
  }
  for (auto& worker : workers) {
    worker.join();
  }
  EXPECT_EQ(queue.dispensed(), kIds);
  EXPECT_GT(queue.refills(), 0u);
  EXPECT_LE(queue.refills(), kIds / 64);
}

TEST(QueryQueueChunked, QueueOfTwoToTheThirtyOneIdsFallsBackToPerQuery) {
  // The packed range cursors hold 32-bit indices, so a queue this large
  // dispenses per query even when asked for chunks: ids come straight off
  // the global counter in claim order, whichever worker asks, and no
  // cursor is ever refilled.
  QueryQueue queue(uint64_t{1} << 31, /*workers=*/4, DispenseMode::kChunkedSteal);
  for (uint64_t i = 0; i < 4096; ++i) {
    std::optional<QueryQueue::Query> next = queue.Next(static_cast<unsigned>(i % 4));
    ASSERT_TRUE(next.has_value());
    ASSERT_EQ(next->id, i);
    EXPECT_EQ(next->start, kInvalidNode);
  }
  EXPECT_EQ(queue.refills(), 0u);
  EXPECT_EQ(queue.steals(), 0u);
  EXPECT_EQ(queue.dispensed(), 4096u);
}

TEST(WalkScheduler, EmptyStartSetYieldsEmptyResult) {
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 8);
  WalkResult result = RunWithThreads(graph, walk, {}, 8);
  EXPECT_EQ(result.num_queries, 0u);
  EXPECT_TRUE(result.paths.empty());
}

TEST(WalkScheduler, MoreWorkersThanQueries) {
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 8);
  std::vector<NodeId> starts = {1, 2, 3};
  WalkResult result = RunWithThreads(graph, walk, starts, 16);
  ASSERT_EQ(result.num_queries, 3u);
  for (size_t qid = 0; qid < 3; ++qid) {
    EXPECT_EQ(result.Path(qid)[0], starts[qid]);
  }
}

TEST(FlexiWalkerParallel, PathsAndSelectionStableAcrossThreadCounts) {
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 12);
  auto starts = AllNodesAsStarts(graph);
  for (SelectionStrategy strategy :
       {SelectionStrategy::kCostModel, SelectionStrategy::kRandom}) {
    FlexiWalkerOptions one_opts;
    one_opts.strategy = strategy;
    one_opts.host_threads = 1;
    FlexiWalkerOptions eight_opts = one_opts;
    eight_opts.host_threads = 8;
    WalkResult one = FlexiWalkerEngine(one_opts).Run(graph, walk, starts, 99);
    WalkResult eight = FlexiWalkerEngine(eight_opts).Run(graph, walk, starts, 99);
    EXPECT_EQ(one.paths, eight.paths);
    EXPECT_EQ(one.selection.chose_rjs, eight.selection.chose_rjs);
    EXPECT_EQ(one.selection.chose_rvs, eight.selection.chose_rvs);
    EXPECT_EQ(one.cost.rng_draws, eight.cost.rng_draws);
  }
}

TEST(PartitionedParallel, DeterministicAcrossWorkerCounts) {
  Graph graph = TestGraph();
  Node2VecWalk walk(2.0, 0.5, 8);
  auto starts = AllNodesAsStarts(graph);
  InterconnectProfile link;
  auto one = RunPartitioned(graph, walk, starts, 4, link, 9, /*host_threads=*/1);
  auto eight = RunPartitioned(graph, walk, starts, 4, link, 9, /*host_threads=*/8);
  EXPECT_EQ(one.migrations, eight.migrations);
  EXPECT_EQ(one.total_steps, eight.total_steps);
  EXPECT_DOUBLE_EQ(one.comm_cost, eight.comm_cost);
  ASSERT_EQ(one.device_sim_ms.size(), eight.device_sim_ms.size());
  for (size_t d = 0; d < one.device_sim_ms.size(); ++d) {
    EXPECT_DOUBLE_EQ(one.device_sim_ms[d], eight.device_sim_ms[d]);
  }
}

TEST(QueryQueueProgress, DispensedClampsToSizeUnderOvershoot) {
  std::vector<NodeId> starts = {1, 2, 3};
  QueryQueue queue(starts);
  std::vector<std::thread> drainers;
  for (int t = 0; t < 8; ++t) {
    drainers.emplace_back([&queue] {
      while (queue.Next().has_value()) {
      }
    });
  }
  for (auto& t : drainers) {
    t.join();
  }
  // Each of the 8 drainers bumped the ticket once past the end, so the raw
  // counter overshoots; the progress view must not.
  EXPECT_GT(queue.counter(), queue.size());
  EXPECT_EQ(queue.dispensed(), queue.size());
}

TEST(QueryQueueProgress, DispensedTracksPartialDrain) {
  std::vector<NodeId> starts = {1, 2, 3, 4};
  QueryQueue queue(starts);
  EXPECT_EQ(queue.dispensed(), 0u);
  queue.Next();
  queue.Next();
  EXPECT_EQ(queue.dispensed(), 2u);
}

}  // namespace
}  // namespace flexi
