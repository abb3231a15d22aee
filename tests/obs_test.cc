// Tests for the observability layer (src/obs/): log-bucketed histogram
// accuracy against an exact sort, shard-merge semantics, concurrent-counter
// exactness under 8 threads, the kStatsRequest/kStatsResponse wire frames
// (round-trip plus truncated/malformed rejection), Prometheus rendering,
// the trace ring, and the end-to-end scrape contract — a live WalkServer's
// registry, fetched over the socket, reports exactly the traffic a client
// drove into it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "src/graph/generators.h"
#include "src/net/walk_client.h"
#include "src/net/walk_server.h"
#include "src/net/wire.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/rng/philox.h"
#include "src/walker/flexiwalker_engine.h"
#include "src/walker/walk_service.h"
#include "src/walks/node2vec.h"

namespace flexi {
namespace {

using obs::Counter;
using obs::Gauge;
using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;

// ------------------------------------------------------------- buckets ----

TEST(ObsHistogram, BucketBoundsPartitionTheRange) {
  // Every value lands in a bucket whose [lower, next-lower) range holds it,
  // and values 0..15 are exact (bucket == value).
  for (uint64_t v = 0; v < 16; ++v) {
    EXPECT_EQ(obs::HistogramBucketIndex(v), v);
    EXPECT_EQ(obs::HistogramBucketLowerBound(v), v);
  }
  std::vector<uint64_t> probes;
  for (uint64_t v = 16; v < 4096; ++v) {
    probes.push_back(v);
  }
  for (int shift = 12; shift < 64; ++shift) {
    probes.push_back((1ull << shift) - 1);
    probes.push_back(1ull << shift);
    probes.push_back((1ull << shift) + 1);
  }
  probes.push_back(UINT64_MAX);
  for (uint64_t v : probes) {
    size_t bucket = obs::HistogramBucketIndex(v);
    ASSERT_LT(bucket, obs::kHistogramBuckets) << v;
    EXPECT_LE(obs::HistogramBucketLowerBound(bucket), v) << v;
    if (bucket + 1 < obs::kHistogramBuckets) {
      EXPECT_GT(obs::HistogramBucketLowerBound(bucket + 1), v) << v;
    }
  }
}

TEST(ObsHistogram, PercentilesTrackExactSortWithinBucketError) {
  // Log-normal-ish latencies: exp-distributed exponent gives a heavy tail,
  // the shape percentile estimates most often get wrong.
  Histogram histogram;
  std::vector<uint64_t> values;
  PhiloxStream rng(2026, 0);
  for (int i = 0; i < 20000; ++i) {
    uint64_t v = 1 + rng.NextBounded(100) * (1 + rng.NextBounded(1 + i % 997));
    values.push_back(v);
    histogram.Record(v);
  }
  std::sort(values.begin(), values.end());
  HistogramSnapshot snapshot = histogram.TakeSnapshot();
  ASSERT_EQ(snapshot.count, values.size());
  EXPECT_EQ(snapshot.min, values.front());
  EXPECT_EQ(snapshot.max, values.back());
  for (double q : {0.50, 0.90, 0.99, 0.999}) {
    const double exact =
        static_cast<double>(values[static_cast<size_t>(q * (values.size() - 1))]);
    const double estimate = snapshot.Percentile(q);
    // A bucket spans 1/8 of an octave, so its midpoint is within 6.25% of
    // any member; allow 7% for the midpoint-vs-rank interaction.
    EXPECT_NEAR(estimate, exact, exact * 0.07 + 1.0) << "q=" << q;
  }
}

TEST(ObsHistogram, SnapshotMergeSumsCountsAndUnionsExtremes) {
  Histogram a;
  Histogram b;
  for (uint64_t v : {1ull, 5ull, 100ull}) {
    a.Record(v);
  }
  for (uint64_t v : {7ull, 3000ull}) {
    b.Record(v);
  }
  HistogramSnapshot merged = a.TakeSnapshot();
  merged.Merge(b.TakeSnapshot());
  EXPECT_EQ(merged.count, 5u);
  EXPECT_EQ(merged.sum, 1u + 5u + 100u + 7u + 3000u);
  EXPECT_EQ(merged.min, 1u);
  EXPECT_EQ(merged.max, 3000u);
  // Merging an empty snapshot is the identity.
  HistogramSnapshot empty;
  merged.Merge(empty);
  EXPECT_EQ(merged.count, 5u);
  EXPECT_EQ(merged.min, 1u);
}

TEST(ObsPercentileOfSorted, MatchesBenchDefinition) {
  std::vector<double> sorted = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0};
  EXPECT_DOUBLE_EQ(obs::PercentileOfSorted(sorted, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(obs::PercentileOfSorted(sorted, 0.50), 5.0);   // floor(0.5 * 9) = 4
  EXPECT_DOUBLE_EQ(obs::PercentileOfSorted(sorted, 0.99), 9.0);   // floor(0.99 * 9) = 8
  EXPECT_DOUBLE_EQ(obs::PercentileOfSorted(sorted, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(obs::PercentileOfSorted({}, 0.5), 0.0);
}

// ------------------------------------------------------------ counters ----

TEST(ObsCounter, ConcurrentIncrementsAreExact) {
  // 8 threads x 100k increments each: shard summation must lose nothing,
  // whatever thread indices the OS hands out. Histograms make the same
  // exactness promise for count and sum.
  Counter counter;
  Histogram histogram;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter, &histogram] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter.Add(1);
        histogram.Record(i & 1023);
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(counter.Value(), kThreads * kPerThread);
  HistogramSnapshot snapshot = histogram.TakeSnapshot();
  EXPECT_EQ(snapshot.count, kThreads * kPerThread);
  uint64_t bucket_total = 0;
  for (uint64_t b : snapshot.buckets) {
    bucket_total += b;
  }
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

TEST(ObsCounter, DisabledSwitchMakesAddsNoOps) {
  Counter counter;
  counter.Add(3);
  obs::SetMetricsEnabled(false);
  counter.Add(1000);
  obs::SetMetricsEnabled(true);
  counter.Add(4);
  EXPECT_EQ(counter.Value(), 7u);
}

// ------------------------------------------------------------ registry ----

TEST(ObsRegistry, ResolvesStableReferencesAndRendersPrometheus) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.ResetAllForTest();
  const std::string name =
      obs::WithLabel("flexi_test_requests_total", "workload", "alpha\"beta\\");
  Counter& counter = registry.GetCounter(name);
  EXPECT_EQ(&counter, &registry.GetCounter(name));  // same object on re-resolve
  counter.Add(12);
  registry.GetGauge("flexi_test_depth").Set(-3);
  registry.GetHistogram("flexi_test_latency_us").Record(100);

  std::string text = registry.RenderPrometheusText();
  EXPECT_NE(text.find("# TYPE flexi_test_requests_total counter"), std::string::npos);
  // Label value escaped per the Prometheus text format.
  EXPECT_NE(text.find("flexi_test_requests_total{workload=\"alpha\\\"beta\\\\\"} 12"),
            std::string::npos);
  EXPECT_NE(text.find("flexi_test_depth -3"), std::string::npos);
  EXPECT_NE(text.find("flexi_test_latency_us{quantile=\"0.99\"}"), std::string::npos);
  EXPECT_NE(text.find("flexi_test_latency_us_count 1"), std::string::npos);
  EXPECT_NE(text.find("flexi_test_latency_us_sum 100"), std::string::npos);
}

// ---------------------------------------------------------------- trace ----

TEST(ObsTrace, RingKeepsNewestSpansAndWritesChromeJson) {
  obs::TraceRing& ring = obs::TraceRing::Global();
  ring.Enable(4);
  for (uint64_t i = 0; i < 10; ++i) {
    ring.Record("stage", /*tag=*/i, /*workload_id=*/0, /*start_us=*/i * 10,
                /*end_us=*/i * 10 + 5);
  }
  std::vector<obs::TraceSpan> spans = ring.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  // Oldest-first among the retained (newest four) spans.
  EXPECT_EQ(spans.front().tag, 6u);
  EXPECT_EQ(spans.back().tag, 9u);
  EXPECT_EQ(spans.back().dur_us, 5u);

  const std::string path = ::testing::TempDir() + "obs_trace_test.json";
  ASSERT_TRUE(ring.WriteChromeTrace(path));
  std::ifstream in(path);
  std::string json((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"stage\""), std::string::npos);
  ring.Disable();
  EXPECT_TRUE(ring.Snapshot().empty());
}

// ----------------------------------------------------------- wire frames --

TEST(ObsWire, StatsRequestRoundTrip) {
  WireStatsRequest request;
  request.tag = 0xFEEDFACE0123ull;
  std::vector<uint8_t> bytes;
  AppendStatsRequestFrame(bytes, request);

  WireFrame frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), kDefaultMaxFramePayload, frame, consumed),
            DecodeStatus::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  ASSERT_EQ(frame.type, FrameType::kStatsRequest);
  EXPECT_EQ(frame.stats_request.tag, request.tag);
}

TEST(ObsWire, StatsResponseRoundTrip) {
  WireStatsResponse response;
  response.tag = 7;
  response.text = "# TYPE flexi_server_requests_total counter\nflexi_server_requests_total 3\n";
  std::vector<uint8_t> bytes;
  AppendStatsResponseFrame(bytes, response);

  WireFrame frame;
  size_t consumed = 0;
  ASSERT_EQ(DecodeFrame(bytes.data(), bytes.size(), kDefaultMaxFramePayload, frame, consumed),
            DecodeStatus::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  ASSERT_EQ(frame.type, FrameType::kStatsResponse);
  EXPECT_EQ(frame.stats_response.tag, 7u);
  EXPECT_EQ(frame.stats_response.text, response.text);
}

TEST(ObsWire, TruncatedStatsFramesNeedMoreAtEveryPrefix) {
  std::vector<uint8_t> bytes;
  AppendStatsResponseFrame(bytes, {42, "some metrics text"});
  WireFrame frame;
  size_t consumed = 0;
  for (size_t prefix = 0; prefix < bytes.size(); ++prefix) {
    EXPECT_EQ(DecodeFrame(bytes.data(), prefix, kDefaultMaxFramePayload, frame, consumed),
              DecodeStatus::kNeedMore)
        << prefix;
  }
}

TEST(ObsWire, CorruptStatsPayloadsAreMalformed) {
  // A stats request whose payload is not exactly type+tag.
  std::vector<uint8_t> bytes;
  AppendStatsRequestFrame(bytes, {1});
  std::vector<uint8_t> stretched = bytes;
  stretched.push_back(0xAB);                      // extra payload byte...
  stretched[4] = static_cast<uint8_t>(stretched[4] + 1);  // ...declared in the length
  WireFrame frame;
  size_t consumed = 0;
  EXPECT_EQ(DecodeFrame(stretched.data(), stretched.size(), kDefaultMaxFramePayload, frame,
                        consumed),
            DecodeStatus::kMalformed);

  // A stats response whose inner text length disagrees with the payload.
  std::vector<uint8_t> response_bytes;
  AppendStatsResponseFrame(response_bytes, {9, "abcdef"});
  response_bytes[17] = 0xFF;  // text_len low byte: claims more text than present
  EXPECT_EQ(DecodeFrame(response_bytes.data(), response_bytes.size(), kDefaultMaxFramePayload,
                        frame, consumed),
            DecodeStatus::kMalformed);
}

// ------------------------------------------------------------ end to end --

// Pulls the value of `series` (an exact full name, labels included) out of
// a Prometheus text exposition; -1 when absent.
int64_t SeriesValue(const std::string& text, const std::string& series) {
  size_t pos = 0;
  while ((pos = text.find(series + " ", pos)) != std::string::npos) {
    // Must be at line start so "foo_total" does not match "bar_foo_total".
    if (pos != 0 && text[pos - 1] != '\n') {
      pos += series.size();
      continue;
    }
    return std::strtoll(text.c_str() + pos + series.size() + 1, nullptr, 10);
  }
  return -1;
}

TEST(ObsEndToEnd, ScrapedCountersMatchDrivenTraffic) {
  MetricsRegistry::Global().ResetAllForTest();

  Graph graph = GenerateErdosRenyi(256, 8.0, 71);
  AssignWeights(graph, WeightDistribution::kUniform, 0.0, 72);
  Node2VecWalk walk(2.0, 0.5, 12);
  FlexiWalkerOptions engine_options;
  engine_options.edge_cost_ratio = 4.0;
  engine_options.host_threads = 4;
  auto service = MakeFlexiWalkerService(graph, walk, engine_options, /*seed=*/99,
                                        /*pipeline_depth=*/1);
  WalkServer::Options server_options;
  server_options.port = 0;
  server_options.coalescer.max_delay_ms = 0.5;
  WalkServer server(*service, graph.num_nodes(), server_options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  constexpr uint64_t kRequests = 17;
  uint64_t queries = 0;
  for (uint64_t r = 0; r < kRequests; ++r) {
    std::vector<NodeId> starts = {static_cast<NodeId>(r % graph.num_nodes()),
                                  static_cast<NodeId>((r * 7) % graph.num_nodes())};
    queries += starts.size();
    EXPECT_EQ(client.Walk(std::move(starts)).num_queries, 2u);
  }

  std::string text = client.FetchStats();
  EXPECT_EQ(SeriesValue(text, "flexi_server_requests_total{workload=\"default\"}"),
            static_cast<int64_t>(kRequests));
  EXPECT_EQ(SeriesValue(text, "flexi_server_responses_total{workload=\"default\"}"),
            static_cast<int64_t>(kRequests));
  EXPECT_EQ(SeriesValue(text, "flexi_server_requests_rejected_total{workload=\"default\"}"), 0);
  EXPECT_EQ(SeriesValue(text, "flexi_coalescer_requests_admitted_total{workload=\"default\"}"),
            static_cast<int64_t>(kRequests));
  EXPECT_EQ(SeriesValue(text, "flexi_scheduler_queries_total"),
            static_cast<int64_t>(queries));
  EXPECT_GE(SeriesValue(text, "flexi_server_frames_decoded_total"),
            static_cast<int64_t>(kRequests));
  EXPECT_GE(SeriesValue(text, "flexi_server_stats_requests_total"), 1);
  // The latency histogram saw every request.
  EXPECT_EQ(SeriesValue(text,
                        "flexi_server_request_latency_us_count{workload=\"default\"}"),
            static_cast<int64_t>(kRequests));

  client.Close();
  server.Stop();
}

TEST(ObsEndToEnd, AdmissionRejectionsAreCounted) {
  MetricsRegistry::Global().ResetAllForTest();

  Graph graph = GenerateErdosRenyi(256, 8.0, 71);
  AssignWeights(graph, WeightDistribution::kUniform, 0.0, 72);
  Node2VecWalk walk(2.0, 0.5, 12);
  FlexiWalkerOptions engine_options;
  engine_options.edge_cost_ratio = 4.0;
  engine_options.host_threads = 4;
  auto service = MakeFlexiWalkerService(graph, walk, engine_options, /*seed=*/5,
                                        /*pipeline_depth=*/1);
  WalkServer::Options server_options;
  server_options.port = 0;
  // A long window parks the first request in the pending window, so the
  // second deterministically exceeds the tiny admission bound.
  server_options.coalescer.max_delay_ms = 200.0;
  server_options.coalescer.adaptive_window = false;
  server_options.coalescer.max_outstanding_queries = 8;
  server_options.coalescer.overflow = BatchCoalescer::OverflowPolicy::kReject;
  WalkServer server(*service, graph.num_nodes(), server_options);
  std::string error;
  ASSERT_TRUE(server.Start(&error)) << error;

  WalkClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()));
  std::vector<NodeId> eight;
  for (NodeId v = 0; v < 8; ++v) {
    eight.push_back(v);
  }
  std::future<WalkClient::Result> first = client.Submit(std::move(eight));
  EXPECT_THROW(client.Walk({1}), std::runtime_error);  // kOverloaded
  EXPECT_EQ(first.get().num_queries, 8u);

  std::string text = client.FetchStats();
  EXPECT_EQ(SeriesValue(text, "flexi_server_requests_total{workload=\"default\"}"), 2);
  EXPECT_EQ(SeriesValue(text, "flexi_server_requests_rejected_total{workload=\"default\"}"), 1);
  EXPECT_EQ(SeriesValue(text, "flexi_server_responses_total{workload=\"default\"}"), 1);
  EXPECT_EQ(SeriesValue(text, "flexi_coalescer_requests_rejected_total{workload=\"default\"}"),
            1);

  client.Close();
  server.Stop();
}

}  // namespace
}  // namespace flexi
