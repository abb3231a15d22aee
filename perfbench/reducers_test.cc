#include "perfbench/reducers.h"

#include <gtest/gtest.h>

namespace perfbench {
namespace {

TEST(Summarize, MedianAndTailUseTheFloorRank) {
  std::vector<double> samples;
  for (int i = 200; i >= 1; --i) {
    samples.push_back(i);  // unsorted on purpose
  }
  Summary s = Summarize(samples);
  EXPECT_EQ(s.count, 200u);
  EXPECT_EQ(s.p50, 100.0);  // element floor(0.50 * 199) = 99 of 1..200
  EXPECT_EQ(s.p99, 198.0);  // element floor(0.99 * 199) = 197
}

TEST(Summarize, SmallAndEmptySamples) {
  EXPECT_EQ(Median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(Median({4.0, 1.0}), 1.0);  // even count: the lower middle
  Summary empty = Summarize({});
  EXPECT_EQ(empty.count, 0u);
  EXPECT_EQ(empty.p50, 0.0);
  EXPECT_EQ(empty.p99, 0.0);
}

TEST(SelfTimes, LeafIsItsDuration) {
  std::vector<TreeSpan> spans = {{10, 25, -1}};
  EXPECT_EQ(SelfTimes(spans), (std::vector<uint64_t>{15}));
}

TEST(SelfTimes, DisjointChildrenSubtract) {
  std::vector<TreeSpan> spans = {{0, 100, -1}, {10, 30, 0}, {50, 60, 0}};
  EXPECT_EQ(SelfTimes(spans), (std::vector<uint64_t>{70, 20, 10}));
}

TEST(SelfTimes, OverlappingChildrenCountOnce) {
  std::vector<TreeSpan> spans = {{0, 100, -1}, {10, 40, 0}, {30, 50, 0}, {45, 48, 0}};
  EXPECT_EQ(SelfTimes(spans)[0], 60u);  // covered: [10, 50)
}

TEST(SelfTimes, ChildOutsideItsParentIsClipped) {
  std::vector<TreeSpan> spans = {{10, 20, -1}, {5, 15, 0}, {18, 40, 0}};
  EXPECT_EQ(SelfTimes(spans)[0], 3u);  // [10, 15) and [18, 20) covered
}

TEST(SelfTimes, GrandchildrenBelongToTheirParentOnly) {
  std::vector<TreeSpan> spans = {{0, 100, -1}, {10, 60, 0}, {20, 30, 1}, {70, 80, -1}};
  EXPECT_EQ(SelfTimes(spans), (std::vector<uint64_t>{50, 40, 10, 10}));
}

TEST(StageSummaries, GroupsRingSpansByName) {
  std::vector<flexi::obs::TraceSpan> spans;
  for (uint64_t d = 1; d <= 5; ++d) {
    spans.push_back({"admit", d, 0, 100 * d, d, 0});
    spans.push_back({"flush", 0, 0, 100 * d, 10 * d, 1});
  }
  std::map<std::string, Summary> stages = StageSummaries(spans);
  ASSERT_EQ(stages.size(), 2u);
  EXPECT_EQ(stages["admit"].count, 5u);
  EXPECT_EQ(stages["admit"].p50, 3.0);
  EXPECT_EQ(stages["flush"].p50, 30.0);
  EXPECT_EQ(stages["flush"].p99, 40.0);  // floor(0.99 * 4) = 3
}

TEST(Remainder, SubtractsEveryPartWithoutClamping) {
  EXPECT_EQ(Remainder(500.0, {300.0, 50.0}), 150.0);
  EXPECT_EQ(Remainder(100.0, {}), 100.0);
  EXPECT_EQ(Remainder(100.0, {80.0, 40.0}), -20.0);
}

}  // namespace
}  // namespace perfbench
