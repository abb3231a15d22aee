// Reducers that turn the ledger's raw samples into reported numbers:
// percentiles with their sample count, self time over a span tree, per-stage
// summaries of trace-ring spans, and the remainder a whole leaves after its
// stages. Header-only so reducers_test.cc can check them without a workload.
#ifndef FLEXIWALKER_PERFBENCH_REDUCERS_H_
#define FLEXIWALKER_PERFBENCH_REDUCERS_H_

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace perfbench {

// A sample's median and 99th percentile, by the repo's one percentile
// definition (obs::PercentileOfSorted: the element at floor(q * (n - 1)) of
// the sorted sample, 0 when empty), with the count they rest on.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
};

inline Summary Summarize(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  return {samples.size(), flexi::obs::PercentileOfSorted(samples, 0.50),
          flexi::obs::PercentileOfSorted(samples, 0.99)};
}

inline double Median(std::vector<double> samples) { return Summarize(std::move(samples)).p50; }

// One span of a call tree on one timeline: [start, end) plus the index of
// the span that caused it (-1 for a root).
struct TreeSpan {
  uint64_t start = 0;
  uint64_t end = 0;
  int parent = -1;
};

// Each span's self time: its duration minus the part of its interval that
// its direct children cover. Overlapping children count once, and a child's
// time outside its parent's interval is not the parent's to lose.
inline std::vector<uint64_t> SelfTimes(std::span<const TreeSpan> spans) {
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> covered(spans.size());
  for (const TreeSpan& child : spans) {
    if (child.parent < 0 || static_cast<size_t>(child.parent) >= spans.size()) {
      continue;
    }
    const TreeSpan& parent = spans[child.parent];
    uint64_t begin = std::max(child.start, parent.start);
    uint64_t end = std::min(child.end, parent.end);
    if (begin < end) {
      covered[child.parent].emplace_back(begin, end);
    }
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    uint64_t duration = spans[i].end > spans[i].start ? spans[i].end - spans[i].start : 0;
    std::vector<std::pair<uint64_t, uint64_t>>& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    uint64_t busy = 0;
    uint64_t reach = 0;  // end of the merged coverage so far
    for (const auto& [begin, end] : intervals) {
      uint64_t from = std::max(begin, reach);
      if (end > from) {
        busy += end - from;
      }
      reach = std::max(reach, end);
    }
    self[i] = duration - std::min(busy, duration);
  }
  return self;
}

// Per-stage duration summaries (µs) of trace-ring spans, keyed by span name.
// Ring spans carry no parent, and the server's stages — decode, admit,
// coalesce, schedule, complete, flush — follow one another without nesting,
// so a stage span's self time is its duration. `request` spans the whole
// decode-to-cork interval and is summarized whole.
inline std::map<std::string, Summary> StageSummaries(std::span<const flexi::obs::TraceSpan> spans) {
  std::map<std::string, std::vector<double>> by_stage;
  for (const flexi::obs::TraceSpan& span : spans) {
    by_stage[span.name].push_back(static_cast<double>(span.dur_us));
  }
  std::map<std::string, Summary> summaries;
  for (auto& [stage, samples] : by_stage) {
    summaries[stage] = Summarize(std::move(samples));
  }
  return summaries;
}

// What a whole leaves after its measured parts: e.g. client rtt p50 minus
// server request p50 minus flush p50 is the time a request spends outside
// every server span. Not clamped — a negative remainder says the parts
// overlap.
inline double Remainder(double whole, std::initializer_list<double> parts) {
  for (double part : parts) {
    whole -= part;
  }
  return whole;
}

}  // namespace perfbench

#endif  // FLEXIWALKER_PERFBENCH_REDUCERS_H_
