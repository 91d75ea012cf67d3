#include "perfbench/src/stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

namespace {

size_t RankIndex(size_t n, double q) {
  if (n == 0) return 0;
  double rank = std::ceil(q * static_cast<double>(n));
  size_t idx = rank <= 1 ? 0 : static_cast<size_t>(rank) - 1;
  return std::min(idx, n - 1);
}

}  // namespace

double TailQuantile(size_t n) {
  if (n <= kTailSamplesBeyond) return 0;
  // Largest q with ceil(q * n) <= n - kTailSamplesBeyond.
  double q = static_cast<double>(n - kTailSamplesBeyond) /
             static_cast<double>(n);
  return std::min(q, 0.99);
}

size_t SamplesBeyond(size_t n, double q) {
  if (n == 0) return 0;
  return n - 1 - RankIndex(n, q);
}

double NearestRank(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  size_t idx = RankIndex(values.size(), q);
  std::nth_element(values.begin(), values.begin() + idx, values.end());
  return values[idx];
}

double Median(std::vector<double> values) {
  return NearestRank(std::move(values), 0.5);
}

LatencySummary Summarize(const std::vector<double>& values) {
  LatencySummary s;
  s.count = values.size();
  if (values.empty()) return s;
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  s.p50 = sorted[RankIndex(s.count, 0.5)];
  s.tail_q = TailQuantile(s.count);
  s.tail = sorted[RankIndex(s.count, s.tail_q)];
  s.max = sorted.back();
  s.mean = std::accumulate(sorted.begin(), sorted.end(), 0.0) /
           static_cast<double>(s.count);
  return s;
}

}  // namespace perfbench
