// Latency statistics of the benchmark: the tail-percentile rule and the
// summaries every workload reports.
#ifndef PERFBENCH_SRC_STATS_H_
#define PERFBENCH_SRC_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly beyond a reported tail percentile.
inline constexpr size_t kTailSamplesBeyond = 10;

/// The highest quantile, capped at 0.99, that leaves at least
/// kTailSamplesBeyond of `n` samples strictly above its nearest-rank
/// index. 0 when n <= kTailSamplesBeyond (no quantile qualifies).
double TailQuantile(size_t n);

/// Nearest-rank quantile: the sorted sample at index ceil(q * n) - 1
/// (index 0 for q == 0). `values` need not be sorted; 0 when empty.
double NearestRank(std::vector<double> values, double q);

/// Number of samples strictly beyond the nearest-rank index of `q`.
size_t SamplesBeyond(size_t n, double q);

struct LatencySummary {
  size_t count = 0;
  double p50 = 0;
  /// Value at TailQuantile(count) — p99 once count >= 1000.
  double tail = 0;
  double tail_q = 0;
  double max = 0;
  double mean = 0;
};

LatencySummary Summarize(const std::vector<double>& values);

/// Median (nearest rank, q = 0.5).
double Median(std::vector<double> values);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_STATS_H_
