#include "perfbench/src/calibration.h"

#include <chrono>
#include <functional>
#include <limits>
#include <queue>
#include <unordered_map>
#include <utility>

#include "perfbench/src/stats.h"
#include "src/common/random.h"

namespace perfbench {

namespace {

constexpr uint32_t kNodes = 600;
constexpr uint32_t kDegree = 6;
constexpr uint32_t kSources = 6;
// Every sample runs the identical graph, so samples differ only by host speed.
constexpr uint64_t kKernelSeed = 0x5EEDCA1Bull;

}  // namespace

uint64_t CalibrationKernel(uint64_t seed) {
  struct Edge {
    uint32_t to;
    uint32_t weight;
  };
  wsflow::Rng rng(seed);
  std::vector<std::vector<Edge>> adj(kNodes);
  for (uint32_t v = 0; v < kNodes; ++v) {
    adj[v].reserve(kDegree + 1);
    adj[v].push_back({(v + 1) % kNodes, 1 + static_cast<uint32_t>(
                                                rng.NextUint64() % 97)});
    for (uint32_t k = 0; k < kDegree; ++k) {
      uint64_t r = rng.NextUint64();
      adj[v].push_back({static_cast<uint32_t>(r % kNodes),
                        1 + static_cast<uint32_t>((r >> 32) % 997)});
    }
  }

  uint64_t checksum = 0;
  std::vector<uint64_t> dist(kNodes);
  using Item = std::pair<uint64_t, uint32_t>;
  for (uint32_t s = 0; s < kSources; ++s) {
    std::fill(dist.begin(), dist.end(), std::numeric_limits<uint64_t>::max());
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    uint32_t source = static_cast<uint32_t>(rng.NextUint64() % kNodes);
    dist[source] = 0;
    heap.push({0, source});
    while (!heap.empty()) {
      auto [d, v] = heap.top();
      heap.pop();
      if (d != dist[v]) continue;
      for (const Edge& e : adj[v]) {
        uint64_t nd = d + e.weight;
        if (nd < dist[e.to]) {
          dist[e.to] = nd;
          heap.push({nd, e.to});
        }
      }
    }
    // Hash-map pass: bucket nodes by distance and fold the bucket sizes.
    std::unordered_map<uint64_t, uint32_t> buckets;
    for (uint32_t v = 0; v < kNodes; ++v) ++buckets[dist[v] / 16];
    for (uint32_t v = 0; v < kNodes; v += 3) {
      auto it = buckets.find(dist[v] / 16);
      checksum = checksum * 31 + (it == buckets.end() ? 0 : it->second) + v;
    }
    checksum ^= buckets.size();
  }
  return checksum;
}

double SpeedFactor(double median_kernel_ms, double reference_ms) {
  if (median_kernel_ms <= 0 || reference_ms <= 0) return 1.0;
  return reference_ms / median_kernel_ms;
}

void Calibrator::Sample() {
  sink_ ^= CalibrationKernel(kKernelSeed);
  auto start = std::chrono::steady_clock::now();
  sink_ ^= CalibrationKernel(kKernelSeed);
  auto end = std::chrono::steady_clock::now();
  samples_ms_.push_back(
      std::chrono::duration<double, std::milli>(end - start).count());
}

double Calibrator::MedianMs() const { return Median(samples_ms_); }

}  // namespace perfbench
