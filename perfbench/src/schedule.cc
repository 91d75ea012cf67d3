#include "perfbench/src/schedule.h"

#include <algorithm>
#include <cmath>

#include "src/common/random.h"

namespace perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  return wsflow::Rng(seed ^ (stream * 0xD1B54A32D192ED03ull)).NextUint64();
}

std::vector<uint32_t> StratifiedList(uint64_t seed,
                                     const std::vector<uint32_t>& per_round,
                                     size_t rounds) {
  std::vector<uint32_t> list;
  for (size_t r = 0; r < rounds; ++r) {
    for (uint32_t s = 0; s < per_round.size(); ++s) {
      list.insert(list.end(), per_round[s], s);
    }
  }
  wsflow::Rng(SubSeed(seed, 0x11)).Shuffle(&list);
  return list;
}

std::vector<Arrival> PoissonZipfSchedule(uint64_t seed, size_t n,
                                         double rate_per_s, size_t catalog,
                                         double zipf_s) {
  std::vector<double> cdf(catalog);
  double total = 0;
  for (size_t k = 0; k < catalog; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), zipf_s);
    cdf[k] = total;
  }
  wsflow::Rng gaps(SubSeed(seed, 0x21));
  wsflow::Rng keys(SubSeed(seed, 0x22));
  std::vector<Arrival> out(n);
  double t = 0;
  for (size_t i = 0; i < n; ++i) {
    t += -std::log(1.0 - gaps.NextDouble()) / rate_per_s;
    double u = keys.NextDouble() * total;
    size_t k = std::upper_bound(cdf.begin(), cdf.end(), u) - cdf.begin();
    out[i].due_s = t;
    out[i].key = static_cast<uint32_t>(std::min(k, catalog - 1));
  }
  return out;
}

}  // namespace perfbench
