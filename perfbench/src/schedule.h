// Seeded operation lists and arrival schedules.
//
// Every workload performs a fixed list of operations that is a pure
// function of the seed; a run never stops on a time limit, so a slow host
// times the same work as a fast one, only more slowly.
#ifndef PERFBENCH_SRC_SCHEDULE_H_
#define PERFBENCH_SRC_SCHEDULE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Derives an independent seed for substream `stream` of `seed`; the
/// benchmark's draws come from wsflow::Rng seeded with it.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// A stratified operation list: stratum s appears rounds * per_round[s]
/// times, in an order shuffled by `seed`. The length never depends on
/// anything but `per_round` and `rounds`.
std::vector<uint32_t> StratifiedList(uint64_t seed,
                                     const std::vector<uint32_t>& per_round,
                                     size_t rounds);

struct Arrival {
  double due_s = 0;  ///< Offset from the schedule start.
  uint32_t key = 0;  ///< Catalog index, Zipf-distributed.
};

/// `n` arrivals of a Poisson process at `rate_per_s`, each naming a key
/// drawn from Zipf(`zipf_s`) over [0, catalog). Pure function of the
/// arguments.
std::vector<Arrival> PoissonZipfSchedule(uint64_t seed, size_t n,
                                         double rate_per_s, size_t catalog,
                                         double zipf_s);

/// Latency of an open-loop request timed from when it was due: the time
/// the generator held it back (submit - due) plus its queue wait and
/// service time. A generator stall therefore charges every request it
/// delayed, not only the first.
inline double DueTimeLatency(double due_s, double submit_s,
                             double queue_wait_s, double service_s) {
  double late = submit_s > due_s ? submit_s - due_s : 0.0;
  return late + queue_wait_s + service_s;
}

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SCHEDULE_H_
