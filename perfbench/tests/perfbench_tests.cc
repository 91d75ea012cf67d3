// Tests of the benchmark's own arithmetic: the tail-percentile rule, the
// seeded operation lists and arrival schedules, due-time latency, span
// self time and host-speed calibration.
//
//   cmake --build .bench_build --target perfbench_tests
//   .bench_build/perfbench_tests
#include <cmath>
#include <cstdio>
#include <vector>

#include "perfbench/src/calibration.h"
#include "perfbench/src/schedule.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                             \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-12; }

using namespace perfbench;

void TailPercentileRule() {
  // p99 once 1000 samples leave ten beyond it; below that the rule walks
  // down to the highest quantile that still leaves ten.
  EXPECT(Near(TailQuantile(1000), 0.99));
  EXPECT(Near(TailQuantile(5000), 0.99));
  EXPECT(Near(TailQuantile(500), 0.98));
  EXPECT(Near(TailQuantile(11), 1.0 / 11));
  EXPECT(TailQuantile(10) == 0);
  for (size_t n : {11, 20, 99, 500, 999, 1000, 1001, 4321}) {
    EXPECT(SamplesBeyond(n, TailQuantile(n)) >= kTailSamplesBeyond);
  }
  EXPECT(SamplesBeyond(1000, 0.99) == 10);
  EXPECT(SamplesBeyond(500, 0.98) == 10);

  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT(NearestRank(v, 0.5) == 50);
  EXPECT(NearestRank(v, 0.99) == 99);
  EXPECT(NearestRank(v, 0) == 1);
  EXPECT(NearestRank({}, 0.5) == 0);

  LatencySummary s = Summarize(v);
  EXPECT(s.count == 100);
  EXPECT(s.p50 == 50);
  EXPECT(Near(s.tail_q, 0.9));
  EXPECT(s.tail == 90);  // ten samples (91..100) beyond it
  EXPECT(s.max == 100);
  EXPECT(Near(s.mean, 50.5));
}

void ListsArePureFunctionsOfTheSeed() {
  const std::vector<uint32_t> per_round = {1, 1, 1, 2};
  std::vector<uint32_t> a = StratifiedList(7, per_round, 50);
  std::vector<uint32_t> b = StratifiedList(7, per_round, 50);
  std::vector<uint32_t> c = StratifiedList(8, per_round, 50);
  EXPECT(a == b);
  EXPECT(a != c);  // another seed, another order ...
  EXPECT(a.size() == 250 && c.size() == 250);  // ... but the same work
  std::vector<size_t> count(per_round.size());
  for (uint32_t s : c) ++count[s];
  EXPECT(count[0] == 50 && count[3] == 100);

  std::vector<Arrival> x = PoissonZipfSchedule(3, 2000, 400, 64, 1.0);
  std::vector<Arrival> y = PoissonZipfSchedule(3, 2000, 400, 64, 1.0);
  EXPECT(x.size() == 2000);
  bool same = true, increasing = true, in_range = true;
  size_t hot = 0;
  for (size_t i = 0; i < x.size(); ++i) {
    same = same && x[i].due_s == y[i].due_s && x[i].key == y[i].key;
    increasing = increasing && (i == 0 || x[i].due_s > x[i - 1].due_s);
    in_range = in_range && x[i].key < 64;
    hot += x[i].key == 0;
  }
  EXPECT(same && increasing && in_range);
  // Zipf(1) over 64 keys puts about 1/H(64) = 21% of requests on key 0;
  // the mean gap of a 400/s Poisson stream is 2.5 ms.
  EXPECT(hot > 300 && hot < 560);
  EXPECT(std::fabs(x.back().due_s / x.size() - 0.0025) < 0.0003);
}

void DueTimeLatencyChargesStalls() {
  // Requests due at 0, 1, 2 and 3 ms; the generator stalls from just
  // after the first until 5 ms, then sends the three it held back. Each
  // is charged the time it waited behind the stall.
  const double due[] = {0.000, 0.001, 0.002, 0.003};
  const double submit[] = {0.000, 0.005, 0.005, 0.005};
  const double wait = 0.0002, service = 0.0003;
  for (int i = 0; i < 4; ++i) {
    double expect = (submit[i] - due[i]) + wait + service;
    EXPECT(Near(DueTimeLatency(due[i], submit[i], wait, service), expect));
  }
  EXPECT(Near(DueTimeLatency(0.001, 0.005, 0, 0), 0.004));
  // A request sent early (never happens, but never negative).
  EXPECT(Near(DueTimeLatency(0.010, 0.009, wait, service), wait + service));
}

void SpanSelfTimeSubtractsClippedUnion() {
  // Parent [0, 100]; children overlap each other and stick out of it.
  std::vector<std::pair<int64_t, int64_t>> children = {
      {10, 30}, {20, 50}, {90, 120}, {-5, 5}, {60, 60}};
  // Union inside the parent: [0,5] + [10,50] + [90,100] = 55.
  EXPECT(SelfTimeNs(0, 100, children) == 45);
  EXPECT(SelfTimeNs(0, 100, {}) == 100);
  EXPECT(SelfTimeNs(0, 100, {{-10, 200}}) == 0);
  EXPECT(SelfTimeNs(50, 40, {}) == 0);

  Tracer tracer(true);
  const uint32_t outer = tracer.Intern("outer");
  const uint32_t inner = tracer.Intern("inner");
  EXPECT(tracer.Intern("outer") == outer);
  {
    ScopedSpan a(tracer, outer, 7);
    { ScopedSpan b(tracer, inner, 7); }
    { ScopedSpan c(tracer, inner, 7); }
  }
  { ScopedSpan d(tracer, inner); }
  const std::vector<Span>& spans = tracer.spans();
  EXPECT(spans.size() == 4);
  EXPECT(spans[0].parent == -1 && spans[1].parent == 0 &&
         spans[2].parent == 0 && spans[3].parent == -1);
  EXPECT(spans[1].op == 7 && spans[3].op == -1);
  std::vector<int64_t> self = tracer.SelfTimes();
  const int64_t outer_dur = spans[0].end_ns - spans[0].start_ns;
  const int64_t kids = (spans[1].end_ns - spans[1].start_ns) +
                       (spans[2].end_ns - spans[2].start_ns);
  EXPECT(self[0] == outer_dur - kids);
  EXPECT(self[1] == spans[1].end_ns - spans[1].start_ns);

  Tracer off(false);
  { ScopedSpan e(off, off.Intern("x")); }
  EXPECT(off.spans().empty());
}

void CalibrationArithmetic() {
  // A host twice as slow as the reference runs the kernel in 2 ms against
  // a 1 ms reference: its timings are halved to read at reference speed.
  EXPECT(Near(SpeedFactor(2.0, 1.0), 0.5));
  EXPECT(Near(Calibrate(10.0, SpeedFactor(2.0, 1.0)), 5.0));
  EXPECT(Near(Calibrate(10.0, SpeedFactor(0.5, 1.0)), 20.0));
  // Throughput scales the other way: ops/s / factor.
  EXPECT(Near(100.0 / SpeedFactor(2.0, 1.0), 200.0));
  // No reference (or no samples) leaves timings raw.
  EXPECT(SpeedFactor(2.0, 0) == 1.0);
  EXPECT(SpeedFactor(0, 1.0) == 1.0);

  EXPECT(CalibrationKernel(42) == CalibrationKernel(42));
  EXPECT(CalibrationKernel(42) != CalibrationKernel(43));
  Calibrator calib;
  EXPECT(calib.MedianMs() == 0);
  for (int i = 0; i < 5; ++i) calib.Sample();
  EXPECT(calib.samples_ms().size() == 5);
  EXPECT(calib.MedianMs() > 0);
}

}  // namespace

int main() {
  TailPercentileRule();
  ListsArePureFunctionsOfTheSeed();
  DueTimeLatencyChargesStalls();
  SpanSelfTimeSubtractsClippedUnion();
  CalibrationArithmetic();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench_tests: all checks passed\n");
  return 0;
}
