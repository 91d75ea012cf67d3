// Shared harness of the benchmark workloads: command-line options, the
// result report, span-derived per-layer metrics and the calibrated
// end-to-end summary.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/calibration.h"
#include "perfbench/src/stats.h"
#include "perfbench/src/trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// Where the traced run writes its spans (tab-separated).
  std::string trace_out;
  /// Reference median calibration-kernel time; 0 reports raw timings.
  double calib_ref_ms = 0;
  /// Per-operation latency limit of slo_ratio, in ms.
  double slo_ms = 0;
};

/// Metrics and answer checks of one run.
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Records a failed answer check; the run then reports correct=false.
  void Fail(const std::string& what);
  /// Fails with `what` unless `ok`.
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  bool correct() const { return errors_.empty(); }
  const std::vector<std::string>& errors() const { return errors_; }

  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
  std::string ToJson() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> errors_;
};

struct Harness {
  explicit Harness(const Options& o) : opts(o), tracer(o.trace) {}

  Options opts;
  Tracer tracer;
  /// Samples taken in the timed phase, and interleaved in setup.
  Calibrator calib;
  Calibrator setup_calib;
  Report report;
  int64_t process_start_ns = NowNs();

  uint32_t Name(const std::string& name) { return tracer.Intern(name); }

  /// Median over the spans named `name` of self time per unit of work,
  /// scaled to `unit` ("ns", "us", "ms" or "s"); 0 when no such span was
  /// recorded.
  double SpanMedian(const std::string& name, const std::string& unit) const;
  /// Adds SpanMedian(span, unit) as metric `metric`.
  void AddSpanMetric(const std::string& metric, const std::string& span,
                     const std::string& unit);
};

/// Reports the end-to-end timing metrics from raw per-operation times (ms)
/// and the setup repetitions (s). Every timing is rescaled by the speed
/// factor of this run's calibration samples against opts.calib_ref_ms
/// (setup_s by the samples taken during setup); the raw figures are kept
/// as bench.raw_* per-layer metrics. `op_ms` holds the OK operations only;
/// slo_ratio is the share of `slo_attempted` operations (default:
/// report.attempted) that are among them and no slower than opts.slo_ms,
/// on the calibrated scale. `ops_per_s_raw` overrides the closed-loop
/// throughput op_ms implies; `ops_calib`, when given, calibrates it with
/// its own samples (a phase of its own) instead of h.calib's.
void ReportTimings(Harness& h, const std::vector<double>& op_ms,
                   const std::vector<double>& setup_s,
                   double ops_per_s_raw = 0, uint64_t slo_attempted = 0,
                   const Calibrator* ops_calib = nullptr);

/// Restricts the calling thread, and every thread it starts later, to the
/// highest-numbered CPU it may run on. Returns false when the affinity
/// cannot be set.
bool PinToOneCpu();

/// Peak resident set of this process in MB.
double PeakRssMb();

int RunPlanMix(Harness& h);
int RunServeZipf(Harness& h);
int RunSimReplay(Harness& h);

/// Per-layer metrics of the fleet controller, measured by the traced
/// plan_mix run (fleet_probe.cc).
void ProbeFleet(Harness& h, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
