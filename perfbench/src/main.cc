// wsflow repository benchmark.
//
//   perfbench --workload plan_mix|serve_zipf|sim_replay
//             --seed N --seconds S --trace 0|1 [--trace-out FILE]
//             [--calib-ref-ms X] [--slo-ms X]
//
// Runs one seeded, fixed-work workload against the wsflow library linked
// in-process, checks every answer, and prints one JSON object as the last
// line of standard output with every metric it measured. perfbench/run.py
// builds this binary and selects the end-to-end or per-layer metrics.
// Exits 1 when an answer check fails, 2 on bad arguments.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>

#include "perfbench/src/bench.h"

namespace perfbench {

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Fail(const std::string& what) {
  if (errors_.size() < 20) std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
  errors_.push_back(what);
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  char buf[64];
  for (size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double Harness::SpanMedian(const std::string& name,
                           const std::string& unit) const {
  const auto& names = tracer.names();
  auto it = std::find(names.begin(), names.end(), name);
  if (it == names.end()) return 0;
  const uint32_t id = static_cast<uint32_t>(it - names.begin());
  std::vector<int64_t> self = tracer.SelfTimes();
  std::vector<double> values;
  for (size_t i = 0; i < self.size(); ++i) {
    const Span& span = tracer.spans()[i];
    if (span.name == id) values.push_back(self[i] / span.work);
  }
  double scale = unit == "ns" ? 1.0 : unit == "us" ? 1e-3
               : unit == "ms" ? 1e-6 : 1e-9;
  return Median(values) * scale;
}

void Harness::AddSpanMetric(const std::string& metric,
                            const std::string& span,
                            const std::string& unit) {
  report.Add(metric, SpanMedian(span, unit), unit);
}

void ReportTimings(Harness& h, const std::vector<double>& op_ms,
                   const std::vector<double>& setup_s, double ops_per_s_raw,
                   uint64_t slo_attempted, const Calibrator* ops_calib) {
  const double calib_ms = h.calib.MedianMs();
  const double factor = SpeedFactor(calib_ms, h.opts.calib_ref_ms);
  const double ops_factor =
      ops_calib ? SpeedFactor(ops_calib->MedianMs(), h.opts.calib_ref_ms)
                : factor;
  const double setup_factor =
      SpeedFactor(h.setup_calib.MedianMs(), h.opts.calib_ref_ms);
  LatencySummary raw = Summarize(op_ms);
  if (ops_per_s_raw == 0) {
    double total_ms = 0;
    for (double x : op_ms) total_ms += x;
    ops_per_s_raw = total_ms > 0 ? op_ms.size() / (total_ms * 1e-3) : 0;
  }
  size_t within = 0;
  for (double x : op_ms) within += Calibrate(x, factor) <= h.opts.slo_ms;

  Report& r = h.report;
  if (slo_attempted == 0) slo_attempted = r.attempted;
  r.Add("setup_s", Calibrate(Median(setup_s), setup_factor), "s");
  r.Add("p50_ms", Calibrate(raw.p50, factor), "ms");
  r.Add("p99_ms", Calibrate(raw.tail, factor), "ms");
  r.Add("ops_per_s", ops_per_s_raw / ops_factor, "1/s");
  r.Add("slo_ratio",
        slo_attempted ? static_cast<double>(within) / slo_attempted : 0,
        "ratio");
  r.Add("peak_rss_mb", PeakRssMb(), "MB");

  r.Add("host.calib_ms", calib_ms, "ms");
  r.Add("bench.raw_setup_s", Median(setup_s), "s");
  r.Add("bench.raw_p50_ms", raw.p50, "ms");
  r.Add("bench.raw_p99_ms", raw.tail, "ms");
  r.Add("bench.raw_ops_per_s", ops_per_s_raw, "1/s");
  r.Add("bench.samples", static_cast<double>(raw.count), "count");
  r.Add("bench.tail_q", raw.tail_q, "ratio");
  std::fprintf(stderr,
               "%s: %zu ops, p50 %.4f ms, tail(q=%.4f, %zu beyond) %.4f ms, "
               "%.2f ops/s raw, calib %.4f ms (%zu samples), factor %.4f, ops factor %.4f\n",
               h.opts.workload.c_str(), raw.count, raw.p50, raw.tail_q,
               SamplesBeyond(raw.count, raw.tail_q), raw.tail, ops_per_s_raw,
               calib_ms, h.calib.samples_ms().size(), factor, ops_factor);
}

bool PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return false;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof(one), &one) == 0;
  }
  return false;
}

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return usage.ru_maxrss / 1024.0;  // ru_maxrss is in KiB on Linux.
}

}  // namespace perfbench

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "plan_mix|serve_zipf|sim_replay --seed N "
               "--seconds S --trace 0|1 [--trace-out FILE] "
               "[--calib-ref-ms X] [--slo-ms X]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opts.workload = value;
    } else if (flag == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      opts.seconds = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (flag == "--trace") {
      opts.trace = value == "1";
    } else if (flag == "--trace-out") {
      opts.trace_out = value;
    } else if (flag == "--calib-ref-ms") {
      opts.calib_ref_ms = std::strtod(value.c_str(), &end);
    } else if (flag == "--slo-ms") {
      opts.slo_ms = std::strtod(value.c_str(), &end);
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0') {
      return Usage(("bad value for " + flag).c_str());
    }
  }
  if (opts.seconds < 1) return Usage("--seconds must be >= 1");

  if (!perfbench::PinToOneCpu()) {
    std::fprintf(stderr, "perfbench: cannot pin to one CPU; running unpinned\n");
  }
  perfbench::Harness h(opts);
  int rc;
  if (opts.workload == "plan_mix") {
    rc = perfbench::RunPlanMix(h);
  } else if (opts.workload == "serve_zipf") {
    rc = perfbench::RunServeZipf(h);
  } else if (opts.workload == "sim_replay") {
    rc = perfbench::RunSimReplay(h);
  } else {
    return Usage(("unknown workload '" + opts.workload + "'").c_str());
  }
  if (rc != 0) return rc;
  if (opts.trace && !opts.trace_out.empty() &&
      !h.tracer.WriteTsv(opts.trace_out)) {
    h.report.Fail("cannot write spans to " + opts.trace_out);
  }
  std::printf("%s\n", h.report.ToJson().c_str());
  std::fflush(stdout);
  return h.report.correct() ? 0 : 1;
}
