// Host-speed calibration of the single-thread workloads.
//
// The benchmark host's speed drifts (shared cores, frequency changes), so
// raw timings of identical work spread far more than a regression bound.
// A calibration kernel owned by the benchmark — compute-bound, branchy and
// allocating, like the library's own search code — runs interleaved in
// the timing thread at fixed operation indices. Each sample runs the
// kernel twice back to back and times only the second pass, so a cold
// cache after a long operation does not count. A run's timings are then
// rescaled by (reference kernel ms) / (this run's median kernel ms): they
// read as milliseconds at the speed of the host the reference was taken
// on.
#ifndef PERFBENCH_SRC_CALIBRATION_H_
#define PERFBENCH_SRC_CALIBRATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// One pass of the kernel: Dijkstra from several sources over a seeded
/// 600-node sparse graph, then a hash-map pass over the distances.
/// Returns a checksum so the work cannot be optimized away; the checksum
/// is a pure function of `seed`.
uint64_t CalibrationKernel(uint64_t seed);

/// Factor that turns raw timings into reference-host timings:
/// reference_ms / median_kernel_ms. 1 when either input is not positive.
double SpeedFactor(double median_kernel_ms, double reference_ms);

/// raw * factor.
inline double Calibrate(double raw, double factor) { return raw * factor; }

class Calibrator {
 public:
  /// Runs the kernel twice and records the second pass, in ms.
  void Sample();
  const std::vector<double>& samples_ms() const { return samples_ms_; }
  /// Median of the samples (0 when none were taken).
  double MedianMs() const;

 private:
  std::vector<double> samples_ms_;
  uint64_t sink_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_CALIBRATION_H_
