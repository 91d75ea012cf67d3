// In-memory span recorder of the traced benchmark run.
//
// A span covers one call the benchmark makes into a layer's public
// functions: its name, start, end, the span that encloses it and the
// operation it belongs to. Spans are kept in memory and written once at
// exit, so recording costs a clock read and a vector append. A span's
// self time is its duration minus the union of its child spans, clipped
// to the parent's interval. The recorder is single-threaded: spans are
// only opened on the benchmark's timing thread.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Nanoseconds on the steady clock.
int64_t NowNs();

struct Span {
  uint32_t name = 0;     ///< Index into Tracer::names().
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;   ///< Index of the enclosing span, -1 at top level.
  int64_t op = -1;       ///< Operation id, -1 outside any operation.
  double work = 1;       ///< Equal units of work the span covers.
};

/// Duration of [start, end] minus the length of the union of `children`
/// intervals after clipping each to [start, end]. Never negative.
int64_t SelfTimeNs(int64_t start, int64_t end,
                   std::vector<std::pair<int64_t, int64_t>> children);

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Interned id of a span name.
  uint32_t Intern(const std::string& name);

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when tracing is off.
  int32_t Begin(uint32_t name, int64_t op);
  /// Closes the span `index` (which must be the innermost open one).
  void End(int32_t index);
  /// Sets how many equal units of work span `index` covers (a fan of
  /// candidates, a batch of round trips); -1 is ignored.
  void SetWork(int32_t index, double work) {
    if (index >= 0) spans_[index].work = work;
  }

  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::string>& names() const { return names_; }

  /// Self time of every span, parallel to spans().
  std::vector<int64_t> SelfTimes() const;

  /// Writes one tab-separated line per span:
  /// name, start_ns, end_ns, parent index, op id, work, self_ns.
  bool WriteTsv(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, uint32_t name, int64_t op = -1)
      : tracer_(tracer), index_(tracer.Begin(name, op)) {}
  ~ScopedSpan() { tracer_.End(index_); }
  void set_work(double work) { tracer_.SetWork(index_, work); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
