#include "perfbench/src/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int64_t SelfTimeNs(int64_t start, int64_t end,
                   std::vector<std::pair<int64_t, int64_t>> children) {
  if (end <= start) return 0;
  for (auto& c : children) {
    c.first = std::clamp(c.first, start, end);
    c.second = std::clamp(c.second, start, end);
  }
  std::sort(children.begin(), children.end());
  int64_t covered = 0;
  int64_t run_start = 0, run_end = 0;
  bool open = false;
  for (const auto& [s, e] : children) {
    if (e <= s) continue;
    if (open && s <= run_end) {
      run_end = std::max(run_end, e);
      continue;
    }
    if (open) covered += run_end - run_start;
    run_start = s;
    run_end = e;
    open = true;
  }
  if (open) covered += run_end - run_start;
  return std::max<int64_t>(0, (end - start) - covered);
}

uint32_t Tracer::Intern(const std::string& name) {
  auto it = std::find(names_.begin(), names_.end(), name);
  if (it != names_.end()) return static_cast<uint32_t>(it - names_.begin());
  names_.push_back(name);
  return static_cast<uint32_t>(names_.size() - 1);
}

int32_t Tracer::Begin(uint32_t name, int64_t op) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.op = op;
  spans_.push_back(span);
  int32_t index = static_cast<int32_t>(spans_.size() - 1);
  open_.push_back(index);
  spans_.back().start_ns = NowNs();
  return index;
}

void Tracer::End(int32_t index) {
  if (index < 0) return;
  spans_[index].end_ns = NowNs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<int64_t> Tracer::SelfTimes() const {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  }
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = SelfTimeNs(spans_[i].start_ns, spans_[i].end_ns,
                         std::move(children[i]));
  }
  return self;
}

bool Tracer::WriteTsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<int64_t> self = SelfTimes();
  std::fprintf(f, "name\tstart_ns\tend_ns\tparent\top\twork\tself_ns\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f, "%s\t%lld\t%lld\t%d\t%lld\t%g\t%lld\n",
                 names_[s.name].c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<long long>(s.op), s.work,
                 static_cast<long long>(self[i]));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
