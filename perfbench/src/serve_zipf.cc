// serve_zipf: the deployment service under an open-loop Zipf stream.
//
// One generator thread (this one) drives a DeploymentService with two
// workers. Requests name problems of a catalog larger than the result
// cache, drawn Zipf(kZipfS), so the cache both hits and evicts
// (serve.evicted_misses counts the misses on keys it had already
// answered). Requests carry no precomputed digests, as a client sending a
// request body would, so every request pays the service's fingerprinting.
// A miss runs fltr2-polish.
//
//   Setup: the catalog, its fingerprints, a started service, and a serial
//   warm-up stream that fills the cache to its steady hit ratio.
//   Open phase: a fixed Poisson schedule at kOpenRate requests/s, low
//   enough that p99 is the miss service time rather than queueing. Each
//   request is timed from when it was due.
//   Saturation phase: a closed loop keeping kWindow requests in flight;
//   its completions per second are the service's capacity (ops_per_s).
//
// A churn segment of the open phase crashes and recovers servers through
// a HealthTracker; every catalog network has kServers servers, so the mask
// applies to every request. The open phase's counts and costs repeat
// exactly for a seed because its generator
//   * flips churn only when no request is in flight, and
//   * never has two requests in flight that touch the same cache shard
//     (their base and masked fingerprints, with the shard function of
//     serve/cache.cc), so each shard sees its lookups and inserts in
//     schedule order whatever the thread timing.
// A request held back by either rule is still timed from its due time,
// and goes out as soon as the request that blocks it completes.
// The saturation phase drops the shard rule, which would cap concurrency;
// only its throughput is reported.
//
// Placement. Every thread of this workload shares the harness CPU. On a
// shared virtual machine the hand-offs between threads are where the
// timing noise lives: a worker woken on an idle vCPU waits for the
// hypervisor to schedule that vCPU, and which vCPUs share a core changes
// from run to run. On one CPU a hand-off is a context switch, and a
// SCHED_IDLE spinner keeps the CPU out of idle; any thread of the workload
// preempts it at once. The service therefore runs single-core here:
// parallel scaling is a separate workload.
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <future>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/schedule.h"
#include "src/cost/cost_model.h"
#include "src/deploy/algorithm.h"
#include "src/exp/config.h"
#include "src/serve/fingerprint.h"
#include "src/serve/health.h"
#include "src/serve/service.h"
#include "src/workflow/probability.h"

namespace perfbench {

namespace {

using namespace wsflow;
using serve::DeployRequest;
using serve::DeployResponse;
using Clock = std::chrono::steady_clock;

constexpr size_t kCatalog = 400;
constexpr size_t kServers = 8;
constexpr size_t kOps = 19;
constexpr size_t kCacheCapacity = 256;
constexpr size_t kCacheShards = 64;
constexpr size_t kWorkers = 2;
constexpr double kZipfS = 1.0;
constexpr size_t kWarmupRequests = 500;
constexpr double kOpenRate = 200;      // requests per second
constexpr size_t kSatPerSecond = 2000;  // saturation requests per run second
constexpr size_t kSatCalibEvery = 400;
constexpr size_t kWindow = 8 * kWorkers;
constexpr int kSetupReps = 3;
constexpr size_t kHitCheckStride = 8;
constexpr const char* kAlgorithm = "fltr2-polish";
// The generator samples the calibration kernel after request i when
// i % kCalibStride == 0 and the schedule leaves at least kCalibGapS before
// request i + 1 (both pure functions of the seed), once the service is
// idle and if the sample ends kCalibReserve before the next due time.
constexpr size_t kCalibStride = 2;
constexpr double kCalibGapS = 0.008;
constexpr std::chrono::microseconds kCalibReserve{3000};
// While a request is held back, the generator checks every in-flight
// request for completion at least this often.
constexpr std::chrono::microseconds kHeldPoll{100};

/// Keeps the CPU it is started on out of idle while it lives (see the
/// header comment).
class KeepAwake {
 public:
  KeepAwake()
      : thread_([this] {
          sched_param param{};
          if (sched_setscheduler(0, SCHED_IDLE, &param) != 0) return;
          while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
            __builtin_ia32_pause();
#endif
          }
        }) {}
  ~KeepAwake() {
    stop_.store(true, std::memory_order_relaxed);
    thread_.join();
  }
  KeepAwake(const KeepAwake&) = delete;
  KeepAwake& operator=(const KeepAwake&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

struct Entry {
  std::shared_ptr<const Workflow> workflow;
  std::shared_ptr<const Network> network;
  uint64_t seed = 0;
  serve::Fingerprint fingerprint;
};

struct Flip {
  size_t at = 0;  ///< Request index the flip precedes.
  uint32_t server = 0;
  bool crash = true;
};

/// Churn segment at fixed shares of the open phase: two crashes, then the
/// two recoveries.
std::vector<Flip> ChurnFlips(size_t n_open) {
  return {{n_open * 30 / 100, 1, true},
          {n_open * 40 / 100, 5, true},
          {n_open * 55 / 100, 1, false},
          {n_open * 65 / 100, 5, false}};
}

Result<std::vector<Entry>> MakeCatalog(Harness& h, uint64_t seed) {
  const uint32_t kFingerprint = h.Name("serve.fingerprint");
  std::vector<Entry> catalog(kCatalog);
  ExperimentConfig cfg = MakeClassCConfig(WorkloadKind::kLine);
  cfg.num_servers = kServers;
  cfg.num_operations = kOps;
  cfg.seed = SubSeed(seed, 0x200);
  for (size_t k = 0; k < kCatalog; ++k) {
    WSFLOW_ASSIGN_OR_RETURN(TrialInstance trial, DrawTrial(cfg, k));
    Entry& e = catalog[k];
    e.workflow = std::make_shared<const Workflow>(std::move(trial.workflow));
    e.network = std::make_shared<const Network>(std::move(trial.network));
    e.seed = SubSeed(seed, 0x300 + k);
    DeployRequest probe;
    probe.workflow = e.workflow;
    probe.network = e.network;
    probe.algorithm = kAlgorithm;
    probe.seed = e.seed;
    ScopedSpan span(h.tracer, kFingerprint);
    e.fingerprint = serve::RequestFingerprint(probe);
  }
  return catalog;
}

DeployRequest RequestFor(const Entry& e) {
  DeployRequest r;
  r.workflow = e.workflow;
  r.network = e.network;
  r.algorithm = kAlgorithm;
  r.seed = e.seed;
  return r;
}

/// The cold answer a cache hit must replay byte for byte.
Result<std::string> ColdPayload(const Entry& e) {
  DeployContext ctx;
  ctx.workflow = e.workflow.get();
  ctx.network = e.network.get();
  ctx.seed = e.seed;
  DeployResponse cold;
  WSFLOW_ASSIGN_OR_RETURN(cold.mapping, RunAlgorithm(kAlgorithm, ctx));
  CostModel model(*ctx.workflow, *ctx.network);
  WSFLOW_ASSIGN_OR_RETURN(cold.cost, model.Evaluate(cold.mapping));
  return cold.CanonicalPayload();
}

struct Outcome {
  bool submitted = false;
  bool masked = false;  ///< Churn was active when the request went out.
  double due_s = 0;     ///< Open phase only.
  double submit_s = 0;  ///< From the schedule start.
  DeployResponse response;
};

struct InFlight {
  size_t index;
  std::future<DeployResponse> future;
  uint32_t shards[2];
};

}  // namespace

int RunServeZipf(Harness& h) {
  const Options& o = h.opts;
  const size_t n_open = static_cast<size_t>(o.seconds * kOpenRate);
  const size_t n_sat = static_cast<size_t>(o.seconds) * kSatPerSecond;
  const size_t n_total = n_open + n_sat;
  std::optional<KeepAwake> awake(std::in_place);

  std::vector<double> setup_s;
  std::vector<Entry> catalog;
  std::vector<Arrival> schedule;
  std::shared_ptr<serve::HealthTracker> health;
  std::unique_ptr<serve::DeploymentService> service;
  // Keys the cache has answered unmasked; a later unmasked miss on one of
  // them means the cache evicted it.
  std::vector<uint8_t> answered;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t start = rep == 0 ? h.process_start_ns : NowNs();
    h.setup_calib.Sample();
    Result<std::vector<Entry>> made = MakeCatalog(h, o.seed);
    h.setup_calib.Sample();
    if (!made.ok()) {
      std::fprintf(stderr, "serve_zipf setup: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    std::vector<Arrival> sched =
        PoissonZipfSchedule(o.seed, n_total, kOpenRate, kCatalog, kZipfS);
    if (rep > 0) {
      bool same = sched.size() == schedule.size();
      for (size_t i = 0; same && i < sched.size(); ++i) {
        same = sched[i].due_s == schedule[i].due_s &&
               sched[i].key == schedule[i].key;
      }
      for (size_t k = 0; same && k < kCatalog; ++k) {
        same = (*made)[k].fingerprint == catalog[k].fingerprint;
      }
      h.report.Check(same, "catalog or schedule is not a pure function of "
                           "the seed");
    }
    catalog = std::move(*made);
    schedule = std::move(sched);
    health = std::make_shared<serve::HealthTracker>(kServers);
    serve::ServiceOptions so;
    so.num_threads = kWorkers;
    so.cache_capacity = kCacheCapacity;
    so.cache_shards = kCacheShards;
    so.health = health;
    service.reset();
    service = std::make_unique<serve::DeploymentService>(so);
    if (!service->Start().ok()) return 1;
    // Fill the cache with a serial warm-up stream of the same Zipf law, so
    // the open phase starts from a steady hit ratio rather than a burst of
    // cold misses. Serial requests keep the cache state a pure function of
    // the seed.
    answered.assign(kCatalog, 0);
    for (const Arrival& a : PoissonZipfSchedule(SubSeed(o.seed, 0x210),
                                                kWarmupRequests, kOpenRate,
                                                kCatalog, kZipfS)) {
      Result<std::future<DeployResponse>> f =
          service->Submit(RequestFor(catalog[a.key]));
      h.report.Check(f.ok() && f->get().status.ok(), "warm-up request");
      answered[a.key] = 1;
    }
    h.setup_calib.Sample();
    setup_s.push_back((NowNs() - start) * 1e-9);
  }
  // The warm-up requests are not part of the run's counts.
  const serve::MetricsSnapshot warm = service->metrics().Snapshot();

  const uint32_t kSubmit = h.Name("serve.submit");
  const std::vector<Flip> flips = ChurnFlips(n_open);
  size_t next_flip = 0;
  ServerMask mask;  // the tracker's alive mask, refreshed at each flip
  std::vector<Outcome> outcomes(n_total);
  std::vector<InFlight> inflight;
  uint64_t rejected = 0;

  const Clock::time_point t0 = Clock::now();
  auto since_start = [&t0] {
    return std::chrono::duration<double>(Clock::now() - t0).count();
  };
  auto at = [&t0](double s) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(s));
  };
  // `inflight` stays in submission order, so inflight[0] is the request
  // the service's FIFO queue finishes first. Waits until in-flight request
  // k completes or `until` passes, and collects it if it completed.
  auto wait_one = [&](size_t k, Clock::time_point until) {
    std::future<DeployResponse>& f = inflight[k].future;
    if (f.wait_until(until) != std::future_status::ready) return;
    outcomes[inflight[k].index].response = f.get();
    inflight.erase(inflight.begin() + k);
  };
  auto harvest = [&] {
    for (size_t k = inflight.size(); k-- > 0;) wait_one(k, Clock::now());
  };
  auto submit = [&](size_t i, const uint32_t shards[2]) {
    Outcome& out = outcomes[i];
    out.submit_s = since_start();
    Result<std::future<DeployResponse>> f = Status::Internal("unsent");
    {
      ScopedSpan span(h.tracer, kSubmit, static_cast<int64_t>(i));
      f = service->Submit(RequestFor(catalog[schedule[i].key]));
    }
    if (!f.ok()) {
      if (f.status().IsResourceExhausted()) ++rejected;
      return;
    }
    out.submitted = true;
    inflight.push_back({i, std::move(*f), {shards[0], shards[1]}});
  };

  // Open phase. Due requests wait in `pending`; each pass sends, in
  // schedule order, every pending request whose shards are free of the
  // in-flight requests and of the earlier pending ones. That keeps every
  // shard in schedule order while a request stuck behind a slow one holds
  // up only the requests that share its shards.
  struct Pending {
    size_t index;
    uint32_t shards[2];
  };
  std::vector<Pending> pending;
  std::vector<uint8_t> busy(kCacheShards);
  size_t next = 0;
  bool calibrate = false;
  while (next < n_open || !pending.empty()) {
    harvest();
    const bool flip_next =
        next_flip < flips.size() && flips[next_flip].at == next;
    if (flip_next && pending.empty() && inflight.empty()) {
      for (; next_flip < flips.size() && flips[next_flip].at == next;
           ++next_flip) {
        const Flip& f = flips[next_flip];
        if (f.crash) {
          health->ReportCrash(ServerId(f.server));
        } else {
          health->ReportRecovery(ServerId(f.server));
        }
      }
      mask = health->AliveMask();
      continue;
    }
    const double now = since_start();
    while (!flip_next && next < n_open && schedule[next].due_s <= now) {
      calibrate = calibrate ||
                  (next % kCalibStride == 0 && next + 1 < n_open &&
                   schedule[next + 1].due_s - schedule[next].due_s >=
                       kCalibGapS);
      const serve::Fingerprint& base =
          catalog[schedule[next].key].fingerprint;
      const serve::Fingerprint masked =
          serve::WithMaskDigest(base, mask.Digest());
      outcomes[next].due_s = schedule[next].due_s;
      outcomes[next].masked = !mask.trivial();
      pending.push_back({next,
                         {static_cast<uint32_t>(base.hi % kCacheShards),
                          static_cast<uint32_t>(masked.hi % kCacheShards)}});
      ++next;
      if (next_flip < flips.size() && flips[next_flip].at == next) break;
    }
    std::fill(busy.begin(), busy.end(), 0);
    for (const InFlight& f : inflight) busy[f.shards[0]] = busy[f.shards[1]] = 1;
    size_t kept = 0;
    for (const Pending& p : pending) {
      if (!busy[p.shards[0]] && !busy[p.shards[1]]) {
        submit(p.index, p.shards);
      } else {
        pending[kept++] = p;
      }
      busy[p.shards[0]] = busy[p.shards[1]] = 1;
    }
    pending.resize(kept);

    // Nothing more to send now: block until a completion or the next due
    // time, so the workers get the CPU.
    const bool more = next < n_open && !(next_flip < flips.size() &&
                                         flips[next_flip].at == next);
    const Clock::time_point next_due =
        more ? at(schedule[next].due_s) : Clock::time_point::max();
    if (!pending.empty()) {
      // Wait on the in-flight request that blocks the first held one, and
      // look at the others every kHeldPoll, so a held request is sent as
      // soon as any completion frees its shards.
      const Pending& first = pending.front();
      size_t blocker = 0;
      for (size_t k = 0; k < inflight.size(); ++k) {
        const uint32_t* s = inflight[k].shards;
        if (s[0] == first.shards[0] || s[0] == first.shards[1] ||
            s[1] == first.shards[0] || s[1] == first.shards[1]) {
          blocker = k;
          break;
        }
      }
      wait_one(blocker, std::min(next_due, Clock::now() + kHeldPoll));
    } else if (calibrate && more) {
      calibrate = false;
      const Clock::time_point deadline = next_due - kCalibReserve;
      while (!inflight.empty() && Clock::now() < deadline) {
        wait_one(0, deadline);
      }
      if (inflight.empty() && Clock::now() < deadline) h.calib.Sample();
    } else if (!inflight.empty()) {
      wait_one(0, next_due);
    } else if (more) {
      std::this_thread::sleep_until(next_due);
    }
  }
  while (!inflight.empty()) wait_one(0, Clock::time_point::max());
  const serve::MetricsSnapshot end = service->metrics().Snapshot();

  // Saturation phase: a closed loop of kWindow outstanding requests. Every
  // kSatCalibEvery requests the loop drains and samples the calibration
  // kernel; the samples' time is not charged to the capacity, and only
  // these samples calibrate it.
  const double sat_start_s = since_start();
  double sat_calib_s = 0;
  Calibrator sat_calib;
  for (size_t i = n_open; i < n_total; ++i) {
    if ((i - n_open) % kSatCalibEvery == 0) {
      while (!inflight.empty()) wait_one(0, Clock::time_point::max());
      const double before = since_start();
      sat_calib.Sample();
      sat_calib_s += since_start() - before;
    }
    while (inflight.size() >= kWindow) {
      wait_one(0, Clock::time_point::max());
      harvest();
    }
    const uint32_t none[2] = {0, 0};
    submit(i, none);
  }
  while (!inflight.empty()) wait_one(0, Clock::time_point::max());
  service->Stop();
  awake.reset();

  // Tally and check, untimed.
  Report& r = h.report;
  r.attempted = n_total;
  std::vector<double> latency_ms, late_ms, hit_ms, miss_ms, wait_ms;
  uint64_t completed = 0, shed = 0;
  double sat_end_s = sat_start_s;
  // cost_ms averages each distinct answer once, so a few hot keys do not
  // dominate it.
  std::map<uint32_t, std::vector<Mapping>> distinct;
  double cost_sum = 0;
  size_t cost_n = 0;
  const uint32_t kEvaluate = h.Name("cost.evaluate");
  size_t hits_seen = 0;
  uint64_t evicted_misses = 0;
  for (size_t i = 0; i < n_total; ++i) {
    const Outcome& out = outcomes[i];
    if (!out.submitted) continue;
    const DeployResponse& resp = out.response;
    if (resp.status.IsDeadlineExceeded()) {
      ++shed;
      continue;
    }
    if (!resp.status.ok()) {
      ++r.failed;
      r.Fail("request " + std::to_string(i) + ": " + resp.status.ToString());
      continue;
    }
    ++completed;
    if (i >= n_open) {
      sat_end_s = std::max(
          sat_end_s, out.submit_s + resp.queue_wait_s + resp.service_time_s);
      continue;
    }
    // Each key's requests reach its shard in schedule order (see the
    // header comment), so this replays the cache's view of the key.
    if (!out.masked) {
      evicted_misses += !resp.cache_hit && answered[schedule[i].key];
      answered[schedule[i].key] = 1;
    }
    latency_ms.push_back(DueTimeLatency(out.due_s, out.submit_s,
                                        resp.queue_wait_s,
                                        resp.service_time_s) *
                         1e3);
    late_ms.push_back(std::max(0.0, out.submit_s - out.due_s) * 1e3);
    wait_ms.push_back(resp.queue_wait_s * 1e3);
    (resp.cache_hit ? hit_ms : miss_ms).push_back(resp.service_time_s * 1e3);

    const Entry& e = catalog[schedule[i].key];
    CostModel model(*e.workflow, *e.network);
    Result<CostBreakdown> cost = Status::Internal("unscored");
    {
      ScopedSpan span(h.tracer, kEvaluate, static_cast<int64_t>(i));
      cost = model.Evaluate(resp.mapping);
    }
    r.Check(resp.mapping.IsTotal() && cost.ok() &&
                std::isfinite(cost->combined),
            "request " + std::to_string(i) + " answer does not re-score");
    std::vector<Mapping>& answers = distinct[schedule[i].key];
    if (cost.ok() && std::find(answers.begin(), answers.end(),
                               resp.mapping) == answers.end()) {
      answers.push_back(resp.mapping);
      cost_sum += cost->combined;
      ++cost_n;
    }

    if (resp.cache_hit && !out.masked && !resp.degraded && !resp.repaired &&
        hits_seen++ % kHitCheckStride == 0) {
      Result<std::string> cold = ColdPayload(e);
      r.Check(cold.ok() && *cold == resp.CanonicalPayload(),
              "cache hit " + std::to_string(i) +
                  " differs from its cold recompute");
    }
  }
  r.Check(completed + rejected + shed == n_total,
          "completed + rejected + shed != attempted");
  r.Check(end.submitted - warm.submitted == n_open,
          "service did not account every open-phase submission");

  const double sat_s = sat_end_s - sat_start_s - sat_calib_s;
  const double capacity = sat_s > 0 ? n_sat / sat_s : 0;
  ReportTimings(h, latency_ms, setup_s, capacity, n_open, &sat_calib);
  r.Add("cost_ms", cost_n ? cost_sum / cost_n * 1e3 : 0, "ms");

  const uint64_t hits = end.cache_hits - warm.cache_hits;
  const uint64_t misses = end.cache_misses - warm.cache_misses;
  r.Add("serve.hit_ratio",
        hits + misses ? static_cast<double>(hits) / (hits + misses) : 0,
        "ratio");
  r.Add("serve.hit_service_ms", Median(hit_ms), "ms");
  r.Add("serve.miss_service_ms", Median(miss_ms), "ms");
  const LatencySummary wait = Summarize(wait_ms);
  r.Add("serve.queue_wait_p50_ms", wait.p50, "ms");
  r.Add("serve.queue_wait_p99_ms", wait.tail, "ms");
  r.Add("serve.degraded", static_cast<double>(end.degraded - warm.degraded),
        "count");
  r.Add("serve.repaired", static_cast<double>(end.repairs - warm.repairs),
        "count");
  r.Add("serve.repair_failures",
        static_cast<double>(end.repair_failures - warm.repair_failures),
        "count");
  r.Add("serve.rejected", static_cast<double>(rejected), "count");
  r.Add("serve.deadline_exceeded", static_cast<double>(shed), "count");
  r.Add("serve.cache_misses", static_cast<double>(misses), "count");
  r.Add("serve.evicted_misses", static_cast<double>(evicted_misses), "count");
  const LatencySummary late = Summarize(late_ms);
  r.Add("gen.late_p99_ms", late.tail, "ms");
  r.Add("gen.late_max_ms", late.max, "ms");
  if (h.tracer.enabled()) {
    h.AddSpanMetric("serve.fingerprint_us", "serve.fingerprint", "us");
    h.AddSpanMetric("serve.submit_us", "serve.submit", "us");
    h.AddSpanMetric("cost.evaluate_us", "cost.evaluate", "us");
  }
  return 0;
}

}  // namespace perfbench
