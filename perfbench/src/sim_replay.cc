// sim_replay: the simulator's two event loops, closed loop on one thread.
//
// Setup deploys a fixed set of Class C problems (fltr2-polish) and draws a
// seeded crash/slowdown schedule per replay. One operation is one
// simulator replay of a deployment:
//   * SimulateWithFaults under retry+redispatch (every kRepairEvery-th
//     fault replay also runs the mid-run repair hook), or
//   * SimulateWorkflowStream pushing a Poisson stream of instances.
// Both loops are timed in one list so a merge of the two event cores shows
// up here. Every fault replay must complete all its runs.
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/schedule.h"
#include "src/cost/cost_model.h"
#include "src/deploy/algorithm.h"
#include "src/deploy/repair.h"
#include "src/exp/config.h"
#include "src/sim/fault_sim.h"
#include "src/sim/faults.h"
#include "src/sim/stream.h"

namespace perfbench {

namespace {

using namespace wsflow;

constexpr size_t kDeployments = 384;
constexpr size_t kServers = 8;
constexpr int kRoundsPerSecond = 150;
constexpr size_t kRunsPerReplay = 24;
constexpr size_t kStreamInstances = 120;
constexpr int kSetupReps = 3;
constexpr size_t kCalibStride = 8;

enum Stratum : uint32_t { kFault = 0, kFaultRepair = 1, kStream = 2 };

struct Deployment {
  Workflow workflow;
  Network network;
  std::optional<ExecutionProfile> profile;
  Mapping mapping;
  double nominal_s = 0;  ///< Analytic T_execute of the mapping.
};

struct Replay {
  uint32_t stratum = kFault;
  size_t deployment = 0;
  uint64_t seed = 0;
  std::optional<FaultSchedule> schedule;
};

Result<std::vector<Deployment>> MakeDeployments(uint64_t seed) {
  std::vector<Deployment> out(kDeployments);
  for (size_t k = 0; k < kDeployments; ++k) {
    ExperimentConfig cfg = MakeClassCConfig(
        k % 2 ? WorkloadKind::kHybridGraph : WorkloadKind::kLine);
    cfg.num_operations = 24;
    cfg.num_servers = kServers;
    cfg.seed = SubSeed(seed, 0x400 + k % 2);
    WSFLOW_ASSIGN_OR_RETURN(TrialInstance trial, DrawTrial(cfg, k));
    Deployment& d = out[k];
    d.workflow = std::move(trial.workflow);
    d.network = std::move(trial.network);
    d.profile = std::move(trial.profile);
    DeployContext ctx;
    ctx.workflow = &d.workflow;
    ctx.network = &d.network;
    ctx.profile = d.profile ? &*d.profile : nullptr;
    ctx.seed = SubSeed(seed, 0x500 + k);
    WSFLOW_ASSIGN_OR_RETURN(d.mapping, RunAlgorithm("fltr2-polish", ctx));
    CostModel model(d.workflow, d.network, ctx.profile);
    WSFLOW_ASSIGN_OR_RETURN(d.nominal_s, model.ExecutionTime(d.mapping));
  }
  return out;
}

Result<std::vector<Replay>> MakeReplays(uint64_t seed, size_t rounds,
                                        const std::vector<Deployment>& deps) {
  std::vector<uint32_t> list = StratifiedList(seed, {3, 1, 2}, rounds);
  std::vector<Replay> out(list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    Replay& r = out[i];
    r.stratum = list[i];
    r.deployment = i % kDeployments;
    r.seed = SubSeed(seed, 0x600 + i);
    if (r.stratum == kStream) continue;
    const Deployment& d = deps[r.deployment];
    FaultScheduleOptions fo;
    fo.seed = r.seed;
    fo.horizon_s = 2.0 * d.nominal_s;
    fo.crashes = 2;
    fo.slowdowns = 2;
    fo.min_downtime_s = 0.05 * fo.horizon_s;
    fo.max_downtime_s = 0.20 * fo.horizon_s;
    fo.min_alive = kServers - 2;
    WSFLOW_ASSIGN_OR_RETURN(FaultSchedule schedule,
                            FaultSchedule::Generate(d.network, fo));
    r.schedule = std::move(schedule);
  }
  return out;
}

struct Outcome {
  std::optional<FaultSimResult> fault;
  std::optional<StreamResult> stream;
};

Status RunReplay(const Deployment& d, const Replay& r, Outcome* out) {
  if (r.stratum == kStream) {
    StreamOptions so;
    so.num_instances = kStreamInstances;
    so.arrival_rate = 0.5 / d.nominal_s;
    so.seed = r.seed;
    WSFLOW_ASSIGN_OR_RETURN(out->stream, SimulateWorkflowStream(
                                             d.workflow, d.network, d.mapping,
                                             so));
    return Status::OK();
  }
  FaultSimOptions fo;
  fo.sim.num_runs = kRunsPerReplay;
  fo.sim.seed = r.seed;
  fo.sim.server_contention = true;
  fo.policy = LossPolicy::kRetryRedispatch;
  fo.redispatch_timeout_s = 0.05 * d.nominal_s;
  fo.repair = r.stratum == kFaultRepair;
  fo.profile = d.profile ? &*d.profile : nullptr;
  WSFLOW_ASSIGN_OR_RETURN(out->fault,
                          SimulateWithFaults(d.workflow, d.network, d.mapping,
                                             *r.schedule, fo));
  return Status::OK();
}

/// The alive mask just after the schedule's first crash.
ServerMask FirstCrashMask(const FaultSchedule& schedule, size_t servers) {
  ServerMask mask = ServerMask::AllAlive(servers);
  for (const FaultEvent& e : schedule.events()) {
    if (e.kind == FaultKind::kCrash) {
      mask.SetAlive(e.server, false);
      break;
    }
  }
  return mask;
}

}  // namespace

int RunSimReplay(Harness& h) {
  const Options& o = h.opts;
  const size_t rounds = static_cast<size_t>(o.seconds) * kRoundsPerSecond;

  std::vector<double> setup_s;
  std::vector<Deployment> deps;
  std::vector<Replay> replays;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t start = rep == 0 ? h.process_start_ns : NowNs();
    h.setup_calib.Sample();
    Result<std::vector<Deployment>> made = MakeDeployments(o.seed);
    h.setup_calib.Sample();
    Result<std::vector<Replay>> list =
        made.ok() ? MakeReplays(o.seed, rounds, *made)
                  : Result<std::vector<Replay>>(made.status());
    h.setup_calib.Sample();
    if (!list.ok()) {
      std::fprintf(stderr, "sim_replay setup: %s\n",
                   list.status().ToString().c_str());
      return 1;
    }
    if (rep > 0) {
      bool same = list->size() == replays.size();
      for (size_t k = 0; same && k < kDeployments; ++k) {
        same = (*made)[k].mapping == deps[k].mapping;
      }
      for (size_t i = 0; same && i < replays.size(); ++i) {
        same = (*list)[i].seed == replays[i].seed &&
               (!replays[i].schedule ||
                (*list)[i].schedule->ToString() ==
                    replays[i].schedule->ToString());
      }
      h.report.Check(same, "replay list is not a pure function of the seed");
    }
    deps = std::move(*made);
    replays = std::move(*list);
    // Warm-up: one replay of each kind.
    for (size_t i = 0; i < 3 && i < replays.size(); ++i) {
      Outcome warm;
      h.report.Check(
          RunReplay(deps[replays[i].deployment], replays[i], &warm).ok(),
          "warm-up replay");
    }
    setup_s.push_back((NowNs() - start) * 1e-9);
  }

  const uint32_t kOp = h.Name("sim_replay.op");
  const uint32_t kFaultSpan = h.Name("sim.fault_replay");
  const uint32_t kStreamSpan = h.Name("sim.stream");
  std::vector<Outcome> outcomes(replays.size());
  std::vector<double> op_ms;
  op_ms.reserve(replays.size());
  h.report.attempted = replays.size();
  double fault_s = 0;
  for (size_t i = 0; i < replays.size(); ++i) {
    if (i % kCalibStride == 0) h.calib.Sample();
    const Replay& r = replays[i];
    const int64_t start = NowNs();
    Status st;
    {
      ScopedSpan op(h.tracer, kOp, static_cast<int64_t>(i));
      ScopedSpan span(h.tracer, r.stratum == kStream ? kStreamSpan : kFaultSpan,
                      static_cast<int64_t>(i));
      st = RunReplay(deps[r.deployment], r, &outcomes[i]);
    }
    const int64_t end = NowNs();
    if (!st.ok()) {
      ++h.report.failed;
      h.report.Fail("replay " + std::to_string(i) + ": " + st.ToString());
      continue;
    }
    op_ms.push_back((end - start) * 1e-6);
    if (r.stratum != kStream) fault_s += (end - start) * 1e-9;
  }
  h.calib.Sample();

  // Answer checks: every fault replay completes all of its runs; stream
  // replays deliver every instance.
  Report& rep = h.report;
  double makespan_sum = 0, completion_sum = 0;
  size_t makespans = 0, fault_ops = 0;
  uint64_t tokens_lost = 0, retries = 0, redispatches = 0;
  const uint32_t kRepair = h.Name("deploy.repair");
  for (size_t i = 0; i < replays.size(); ++i) {
    const Outcome& out = outcomes[i];
    if (out.fault) {
      const FaultSimResult& f = *out.fault;
      ++fault_ops;
      completion_sum += f.completion_rate;
      rep.Check(f.completion_rate == 1.0 && f.makespans.size() == f.runs,
                "replay " + std::to_string(i) + " completion " +
                    std::to_string(f.completion_rate));
      for (double m : f.makespans) {
        rep.Check(std::isfinite(m) && m > 0, "non-finite makespan");
        makespan_sum += m;
        ++makespans;
      }
      tokens_lost += f.tokens_lost;
      retries += f.retries;
      redispatches += f.redispatches;
      if (h.tracer.enabled() && replays[i].stratum == kFaultRepair) {
        const Deployment& d = deps[replays[i].deployment];
        CostModel model(d.workflow, d.network,
                        d.profile ? &*d.profile : nullptr);
        ServerMask mask = FirstCrashMask(*replays[i].schedule, kServers);
        ScopedSpan span(h.tracer, kRepair, static_cast<int64_t>(i));
        rep.Check(RepairMapping(model, d.mapping, mask).ok(),
                  "RepairMapping");
      }
    } else if (out.stream) {
      bool ok = out.stream->latencies.size() == kStreamInstances;
      for (double l : out.stream->latencies) ok = ok && std::isfinite(l);
      rep.Check(ok, "stream replay " + std::to_string(i));
    }
  }

  ReportTimings(h, op_ms, setup_s);
  rep.Add("cost_ms", makespans ? makespan_sum / makespans * 1e3 : 0, "ms");
  rep.Add("sim.completion_rate", fault_ops ? completion_sum / fault_ops : 0,
          "ratio");
  rep.Add("sim.tokens_lost", static_cast<double>(tokens_lost), "count");
  rep.Add("sim.retries", static_cast<double>(retries), "count");
  rep.Add("sim.redispatches", static_cast<double>(redispatches), "count");
  rep.Add("sim.runs_per_s",
          fault_s > 0 ? fault_ops * kRunsPerReplay / fault_s : 0, "1/s");
  if (h.tracer.enabled()) {
    h.AddSpanMetric("sim.fault_replay_ms", "sim.fault_replay", "ms");
    h.AddSpanMetric("sim.stream_ms", "sim.stream", "ms");
    h.AddSpanMetric("deploy.repair_ms", "deploy.repair", "ms");
  }
  return 0;
}

}  // namespace perfbench
