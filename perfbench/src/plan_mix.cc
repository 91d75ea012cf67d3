// plan_mix: the paper's core use case, closed loop on one thread.
//
// Each run plans a fixed, seeded list of distinct problems — no problem
// repeats, so no cache can help. A problem is handed over as XML text and
// one operation is: parse the workflow and network, compute the execution
// profile (graph workflows), run the deployment algorithm. Problems are
// stratified so every run holds the same mix:
//
//   Class C  line    M=19 on a  5-server bus
//   Class C  hybrid  M=48 on a 14-server fat-tree
//   Class C  bushy   M=32 on a 12-server hierarchical WAN
//   Class C  lengthy M=64 on a 16-server bus
//       each solved once per round by portfolio, fltr2-polish, hill-climb
//       and annealing;
//   Class A  line    M=19 on a  5-server 100 Mbps bus, solved by astar
//       (kAStarPerRound per round), certified optimal.
//
// After the timed loop every answer is re-scored cold and checked; the
// traced run also times the cost, network and bound-table layers on each
// problem, and runs the fleet probe (fleet_probe.cc).
#include <cmath>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/schedule.h"
#include "src/cost/cost_model.h"
#include "src/cost/incremental.h"
#include "src/deploy/algorithm.h"
#include "src/deploy/astar.h"
#include "src/deploy/bound_tables.h"
#include "src/exp/config.h"
#include "src/network/routing.h"
#include "src/network/serialization.h"
#include "src/workflow/probability.h"
#include "src/workflow/serialization.h"

namespace perfbench {

namespace {

using namespace wsflow;

constexpr int kRoundsPerSecond = 5;
constexpr uint32_t kAStarPerRound = 2;
constexpr int kSetupReps = 3;
constexpr size_t kCalibStride = 4;
constexpr size_t kWarmupPlans = 17;

struct Family {
  WorkloadKind kind;
  size_t ops;
  ExperimentTopology topology;
  size_t servers;
};

constexpr Family kFamilies[] = {
    {WorkloadKind::kLine, 19, ExperimentTopology::kBus, 5},
    {WorkloadKind::kHybridGraph, 48, ExperimentTopology::kFatTree, 14},
    {WorkloadKind::kBushyGraph, 32, ExperimentTopology::kHierarchical, 12},
    {WorkloadKind::kLengthyGraph, 64, ExperimentTopology::kBus, 16},
};
constexpr size_t kNumFamilies = sizeof(kFamilies) / sizeof(kFamilies[0]);

constexpr const char* kAlgorithms[] = {"portfolio", "fltr2-polish",
                                       "hill-climb", "annealing"};
constexpr size_t kNumAlgorithms = sizeof(kAlgorithms) / sizeof(kAlgorithms[0]);
// Stratum ids: family * kNumAlgorithms + algorithm, then the astar stratum.
constexpr uint32_t kAStarStratum = kNumFamilies * kNumAlgorithms;

std::string MetricAlgoName(const std::string& algo) {
  std::string out = algo;
  for (char& c : out) {
    if (c == '-') c = '_';
  }
  return out;
}

struct Problem {
  uint32_t stratum = 0;
  std::string algorithm;
  uint64_t seed = 0;
  std::string workflow_xml;
  std::string network_xml;
};

ExperimentConfig ConfigFor(uint32_t stratum, uint64_t seed) {
  ExperimentConfig cfg;
  if (stratum == kAStarStratum) {
    cfg = MakeClassAConfig(WorkloadKind::kLine);
    cfg.num_operations = 19;
    cfg.num_servers = 5;
    cfg.fixed_bus_speed_bps = 100e6;
  } else {
    const Family& f = kFamilies[stratum / kNumAlgorithms];
    cfg = MakeClassCConfig(f.kind);
    cfg.num_operations = f.ops;
    cfg.num_servers = f.servers;
    cfg.topology = f.topology;
    cfg.fat_tree.spines = 2;
    cfg.fat_tree.racks = 3;
    cfg.fat_tree.rack_size = 4;
  }
  cfg.seed = SubSeed(seed, 0x100 + stratum);
  return cfg;
}

/// Generates the run's problems in list order. Each (stratum, occurrence)
/// pair draws its own trial, so no two problems coincide.
Result<std::vector<Problem>> MakeProblems(uint64_t seed,
                                          const std::vector<uint32_t>& list,
                                          uint64_t trial_offset) {
  std::vector<uint64_t> occurrences(kAStarStratum + 1, trial_offset);
  std::vector<Problem> problems;
  problems.reserve(list.size());
  for (size_t i = 0; i < list.size(); ++i) {
    const uint32_t s = list[i];
    WSFLOW_ASSIGN_OR_RETURN(TrialInstance trial,
                            DrawTrial(ConfigFor(s, seed), occurrences[s]++));
    Problem p;
    p.stratum = s;
    p.algorithm = s == kAStarStratum ? "astar" : kAlgorithms[s % kNumAlgorithms];
    p.seed = SubSeed(seed, 0x10000 + i);
    p.workflow_xml = WorkflowToXmlString(trial.workflow);
    p.network_xml = NetworkToXmlString(trial.network);
    problems.push_back(std::move(p));
  }
  return problems;
}

/// One solved problem, kept for the answer checks.
struct Solved {
  Workflow workflow;
  Network network;
  std::optional<ExecutionProfile> profile;
  Mapping mapping;
  AStarStats astar;
};

/// Parses and solves `p`, opening a span per layer call. Returns the error
/// of the first failing call.
Status Solve(Harness& h, const Problem& p, int64_t op, Solved* out) {
  const uint32_t kParse = h.Name("workflow.parse");
  const uint32_t kProfile = h.Name("workflow.profile");
  {
    ScopedSpan span(h.tracer, kParse, op);
    WSFLOW_ASSIGN_OR_RETURN(out->workflow,
                            WorkflowFromXmlString(p.workflow_xml));
    WSFLOW_ASSIGN_OR_RETURN(out->network, NetworkFromXmlString(p.network_xml));
  }
  if (!out->workflow.IsLine()) {
    ScopedSpan span(h.tracer, kProfile, op);
    WSFLOW_ASSIGN_OR_RETURN(ExecutionProfile profile,
                            ComputeExecutionProfile(out->workflow));
    out->profile = std::move(profile);
  }
  DeployContext ctx;
  ctx.workflow = &out->workflow;
  ctx.network = &out->network;
  ctx.profile = out->profile ? &*out->profile : nullptr;
  ctx.seed = p.seed;
  ScopedSpan span(h.tracer, h.Name("deploy." + MetricAlgoName(p.algorithm)),
                  op);
  if (p.stratum == kAStarStratum) {
    WSFLOW_ASSIGN_OR_RETURN(out->mapping,
                            AStarAlgorithm().RunWithStats(ctx, &out->astar));
  } else {
    WSFLOW_ASSIGN_OR_RETURN(out->mapping, RunAlgorithm(p.algorithm, ctx));
  }
  return Status::OK();
}

/// Traced-run probes of the layers below the algorithms, on one solved
/// problem (the caller times the cold evaluation): route warm-up on
/// fat-tree and hierarchical networks, evaluator bind, a batched move fan,
/// Apply/Evaluate/Undo round trips and the A* bound tables.
void ProbeLayers(Harness& h, const Solved& s, int64_t op) {
  const uint32_t kWarm = h.Name("network.warm");
  const uint32_t kBind = h.Name("cost.bind");
  const uint32_t kScore = h.Name("cost.score_moves");
  const uint32_t kRoundTrip = h.Name("cost.round_trip");
  const uint32_t kBounds = h.Name("deploy.bound_tables");
  const ExecutionProfile* profile = s.profile ? &*s.profile : nullptr;
  if (s.network.kind() != NetworkKind::kBus) {  // a no-op on a bus
    Router router(s.network);
    ScopedSpan span(h.tracer, kWarm, op);
    router.WarmAllPairs();
  }
  CostModel model(s.workflow, s.network, profile);
  Result<IncrementalEvaluator> eval = Status::Internal("unbound");
  {
    ScopedSpan span(h.tracer, kBind, op);
    eval = IncrementalEvaluator::Bind(model, s.mapping);
  }
  if (!eval.ok()) {
    h.report.Fail("bind: " + eval.status().ToString());
    return;
  }
  const size_t n = s.network.num_servers();
  const size_t m = s.workflow.num_operations();
  std::vector<ServerId> servers;
  for (size_t k = 0; k < n; ++k) servers.push_back(ServerId(k));
  std::vector<double> costs(n);
  const OperationId mover(static_cast<uint32_t>(op % m));
  {
    ScopedSpan span(h.tracer, kScore, op);
    span.set_work(static_cast<double>(n));
    h.report.Check(eval->ScoreMoves(mover, servers, costs).ok(), "ScoreMoves");
  }
  {
    ScopedSpan span(h.tracer, kRoundTrip, op);
    span.set_work(static_cast<double>(n));
    for (size_t k = 0; k < n; ++k) {
      bool ok = eval->Apply(mover, servers[k]).ok();
      ok = ok && eval->Evaluate().ok();
      ok = ok && eval->Undo().ok();
      if (!ok) h.report.Fail("Apply/Evaluate/Undo round trip");
    }
  }
  DeployContext ctx;
  ctx.workflow = &s.workflow;
  ctx.network = &s.network;
  ctx.profile = profile;
  ScopedSpan span(h.tracer, kBounds, op);
  h.report.Check(BoundTables::Build(ctx).ok(), "BoundTables::Build");
}

}  // namespace

int RunPlanMix(Harness& h) {
  const Options& o = h.opts;
  std::vector<uint32_t> per_round(kAStarStratum + 1, 1);
  per_round[kAStarStratum] = kAStarPerRound;
  const size_t rounds = static_cast<size_t>(o.seconds) * kRoundsPerSecond;

  // Setup: generate every problem as XML text and warm the algorithms on a
  // disjoint problem set, kSetupReps times; the last repetition's inputs
  // are used and every repetition must produce the same inputs.
  std::vector<double> setup_s;
  std::vector<Problem> problems;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const int64_t start = rep == 0 ? h.process_start_ns : NowNs();
    std::vector<uint32_t> list = StratifiedList(o.seed, per_round, rounds);
    Result<std::vector<Problem>> made = MakeProblems(o.seed, list, 0);
    if (!made.ok()) {
      std::fprintf(stderr, "plan_mix setup: %s\n",
                   made.status().ToString().c_str());
      return 1;
    }
    std::vector<uint32_t> warm_list(kAStarStratum + 1);
    for (uint32_t s = 0; s < warm_list.size(); ++s) warm_list[s] = s;
    Result<std::vector<Problem>> warm =
        MakeProblems(o.seed, warm_list, 1u << 20);
    if (!warm.ok()) return 1;
    for (size_t k = 0; k < kWarmupPlans && k < warm->size(); ++k) {
      h.setup_calib.Sample();
      Solved s;
      h.report.Check(Solve(h, (*warm)[k], -1, &s).ok(), "warm-up plan");
    }
    if (rep > 0) {
      bool same = made->size() == problems.size();
      for (size_t i = 0; same && i < problems.size(); ++i) {
        same = (*made)[i].workflow_xml == problems[i].workflow_xml &&
               (*made)[i].network_xml == problems[i].network_xml &&
               (*made)[i].seed == problems[i].seed;
      }
      h.report.Check(same, "problem list is not a pure function of the seed");
    }
    problems = std::move(*made);
    setup_s.push_back((NowNs() - start) * 1e-9);
  }

  // Timed loop: one operation per problem, calibration at fixed indices.
  const uint32_t kOp = h.Name("plan_mix.op");
  std::vector<Solved> solved(problems.size());
  std::vector<double> op_ms;
  op_ms.reserve(problems.size());
  h.report.attempted = problems.size();
  for (size_t i = 0; i < problems.size(); ++i) {
    if (i % kCalibStride == 0) h.calib.Sample();
    const int64_t start = NowNs();
    Status st;
    {
      ScopedSpan span(h.tracer, kOp, static_cast<int64_t>(i));
      st = Solve(h, problems[i], static_cast<int64_t>(i), &solved[i]);
    }
    const int64_t end = NowNs();
    if (!st.ok()) {
      ++h.report.failed;
      h.report.Fail("plan " + std::to_string(i) + ": " + st.ToString());
      continue;
    }
    op_ms.push_back((end - start) * 1e-6);
  }
  h.calib.Sample();

  // Answer checks, untimed: every mapping total and finite under a cold
  // re-score; astar proven optimal and no worse than portfolio.
  const uint32_t kEvaluate = h.Name("cost.evaluate");
  double cost_sum = 0;
  size_t cost_n = 0;
  uint64_t expanded = 0;
  for (size_t i = 0; i < problems.size(); ++i) {
    const Solved& s = solved[i];
    if (!s.mapping.IsTotal()) {
      h.report.Fail("plan " + std::to_string(i) + " mapping is not total");
      continue;
    }
    const ExecutionProfile* profile = s.profile ? &*s.profile : nullptr;
    CostModel model(s.workflow, s.network, profile);
    Result<CostBreakdown> cost = Status::Internal("unscored");
    {
      ScopedSpan span(h.tracer, kEvaluate, static_cast<int64_t>(i));
      cost = model.Evaluate(s.mapping);
    }
    if (!cost.ok() || !std::isfinite(cost->combined)) {
      h.report.Fail("plan " + std::to_string(i) + " scores non-finite");
      continue;
    }
    cost_sum += cost->combined;
    ++cost_n;
    if (problems[i].stratum == kAStarStratum) {
      expanded += s.astar.expanded;
      h.report.Check(s.astar.proven_optimal,
                     "astar plan " + std::to_string(i) + " not proven");
      DeployContext ctx;
      ctx.workflow = &s.workflow;
      ctx.network = &s.network;
      ctx.profile = profile;
      ctx.seed = problems[i].seed;
      Result<Mapping> port = RunAlgorithm("portfolio", ctx);
      Result<CostBreakdown> port_cost =
          port.ok() ? model.Evaluate(*port) : Result<CostBreakdown>(port.status());
      h.report.Check(port_cost.ok() &&
                         cost->combined <= port_cost->combined * (1 + 1e-9),
                     "astar plan " + std::to_string(i) + " worse than portfolio");
    }
    if (h.tracer.enabled()) ProbeLayers(h, s, static_cast<int64_t>(i));
  }
  if (h.tracer.enabled()) ProbeFleet(h, o.seed);

  ReportTimings(h, op_ms, setup_s);
  Report& r = h.report;
  r.Add("cost_ms", cost_n ? cost_sum / cost_n * 1e3 : 0, "ms");
  if (h.tracer.enabled()) {
    h.AddSpanMetric("workflow.parse_us", "workflow.parse", "us");
    h.AddSpanMetric("workflow.profile_us", "workflow.profile", "us");
    h.AddSpanMetric("network.warm_us", "network.warm", "us");
    h.AddSpanMetric("cost.evaluate_us", "cost.evaluate", "us");
    h.AddSpanMetric("cost.bind_us", "cost.bind", "us");
    // Fan and round-trip spans cover one candidate per server.
    h.AddSpanMetric("cost.score_move_ns", "cost.score_moves", "ns");
    h.AddSpanMetric("cost.round_trip_ns", "cost.round_trip", "ns");
    for (const char* algo : kAlgorithms) {
      const std::string name = MetricAlgoName(algo);
      h.AddSpanMetric("deploy." + name + "_ms", "deploy." + name, "ms");
    }
    h.AddSpanMetric("deploy.astar_ms", "deploy.astar", "ms");
    h.AddSpanMetric("deploy.bound_tables_us", "deploy.bound_tables", "us");
  }
  r.Add("deploy.astar_expanded", static_cast<double>(expanded), "count");
  return 0;
}

}  // namespace perfbench
