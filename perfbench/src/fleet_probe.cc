// The fleet probe of the traced plan_mix run: per-layer metrics of the
// multi-tenant fleet controller.
//
// kTenants tenants of kArchetypes Class C workflow templates are admitted
// onto one shared farm (timed as fleet.admit), then kProbeEpochs
// FleetController::RunEpoch calls run: traffic drift, queue promotion,
// regression watch and a wave of warm migration polishes against the other
// tenants' shared load. Every kCostEvery epochs each tenant's shared cost is
// re-scored cold (cost.shared_evaluate), and at the end an independent audit
// recounts every deployed tenant's demand against the farm budget.
//
// The fleet has no end-to-end workload of its own: a fleet epoch's times
// sit in a narrow band (p99 about 1.2x p50), so its p99 measured how noisy
// the shared host was, and its spread over ten seeds reached 20% (see
// README.md).
#include <cmath>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "perfbench/src/schedule.h"
#include "src/common/random.h"
#include "src/cost/cost_model.h"
#include "src/cost/shared_load.h"
#include "src/deploy/graph_view.h"
#include "src/exp/config.h"
#include "src/fleet/admission.h"
#include "src/fleet/controller.h"

namespace perfbench {

namespace {

using namespace wsflow;

constexpr size_t kArchetypes = 16;
constexpr size_t kTenants = 192;
constexpr size_t kOps = 32;
constexpr size_t kServers = 64;
constexpr size_t kMigrationsPerEpoch = 16;
constexpr size_t kProbeEpochs = 200;
constexpr size_t kCostEvery = 25;

/// Archetype workflows and their shared farm. Storage is filled before
/// any CostModel takes a reference.
struct Farm {
  Network network;
  std::vector<Workflow> workflows;
  std::vector<std::optional<ExecutionProfile>> profiles;
  std::deque<CostModel> models;
  std::unique_ptr<fleet::FleetController> controller;
};

fleet::FleetOptions MakeOptions() {
  fleet::FleetOptions options;
  options.drift.sigma = 0.2;
  // Every deployed tenant counts as regressed, so each epoch re-polishes
  // the kMigrationsPerEpoch most-drifted tenants: a continuous
  // re-optimization wave. With a positive threshold the wave empties
  // whenever the farm penalty dips below every tenant's baseline, and the
  // epoch loop then times next to nothing.
  options.drift_threshold = -1.0;
  options.max_migrations_per_epoch = kMigrationsPerEpoch;
  options.migration_eval_budget = 512;
  options.deploy_eval_budget = 4096;
  options.threads = 1;
  return options;
}

Status BuildFarm(Harness& h, uint64_t seed, Farm* farm) {
  const uint32_t kAdmit = h.Name("fleet.admit");
  ExperimentConfig cfg = MakeClassCConfig(WorkloadKind::kHybridGraph);
  cfg.num_operations = kOps;
  cfg.num_servers = kServers;
  cfg.seed = SubSeed(seed, 0x700);
  for (size_t k = 0; k < kArchetypes; ++k) {
    WSFLOW_ASSIGN_OR_RETURN(TrialInstance trial, DrawTrial(cfg, k));
    if (k == 0) farm->network = std::move(trial.network);
    farm->workflows.push_back(std::move(trial.workflow));
    farm->profiles.push_back(std::move(trial.profile));
  }
  std::vector<const CostModel*> archetypes;
  for (size_t k = 0; k < kArchetypes; ++k) {
    farm->models.emplace_back(farm->workflows[k], farm->network,
                              farm->profiles[k] ? &*farm->profiles[k]
                                                : nullptr);
    WSFLOW_RETURN_IF_ERROR(farm->models.back().Warm());
    archetypes.push_back(&farm->models.back());
  }
  farm->controller =
      std::make_unique<fleet::FleetController>(archetypes, MakeOptions());
  wsflow::Rng rng(SubSeed(seed, 0x701));
  ScopedSpan span(h.tracer, kAdmit);
  for (size_t i = 0; i < kTenants; ++i) {
    fleet::TenantSpec spec;
    spec.archetype = i % kArchetypes;
    spec.weight = 0.5 + 1.5 * rng.NextDouble();
    spec.drift_seed = rng.NextUint64();
    WSFLOW_RETURN_IF_ERROR(farm->controller->Submit(spec).status());
  }
  return Status::OK();
}

/// Quota violations found by recomputing every deployed tenant's demand
/// from its archetype and current weight.
size_t AuditQuota(const Farm& farm) {
  const fleet::FleetController& c = *farm.controller;
  std::vector<double> unit_demand;
  for (size_t k = 0; k < kArchetypes; ++k) {
    ExecutionProfile profile = farm.models[k].ProfileSnapshot();
    WorkflowView view(farm.workflows[k], &profile);
    unit_demand.push_back(fleet::TenantDemandHz(view, 1.0));
  }
  const fleet::FarmBudget& budget = c.options().budget;
  const double capacity = c.admission().capacity_hz();
  size_t violations = 0;
  double committed = 0;
  for (size_t id = 0; id < c.num_tenants(); ++id) {
    const fleet::TenantState& t = c.tenant(id);
    if (t.status != fleet::TenantStatus::kDeployed) continue;
    const double demand = t.weight * unit_demand[t.spec.archetype];
    committed += demand;
    if (demand > budget.max_tenant_share * capacity * (1 + 1e-9)) ++violations;
  }
  if (committed > budget.max_utilization * capacity * (1 + 1e-9)) {
    ++violations;
  }
  return violations;
}

/// Re-scores every deployed tenant cold: its shared cost under its current
/// weight against the other tenants' loads. Returns how many scored.
size_t ScoreTenants(Harness& h, const Farm& farm) {
  const uint32_t kShared = h.Name("cost.shared_evaluate");
  const fleet::FleetController& c = *farm.controller;
  size_t scored = 0;
  FarmLoadLedger all(kServers);
  for (size_t j = 0; j < c.num_tenants(); ++j) {
    const fleet::TenantState& u = c.tenant(j);
    if (u.status == fleet::TenantStatus::kDeployed) all.Add(u.own_load, u.weight);
  }
  for (size_t id = 0; id < c.num_tenants(); ++id) {
    const fleet::TenantState& t = c.tenant(id);
    if (t.status != fleet::TenantStatus::kDeployed) continue;
    const std::vector<double> others = all.Excluding(t.own_load, t.weight);
    Result<CostBreakdown> cost = Status::Internal("unscored");
    {
      ScopedSpan span(h.tracer, kShared, static_cast<int64_t>(id));
      cost = SharedEvaluate(farm.models[t.spec.archetype], t.mapping,
                            t.weight, others, c.options().cost_options);
    }
    h.report.Check(cost.ok() && std::isfinite(cost->combined),
                   "tenant " + std::to_string(id) +
                       " shared cost does not score");
    scored += cost.ok();
  }
  return scored;
}

}  // namespace

void ProbeFleet(Harness& h, uint64_t seed) {
  Farm farm;
  Status st = BuildFarm(h, seed, &farm);
  if (!st.ok()) {
    h.report.Fail("fleet probe setup: " + st.ToString());
    return;
  }
  const uint32_t kEpoch = h.Name("fleet.epoch");
  uint64_t migrations = 0, evals = 0;
  size_t scored = 0;
  for (size_t e = 0; e < kProbeEpochs; ++e) {
    Result<fleet::EpochReport> report = Status::Internal("not run");
    {
      ScopedSpan span(h.tracer, kEpoch, static_cast<int64_t>(e));
      report = farm.controller->RunEpoch();
    }
    if (!report.ok()) {
      h.report.Fail("fleet epoch " + std::to_string(e) + ": " +
                    report.status().ToString());
      return;
    }
    migrations += report->migrations;
    evals += report->polish_evaluations;
    if ((e + 1) % kCostEvery == 0) scored += ScoreTenants(h, farm);
  }
  h.report.Check(AuditQuota(farm) == 0, "fleet quota audit found violations");
  h.report.Check(scored > 0, "no tenant deployed");
  h.report.Add("fleet.migrations_per_epoch",
               static_cast<double>(migrations) / kProbeEpochs, "count");
  h.report.Add("fleet.polish_evals_per_epoch",
               static_cast<double>(evals) / kProbeEpochs, "count");
  h.AddSpanMetric("fleet.admit_ms", "fleet.admit", "ms");
  h.AddSpanMetric("fleet.epoch_ms", "fleet.epoch", "ms");
  h.AddSpanMetric("cost.shared_evaluate_us", "cost.shared_evaluate", "us");
}

}  // namespace perfbench
