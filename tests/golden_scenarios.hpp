// Fixed scenarios shared by the golden-identity test and the (offline)
// capture tool that produced its expected values.
//
// Each scenario runs all five techniques on fixed seeds; the recorded
// makespans, iteration/adaptation counts, overheads and FailureStats were
// captured from the pre-refactor strategy layer and must stay bitwise
// identical: refactors are pure restructurings and may not move a single
// simulated event.
//
// The configs, load models and technique lineup now come from the shipped
// scenarios/golden_*.json files — the same declarative specs `simsweep
// bench` runs — so the golden table also pins the scenario layer: a change
// to parsing or materialization that alters a config shows up here as a
// moved makespan.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.hpp"
#include "load/hyperexp.hpp"
#include "load/misc_models.hpp"
#include "load/onoff.hpp"
#include "scenario/scenario.hpp"
#include "strategy/strategy.hpp"

namespace golden {

namespace core = simsweep::core;
namespace app = simsweep::app;
namespace load = simsweep::load;
namespace scn = simsweep::scenario;
namespace strat = simsweep::strategy;

/// One (scenario, technique, seed) cell of the golden table.
struct Row {
  const char* scenario;
  const char* technique;
  std::uint64_t seed;
  double makespan_s;
  std::size_t iterations;
  std::size_t adaptations;
  double adaptation_overhead_s;
  strat::FailureStats failures;
};

inline const std::vector<std::string>& scenarios() {
  static const std::vector<std::string> kScenarios{"calm", "faulty",
                                                   "hostile", "reclaim"};
  return kScenarios;
}

inline const std::vector<std::uint64_t>& seeds() {
  static const std::vector<std::uint64_t> kSeeds{1, 2, 3};
  return kSeeds;
}

/// The shipped golden_<scenario>.json spec, loaded once per scenario.
inline const scn::ScenarioSpec& spec_for(const std::string& scenario) {
  static std::map<std::string, scn::ScenarioSpec> cache;
  auto it = cache.find(scenario);
  if (it == cache.end())
    it = cache
             .emplace(scenario, scn::find_scenario("golden_" + scenario,
                                                   scn::default_scenario_dir()))
             .first;
  return it->second;
}

/// The technique lineup is the variant list (identical across the four
/// files; golden_calm is the canonical copy).
inline const std::vector<std::string>& techniques() {
  static const std::vector<std::string> kTechniques = [] {
    std::vector<std::string> names;
    for (const scn::VariantSpec& v : spec_for("calm").variants)
      names.push_back(v.name);
    return names;
  }();
  return kTechniques;
}

/// Paper-shaped platform: 32 hosts, 4 active, full over-allocation.
inline core::ExperimentConfig config_for(const std::string& scenario) {
  return scn::base_config(spec_for(scenario));
}

/// golden_faulty shrunk until crash recovery runs out of hosts: 6 hosts
/// (2 spares) and a 2 h MTBF, so most cells give up (resource_exhausted).
/// Runs with model_for("faulty").
inline core::ExperimentConfig exhausting_config() {
  core::ExperimentConfig cfg = config_for("faulty");
  cfg.cluster.host_count = 6;
  cfg.spare_count = 2;
  cfg.faults.host_mtbf_s = 2.0 * 3600.0;
  return cfg;
}

inline std::shared_ptr<const load::LoadModel> model_for(
    const std::string& scenario) {
  return scn::make_load_model(spec_for(scenario).load);
}

/// Load models no golden_*.json covers, by name: trace replay, composite
/// ON/OFF and hyperexponential lifetimes.
inline std::unique_ptr<load::LoadModel> extra_model(const std::string& name) {
  if (name == "trace") {
    // Off-grid sample times and a random phase per host, so the replay's
    // `now + max(0, when - now)` arithmetic is exercised.
    return std::make_unique<load::TraceModel>(
        std::vector<simsweep::sim::Sample>{{0.0, 0.0},
                                           {130.25, 1.0},
                                           {171.5, 2.0},
                                           {460.0, 0.0},
                                           {812.75, 1.0}},
        1000.0, /*random_phase=*/true);
  }
  if (name == "composite") {
    // Two parts on the same 100 s grid tie often; one on a 70 s grid.
    return std::make_unique<load::CompositeOnOffModel>(
        std::vector<load::OnOffParams>{{.p = 0.3, .q = 0.3, .step_s = 100.0},
                                       {.p = 0.2, .q = 0.4, .step_s = 100.0},
                                       {.p = 0.1, .q = 0.5, .step_s = 70.0}});
  }
  if (name == "hyperexp")
    return std::make_unique<load::HyperExpModel>(load::HyperExpParams{});
  throw std::invalid_argument("golden: unknown extra model " + name);
}

inline std::unique_ptr<strat::Strategy> make_technique(
    const std::string& technique) {
  for (const scn::VariantSpec& v : spec_for("calm").variants)
    if (v.name == technique) return scn::make_strategy(v.strategy);
  throw std::invalid_argument("golden: unknown technique " + technique);
}

inline strat::RunResult run_cell(
    const std::string& scenario, const std::string& technique,
    std::uint64_t seed,
    simsweep::audit::AuditMode audit = simsweep::audit::AuditMode::kOff,
    core::ObsConfig obs = {}) {
  auto cfg = config_for(scenario);
  cfg.seed = seed;
  cfg.audit = audit;
  cfg.obs = obs;
  const auto model = model_for(scenario);
  const auto strategy = make_technique(technique);
  return core::run_single(cfg, *model, *strategy);
}

}  // namespace golden
