// Translates CLI flags into declarative scenario specs (and from there into
// experiment configurations, load models and strategies).  Factored out of
// main() so it is unit-testable.
//
// Since the scenario layer, flags are overrides on a ScenarioSpec: the spec
// carries the paper defaults, apply_config_flags() folds the platform and
// fault flags in, and the runnable objects come from scenario::base_config /
// make_load_model / make_strategy — one construction path shared with
// `simsweep bench` and the golden tests.
#pragma once

#include <memory>
#include <string>

#include "cli/args.hpp"
#include "core/experiment.hpp"
#include "load/load_model.hpp"
#include "scenario/scenario.hpp"
#include "strategy/strategy.hpp"

namespace simsweep::cli {

/// Applies the platform/application/fault flags onto `spec`: --hosts
/// --active --spares --iters --iter-minutes --state-mb --comm-kb --seed
/// --horizon-hours --mtbf-hours --swap-fail-prob --ckpt-fail-prob
/// --fault-retries --blacklist-after --max-events.  Absent flags leave the
/// spec's values in place; an absent --spares becomes hosts - active only
/// when --hosts or --active was given.
void apply_config_flags(Args& args, scenario::ScenarioSpec& spec);

/// --audit[=fail|warn]; kOff when the flag is absent (the SIMSWEEP_AUDIT
/// env var still applies downstream, inside run_single).
[[nodiscard]] audit::AuditMode parse_audit_flag(Args& args);

/// apply_config_flags + scenario::base_config + parse_audit_flag on a
/// default (paper) spec.
[[nodiscard]] core::ExperimentConfig build_config(Args& args);

/// Flags: --model=onoff|hyperexp|reclaim|trace (+ model parameters:
/// --dynamism | --p/--q/--step, --lifetime/--long-prob/--interarrival,
/// --avail-min/--reclaim-min, --trace-file/--period/--no-phase).
[[nodiscard]] std::shared_ptr<const load::LoadModel> build_load_model(
    Args& args);

/// Flags: --strategy=none|swap|dlb|dlbswap|cr, --policy=greedy|safe|friendly,
/// --payback/--min-process/--min-app/--history (policy overrides),
/// --guard/--stall-factor, --predictor=window|nws|ewma|median.
[[nodiscard]] std::unique_ptr<strategy::Strategy> build_strategy(Args& args);

/// Observability outputs requested on the command line.
struct ObsOptions {
  std::string metrics_path;   ///< merged metrics JSON; empty = off
  std::string timeline_path;  ///< Chrome trace JSON; empty = off
  std::string profile_path;   ///< trial-engine profile as JSON; empty = off
  bool profile = false;       ///< print the trial-engine profile

  /// The wall-clock profiler is needed for either profile output.
  [[nodiscard]] bool want_profiler() const noexcept {
    return profile || !profile_path.empty();
  }
};

/// Flags: --metrics=FILE --timeline=FILE --profile --profile-json=FILE.
/// An absent --metrics / --timeline falls back to SIMSWEEP_METRICS /
/// SIMSWEEP_TIMELINE (empty = unset), so whole suites can be observed
/// without editing command lines.
[[nodiscard]] ObsOptions parse_obs_options(Args& args);

/// Throws std::invalid_argument listing any unconsumed flags.
void reject_unused(const Args& args);

}  // namespace simsweep::cli
