// The grid-run front end shared by `simsweep sweep` and `simsweep bench`,
// and `simsweep bench <name|file>` itself.
//
// Both commands run a Kind::kGrid scenario through cli::run_sweep and take
// the same flags for it: parse_grid_flags reads them once, run_grid does
// everything around the run_sweep call (status board, profiler, stderr
// notes, artifact files, exit code 130).  Each command keeps only what it
// owns: building its ScenarioSpec and printing its stdout report.  The
// illustrative bench kinds (payback, load_trace, decision_histogram) have
// dedicated emitters that reproduce the retired standalone bench binaries
// byte-for-byte.
//
// run_bench_scenario is the testable core: tests drive it with an
// ostringstream and compare bytes against the recorded pre-refactor output.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "cli/args.hpp"
#include "cli/config_build.hpp"
#include "cli/sweep_runner.hpp"
#include "load/load_model.hpp"
#include "obs/status.hpp"

namespace simsweep::cli {

/// What `sweep` and `bench` take from the command line for a grid run.
struct GridOptions {
  /// Everything but `spec`, which the command fills in.  trials == 0 means
  /// the scenario's own count.
  SweepPlan plan;
  std::string quarantine_path;  ///< quarantine report JSON; "" = stderr only
  ObsOptions obs;
  obs::StatusBoard::Options status;  ///< path "" = live telemetry off
};

/// Parses the grid flags: --trials --jobs --audit --trial-timeout
/// --trial-retries --journal --resume --quarantine --stop-after-cells
/// --inject-fail --inject-hang, the observability flags and the status
/// flags.  An absent or zero --trials falls back to SIMSWEEP_TRIALS, then to
/// the scenario; an absent or zero --trial-timeout to SIMSWEEP_TRIAL_TIMEOUT.
/// --resume without --journal keeps journaling into the resumed file.
[[nodiscard]] GridOptions parse_grid_flags(Args& args);

/// Runs the grid scenario `opts.plan.spec`: attaches the status board and
/// profiler the options ask for, calls run_sweep, writes the resumed /
/// quarantined / interrupted notes to stderr prefixed "<command>: ", and
/// publishes the quarantine, metrics, timeline and profile-json artifacts
/// atomically.  `print` then writes the command's report, and the --profile
/// table follows on `profile_out`.  Returns 130 when interrupted, else 0.
int run_grid(const char* command, GridOptions opts,
             const std::function<void(const SweepResult&)>& print,
             std::ostream& profile_out);

/// Runs the scenario `opts.plan.spec` of any kind and writes its report(s)
/// to `out` in the byte-exact bench format.  Returns the process exit code;
/// throws on malformed specs and I/O failures.
int run_bench_scenario(const GridOptions& opts, std::ostream& out);

/// Time-weighted mean and peak of a written load trace.
struct LoadTraceSummary {
  double mean_load = 0.0;
  double peak_load = 0.0;
};

/// Simulates one host driven by `model` (seeded with `seed`) up to
/// `horizon_s` and writes its load history as CSV: a "time,cpu_load" header,
/// two rows per change so the plot is rectangular, and a last row at the
/// horizon.  `simsweep trace` and the load_trace bench kind both print this.
LoadTraceSummary write_load_trace(std::ostream& out,
                                  const load::LoadModel& model,
                                  std::uint64_t seed, double horizon_s);

/// `simsweep bench` entry point: `--list`, or a positional scenario name /
/// file path plus the grid flags.  Unknown names throw
/// scenario::UnknownScenarioError (main maps it to exit code 2 with a
/// did-you-mean suggestion).
int cmd_bench(Args& args);

}  // namespace simsweep::cli
