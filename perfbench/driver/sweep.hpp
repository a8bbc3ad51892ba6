// One sweep as a user runs it: scenario text -> scenario::parse_scenario ->
// cli::run_sweep, with an obs::TrialProfiler attached so every cell's wall
// time is known, and the checks that compare two sweeps' outputs.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "audit/auditor.hpp"
#include "cli/sweep_runner.hpp"
#include "obs/profiler.hpp"
#include "spans.hpp"

namespace perfbench {

struct SweepSettings {
  std::size_t jobs = 1;
  bool metrics = false;
  simsweep::audit::AuditMode audit = simsweep::audit::AuditMode::kOff;
  std::string journal_path;  ///< "" = no journal
  std::string resume_path;   ///< "" = fresh sweep
  /// Skip every cell: the sweep then measures set-up alone.
  bool setup_only = false;
};

struct SweepRun {
  simsweep::scenario::ScenarioSpec spec;
  simsweep::cli::SweepResult result;
  std::vector<simsweep::obs::TrialProfiler::TaskRecord> cells;
  /// Scenario text handed to the parser -> first cell begins.
  double setup_s = 0.0;
  /// Wall time of the run_sweep call alone.
  double wall_s = 0.0;
  /// Report bytes: every SeriesReport's print_json, one per line.
  std::string report;

  [[nodiscard]] std::size_t trials_simulated() const {
    return result.cells_executed * spec.trials;
  }
  /// Sum of the profiled cell wall times.
  [[nodiscard]] double cell_seconds() const;
  [[nodiscard]] std::vector<double> cell_ms() const;
};

/// Parses `text` and runs it.  With `spans` set, records "parse",
/// "run_sweep" and one span per profiled cell (on its worker) under
/// `parent`.
[[nodiscard]] SweepRun run_sweep_once(const std::string& text,
                                      const SweepSettings& settings,
                                      SpanRecorder* spans = nullptr,
                                      SpanRecorder::Id parent = 0);

[[nodiscard]] std::string report_bytes(const simsweep::cli::SweepResult& r);

/// Cells whose reported values differ between two sweeps of one scenario
/// (bitwise, NaN included).  A sweep whose report shape differs counts
/// every cell.
[[nodiscard]] std::size_t mismatched_cells(
    const simsweep::cli::SweepResult& a, const simsweep::cli::SweepResult& b);

}  // namespace perfbench
