#include "sweep.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <set>
#include <sstream>
#include <utility>

#include "scenario/scenario.hpp"

namespace perfbench {

namespace cli = simsweep::cli;

double SweepRun::cell_seconds() const {
  double total = 0.0;
  for (const auto& c : cells) total += c.end_s - c.begin_s;
  return total;
}

std::vector<double> SweepRun::cell_ms() const {
  std::vector<double> out;
  out.reserve(cells.size());
  for (const auto& c : cells) out.push_back((c.end_s - c.begin_s) * 1e3);
  return out;
}

SweepRun run_sweep_once(const std::string& text, const SweepSettings& settings,
                        SpanRecorder* spans, SpanRecorder::Id parent) {
  SweepRun run;
  // The profiler's epoch is the instant the text is handed to the parser,
  // so the first cell's begin time is the set-up time.
  simsweep::obs::TrialProfiler profiler;
  const double offset = spans != nullptr ? spans->now() : 0.0;
  {
    const ScopedSpan span(spans, "parse", parent);
    run.spec = simsweep::scenario::parse_scenario(text, "perfbench");
  }

  cli::SweepPlan plan;
  plan.spec = run.spec;
  plan.jobs = settings.jobs;
  plan.audit = settings.audit;
  plan.metrics = settings.metrics;
  plan.journal_path = settings.journal_path;
  plan.resume_path = settings.resume_path;
  plan.profiler = &profiler;
  if (settings.setup_only)
    plan.hooks.interrupted = [] { return true; };
  else
    plan.hooks.interrupted = [] { return false; };

  const double call_begin = profiler.now();
  SpanRecorder::Id sweep_span = 0;
  {
    const ScopedSpan span(spans, "run_sweep", parent);
    sweep_span = span.id();
    run.result = cli::run_sweep(plan);
  }
  run.wall_s = profiler.now() - call_begin;
  run.cells = profiler.records();
  std::sort(run.cells.begin(), run.cells.end(),
            [](const auto& a, const auto& b) { return a.task < b.task; });
  double first_begin = run.wall_s + call_begin;
  for (const auto& c : run.cells)
    first_begin = std::min(first_begin, c.begin_s);
  run.setup_s = first_begin;
  if (spans != nullptr)
    for (const auto& c : run.cells)
      spans->add("cell " + std::to_string(c.task), sweep_span, c.worker + 1,
                 offset + c.begin_s, offset + c.end_s);
  run.report = report_bytes(run.result);
  return run;
}

std::string report_bytes(const cli::SweepResult& r) {
  std::ostringstream os;
  for (const auto& report : r.reports) {
    report.print_json(os);
    os << '\n';
  }
  return os.str();
}

std::size_t mismatched_cells(const cli::SweepResult& a,
                             const cli::SweepResult& b) {
  const auto same = [](double x, double y) {
    return std::bit_cast<std::uint64_t>(x) == std::bit_cast<std::uint64_t>(y);
  };
  const std::size_t all = std::max(a.cells_total, b.cells_total);
  if (a.reports.size() != b.reports.size()) return all;
  std::set<std::pair<std::size_t, std::size_t>> bad;
  for (std::size_t r = 0; r < a.reports.size(); ++r) {
    const auto& ra = a.reports[r];
    const auto& rb = b.reports[r];
    if (ra.x.size() != rb.x.size() || ra.series.size() != rb.series.size())
      return all;
    for (std::size_t s = 0; s < ra.series.size(); ++s) {
      const auto& sa = ra.series[s];
      const auto& sb = rb.series[s];
      if (sa.y.size() != sb.y.size() ||
          sa.adaptations.size() != sb.adaptations.size())
        return all;
      for (std::size_t x = 0; x < sa.y.size(); ++x)
        if (!same(sa.y[x], sb.y[x]) ||
            !same(sa.adaptations[x], sb.adaptations[x]))
          bad.emplace(x, s);
    }
  }
  return bad.size();
}

}  // namespace perfbench
