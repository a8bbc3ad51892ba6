// perfbench_driver: runs one benchmark workload in-process and prints its
// metrics.  See ../README.md for the workloads, the metrics and the checks.
//
//   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
//                    [--work-dir DIR] [--expect-digest HEX]
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": cells, "failed": cells,
//    "metrics": {"<name>": {"value": number, "unit": "<unit>"}, ...}}
// with the end-to-end metrics under --trace 0 and the per-layer metrics
// under --trace 1.  Lines before it carry provenance and sample counts.
// Exit code 0 when the run completed (correct or not), 2 on bad arguments,
// 1 when the run itself failed.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "obs/atomic_write.hpp"
#include "obs/json.hpp"
#include "obs/provenance.hpp"
#include "probes.hpp"
#include "resilience/journal.hpp"
#include "resilience/json_read.hpp"
#include "scenario/scenario.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "sweep.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace obs = simsweep::obs;
namespace scenario = simsweep::scenario;
using simsweep::resilience::JsonValue;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string expect_digest;  ///< overrides the pinned digest (self-test)
};

Options parse_options(int argc, char** argv) {
  Options opts;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opts.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      opts.seconds = std::stod(value);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      opts.trace = value == "1";
    } else if (flag == "--work-dir") {
      opts.work_dir = value;
    } else if (flag == "--expect-digest") {
      opts.expect_digest = value;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (!have_workload) throw std::invalid_argument("--workload is required");
  if (find_workload(opts.workload) == nullptr)
    throw std::invalid_argument("unknown workload '" + opts.workload + "'");
  if (!(opts.seconds > 0.0))
    throw std::invalid_argument("--seconds must be > 0");
  return opts;
}

/// Cells attempted and failed over every sweep of the run, plus what went
/// wrong.  A failed cell is quarantined, skipped, or fails an output check.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;

  void sweep(const SweepRun& run) {
    attempted += run.result.cells_total;
    failed += run.result.quarantined.size() + run.result.cells_skipped;
    if (!run.result.quarantined.empty() || run.result.cells_skipped != 0)
      problems.push_back(std::to_string(run.result.quarantined.size()) +
                         " quarantined, " +
                         std::to_string(run.result.cells_skipped) +
                         " skipped");
  }
  void check(std::size_t bad_cells, const std::string& what) {
    if (bad_cells == 0) return;
    failed += bad_cells;
    problems.push_back(what + ": " + std::to_string(bad_cells) + " cell(s)");
  }
};

class Output {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    metrics_.emplace_back(name, value, unit);
  }

  void print(bool correct, const Tally& tally) const {
    std::ostringstream os;
    os << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      const auto& [name, value, unit] = metrics_[i];
      if (i != 0) os << ", ";
      obs::write_json_string(os, name);
      os << ": {\"value\": ";
      obs::write_json_number(os, value);
      os << ", \"unit\": ";
      obs::write_json_string(os, unit);
      os << '}';
    }
    os << "}}";
    std::cout << os.str() << std::endl;
  }

 private:
  std::vector<std::tuple<std::string, double, std::string>> metrics_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t file_size(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(size);
}

/// Metrics-output counters and gauges of one traced sweep.
struct Counts {
  std::map<std::string, double> counters;
  std::map<std::string, double> gauge_last;
  std::map<std::string, double> gauge_max;
  std::map<std::string, double> histogram_sum;

  explicit Counts(const std::string& metrics_json) {
    const JsonValue v = simsweep::resilience::parse_json(metrics_json);
    for (const auto& [name, value] : v.at("counters").object)
      counters[name] = static_cast<double>(value.as_uint64());
    for (const auto& [name, value] : v.at("gauges").object) {
      gauge_last[name] = value.at("last").as_double();
      gauge_max[name] = value.at("max").as_double();
    }
    for (const auto& [name, value] : v.at("histograms").object)
      histogram_sum[name] = value.at("sum").as_double();
  }

  [[nodiscard]] double counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
  /// Sum over every label of a labelled counter ("base{...}").
  [[nodiscard]] double counter_family(const std::string& base) const {
    double total = counter(base);
    for (const auto& [name, value] : counters)
      if (name.rfind(base + "{", 0) == 0) total += value;
    return total;
  }
  [[nodiscard]] static double get(const std::map<std::string, double>& m,
                                  const std::string& name) {
    const auto it = m.find(name);
    return it == m.end() ? 0.0 : it->second;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

class Bench {
 public:
  explicit Bench(Options opts)
      : opts_(std::move(opts)),
        workload_(*find_workload(opts_.workload)),
        jobs_(workload_.parallel ? parallel_jobs() : 1) {
    std::filesystem::create_directories(opts_.work_dir);
    run_id_ = workload_.name + "-seed" + std::to_string(opts_.seed) + "-" +
              std::to_string(::getpid());
    prefix_ = opts_.work_dir + "/" + run_id_;
    if (opts_.trace) spans_ = std::make_unique<SpanRecorder>(run_id_);
    text_ = scenario_text(workload_.name, opts_.seed);
  }

  int run() {
    print_provenance();
    warm_up();
    verify();
    if (opts_.trace)
      traced();
    else
      timed();
    const bool correct = tally_.failed == 0;
    for (const std::string& p : tally_.problems)
      std::cerr << "perfbench: check failed: " << p << '\n';
    if (spans_) write_spans();
    cleanup();
    out_.print(correct, tally_);
    return 0;
  }

 private:
  [[nodiscard]] SweepSettings timed_settings() const {
    SweepSettings s;
    s.jobs = jobs_;
    return s;
  }

  /// Resume of `journal` with the settings that wrote it; the resumed
  /// sweep keeps journaling into the same file, as `simsweep bench
  /// --resume` does.
  [[nodiscard]] static SweepSettings resume_settings(
      SweepSettings s, const std::string& journal) {
    s.audit = simsweep::audit::AuditMode::kOff;
    s.journal_path = journal;
    s.resume_path = journal;
    return s;
  }

  void print_provenance() const {
    const obs::Provenance prov = obs::make_provenance(opts_.seed, "");
    std::ostringstream os;
    os << "provenance {\"git_describe\": ";
    obs::write_json_string(os, prov.version);
    os << ", \"build_type\": ";
    obs::write_json_string(os, prov.build_type);
    // Only Release numbers are comparable with each other.
    os << ", \"comparable\": "
       << (prov.build_type == "Release" ? "true" : "false")
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"jobs\": " << jobs_ << ", \"seed\": " << opts_.seed
       << ", \"workload\": ";
    obs::write_json_string(os, workload_.name);
    os << ", \"trace\": " << (opts_.trace ? 1 : 0) << '}';
    std::cout << os.str() << '\n';
    if (prov.build_type != "Release")
      std::cerr << "perfbench: WARNING: " << prov.build_type
                << " build; its numbers must not be compared with Release "
                   "numbers\n";
  }

  /// The process's first sweep, untimed: it fills caches and the heap, and
  /// its peak RSS is the workload's.  Over later sweeps the allocator
  /// reuses freed memory in an order set by thread timing, so the
  /// process-lifetime peak would vary between runs.
  void warm_up() {
    const ScopedSpan span(spans_.get(), "warm-up");
    (void)fresh(timed_settings());
    warm_rss_mb_ = peak_rss_mb();
  }

  /// Untimed: the default seed with audit=fail, journaled, then resumed.
  /// Its report must match the pinned digest, and the resume must
  /// reproduce it byte for byte.
  void verify() {
    const ScopedSpan span(spans_.get(), "verify");
    SweepSettings s = timed_settings();
    s.jobs = parallel_jobs();
    s.audit = simsweep::audit::AuditMode::kFail;
    verify_journal_ = prefix_ + "-verify.jsonl";
    s.journal_path = verify_journal_;
    verify_settings_ = s;
    const std::string text = scenario_text(workload_.name, kDefaultSeed);
    SweepRun run = run_sweep_once(text, s, spans_.get(), span.id());
    tally_.sweep(run);
    check_pinned(run, "verification pass");
    const SweepRun resumed = run_sweep_once(
        text, resume_settings(s, verify_journal_), spans_.get(), span.id());
    tally_.sweep(resumed);
    tally_.check(mismatched_cells(run.result, resumed.result),
                 "resumed verification sweep differs from the fresh one");
    verify_ = std::move(run);
  }

  void check_pinned(const SweepRun& run, const std::string& what) {
    const std::string& want = opts_.expect_digest.empty()
                                  ? workload_.pinned_digest
                                  : opts_.expect_digest;
    const std::string got = digest(run.report);
    if (got == want) return;
    tally_.check(run.result.cells_total,
                 what + " report digest " + got + " != pinned " + want);
    if (!reported_digest_) {
      reported_digest_ = true;
      std::cerr << "perfbench: report of " << what << " at seed "
                << kDefaultSeed << ":\n"
                << run.report;
    }
  }

  /// One fresh sweep at the run's seed, checked against the first sweep of
  /// the run.
  SweepRun fresh(const SweepSettings& s) {
    const ScopedSpan span(spans_.get(), s.metrics ? "sweep traced" : "sweep");
    SweepRun run = run_sweep_once(text_, s, spans_.get(), span.id());
    tally_.sweep(run);
    if (opts_.seed == kDefaultSeed) check_pinned(run, "timed sweep");
    if (!first_) {
      first_ = std::make_unique<SweepRun>(run);
    } else {
      tally_.check(mismatched_cells(first_->result, run.result),
                   "sweep differs from the run's first sweep");
    }
    return run;
  }

  void timed() {
    const SweepSettings s = timed_settings();
    // Set-up alone: every cell is skipped.
    SweepSettings setup = s;
    setup.setup_only = true;
    // resume_s: the verification journal resumed read-only and on one job
    // (a resume runs no cell, so more workers only add thread start-up):
    // the read and replay alone.
    SweepSettings replay = resume_settings(verify_settings_, verify_journal_);
    replay.journal_path.clear();
    replay.jobs = 1;
    const std::string replay_text = scenario_text(workload_.name, kDefaultSeed);

    // The short samples (set-up, replay) are taken between the timed
    // sweeps, so that they span the run as the sweeps do.
    std::vector<double> setup_s, resume_s, tps, p50, p90;
    std::size_t cells_per_sweep = 0;
    const auto t0 = Clock::now();
    do {
      const SweepRun run = fresh(s);
      setup_s.push_back(run.setup_s);
      tps.push_back(static_cast<double>(run.trials_simulated()) / run.wall_s);
      const std::vector<double> ms = run.cell_ms();
      cells_per_sweep = ms.size();
      p50.push_back(percentile(ms, 50.0));
      p90.push_back(percentile(ms, 90.0));
      for (int i = 0; i < 4; ++i)
        setup_s.push_back(run_sweep_once(text_, setup).setup_s);
      for (int i = 0; i < 4; ++i) {
        const SweepRun resumed = run_sweep_once(replay_text, replay);
        tally_.sweep(resumed);
        tally_.check(mismatched_cells(verify_.result, resumed.result),
                     "resumed verification sweep differs from the fresh one");
        resume_s.push_back(resumed.wall_s);
      }
    } while (seconds_since(t0) < opts_.seconds || tps.size() < 3);

    const TailPick tail = tail_percentile(cells_per_sweep);
    std::cout << "samples {\"sweeps\": " << tps.size()
              << ", \"cells_per_sweep\": " << cells_per_sweep
              << ", \"tail_percentile\": " << tail.percentile
              << ", \"cells_beyond_tail\": " << tail.beyond
              << ", \"setup_samples\": " << setup_s.size()
              << ", \"resume_samples\": " << resume_s.size()
              << ", \"trials_per_s\": [";
    for (std::size_t i = 0; i < tps.size(); ++i)
      std::cout << (i == 0 ? "" : ", ") << tps[i];
    std::cout << "]}\n";
    if (tail.percentile != 90.0)
      std::cerr << "perfbench: WARNING: " << cells_per_sweep
                << " cells per sweep; cell_ms_p90 is not the tail the "
                   "percentile rule picks\n";

    out_.add("setup_s", median(setup_s), "s");
    out_.add("trials_per_s", median(tps), "trials/s");
    out_.add("cell_ms_p50", median(p50), "ms");
    out_.add("cell_ms_p90", median(p90), "ms");
    out_.add("peak_rss_mb", warm_rss_mb_, "MB");
    out_.add("resume_s", median(resume_s), "s");
    out_.add("cell_ok_ratio",
             1.0 - ratio(static_cast<double>(tally_.failed),
                         static_cast<double>(tally_.attempted)),
             "fraction");
  }

  /// The traced run: untraced and traced (metrics on) sweeps alternate for
  /// --seconds, then the probes run on inputs shaped by the traced counts.
  void traced() {
    const SweepSettings plain = timed_settings();
    SweepSettings with_metrics = plain;
    with_metrics.metrics = true;
    std::vector<double> plain_tps, traced_tps, cell_s, util, wait_ms, speedup,
        self_ms;
    std::unique_ptr<SweepRun> last_traced;
    const auto t0 = Clock::now();
    do {
      const std::size_t before = spans_->spans().size();
      const SweepRun run = fresh(plain);
      plain_tps.push_back(static_cast<double>(run.trials_simulated()) /
                          run.wall_s);
      cell_s.push_back(run.cell_seconds());
      speedup.push_back(run.cell_seconds() / run.wall_s);
      // The run_sweep span is the first one the fresh sweep recorded
      // after "sweep" and "parse".
      for (std::size_t id = before + 1; id <= spans_->spans().size(); ++id)
        if (spans_->spans()[id - 1].name == "run_sweep") {
          self_ms.push_back(spans_->self_s(id) * 1e3);
          break;
        }
      profile(run, util, wait_ms);
      const SweepRun traced_run = fresh(with_metrics);
      traced_tps.push_back(static_cast<double>(traced_run.trials_simulated()) /
                           traced_run.wall_s);
      last_traced = std::make_unique<SweepRun>(traced_run);
    } while (seconds_since(t0) < opts_.seconds);

    const SweepRun& tr = *last_traced;
    const Counts counts(tr.result.metrics_json);
    const scenario::ScenarioSpec& spec = tr.spec;
    const double trials = static_cast<double>(tr.trials_simulated());
    const double events = counts.counter("sim.events_fired");
    const double changes = counts.counter("platform.load_changes");
    const double flows = counts.counter("net.flows_started");
    const double plans = counts.counter("swap.plans");
    const double evaluated = counts.counter("swap.candidates_evaluated");
    const double history_len =
        ratio(changes, trials * static_cast<double>(spec.hosts));
    const double depth_mean =
        Counts::get(counts.gauge_last, "sim.queue_depth_mean");
    const double bytes = counts.histogram_sum.count("net.flow_bytes") != 0
                             ? counts.histogram_sum.at("net.flow_bytes")
                             : 0.0;

    const simsweep::core::ExperimentConfig base = scenario::base_config(spec);
    const double budget = 0.25;
    double ev = 0.0, load = 0.0, avail = 0.0, link = 0.0, plan = 0.0;
    {
      const ScopedSpan span(spans_.get(), "probe simcore");
      ev = probe_event_queue(static_cast<std::size_t>(depth_mean + 0.5),
                             budget);
    }
    {
      const ScopedSpan span(spans_.get(), "probe load");
      const scenario::MaterializedGrid grid = scenario::materialize(spec);
      std::vector<std::shared_ptr<const simsweep::load::LoadModel>> models;
      for (std::size_t i = 0; i < grid.cells.size(); i += grid.variant_count)
        models.push_back(grid.cells[i].model);
      load = probe_load_source(models, mean_makespan(tr), budget);
    }
    {
      const ScopedSpan span(spans_.get(), "probe platform");
      avail = probe_mean_availability(
          static_cast<std::size_t>(history_len + 0.5), max_window(spec),
          budget);
    }
    {
      const ScopedSpan span(spans_.get(), "probe net");
      const double flow_bytes =
          flows > 0.0 ? bytes / flows : spec.comm_kb * 1e3;
      link = probe_link(spec.active, flow_bytes, base.cluster.link, budget);
    }
    {
      const ScopedSpan span(spans_.get(), "probe swap");
      scenario::PolicySpec greedy;
      plan = probe_plan_swaps(scenario::make_policy(greedy), spec.active,
                              spec.spares, spec.state_mb * 1e6,
                              spec.iter_minutes * 60.0, base.cluster.link,
                              budget);
    }

    // The timed sweeps write no journal; the verification pass's journal
    // is the one resume_s reads.
    const std::string& journal = verify_journal_;
    std::vector<std::string> lines;
    std::vector<std::size_t> line_bytes;
    double read_ms = 0.0;
    {
      const ScopedSpan span(spans_.get(), "read_journal");
      const auto start = Clock::now();
      const auto records = simsweep::resilience::read_journal(journal);
      read_ms = seconds_since(start) * 1e3;
      for (const auto& r : records) {
        lines.push_back(r.raw);
        line_bytes.push_back(r.raw.size());
      }
    }
    double append = 0.0;
    {
      const ScopedSpan span(spans_.get(), "probe resilience");
      append = probe_journal_append(lines, prefix_ + "-append.jsonl");
    }
    double write_ms = 0.0;
    {
      const ScopedSpan span(spans_.get(), "artifact writes");
      const auto start = Clock::now();
      obs::atomic_write_file(prefix_ + "-metrics.json", tr.result.metrics_json);
      write_ms = seconds_since(start) * 1e3;
    }
    std::vector<double> parse_ms;
    {
      const ScopedSpan span(spans_.get(), "probe scenario");
      for (int i = 0; i < 25; ++i) {
        const auto start = Clock::now();
        static_cast<void>(scenario::parse_scenario(text_, "perfbench"));
        parse_ms.push_back(seconds_since(start) * 1e3);
      }
    }

    // Reconciliation against the untraced sweeps' cell time.  Load changes
    // and net flows are events too; simcore gets the rest.
    const double net_events = 2.0 * flows;  // latency + completion per flow
    const double cell_ns = median(cell_s) * 1e9;
    const double avail_calls = plans *
                               static_cast<double>(spec.active + spec.spares) *
                               windowed_plan_share(spec);
    std::vector<LayerCost> costs{
        {"simcore", std::max(0.0, events - changes - net_events), ev},
        {"load", changes, load},
        {"platform", avail_calls, avail},
        {"net", flows, link},
        {"swap", plans, plan},
    };
    const Reconciliation rec = reconcile(costs, cell_ns);

    out_.add("simcore.events_per_trial", ratio(events, trials), "count");
    out_.add("simcore.queue_depth_mean", depth_mean, "count");
    out_.add("simcore.queue_depth_max",
             Counts::get(counts.gauge_max, "sim.queue_depth_max"), "count");
    out_.add("simcore.ns_per_event", ev, "ns");
    out_.add("load.change_share", ratio(changes, events), "fraction");
    out_.add("load.ns_per_change", load, "ns");
    out_.add("platform.history_len_mean", history_len, "count");
    out_.add("platform.ns_per_mean_availability", avail, "ns");
    out_.add("net.flows_per_trial", ratio(flows, trials), "count");
    out_.add("net.reshare_per_flow",
             ratio(counts.counter("net.reshare_passes"), flows), "count");
    out_.add("net.bytes_per_trial", ratio(bytes, trials), "bytes");
    out_.add("net.ns_per_flow", link, "ns");
    out_.add("swap.plans_per_trial", ratio(plans, trials), "count");
    out_.add("swap.evaluated_per_trial", ratio(evaluated, trials), "count");
    out_.add("swap.accept_ratio",
             ratio(counts.counter("swap.candidates_accepted"), evaluated),
             "fraction");
    out_.add("swap.us_per_plan", plan / 1e3, "us");
    out_.add("strategy.adaptations_per_trial",
             ratio(counts.counter("run.adaptations"), trials), "count");
    out_.add("strategy.transfer_retries",
             counts.counter("strategy.transfer_retries"), "count");
    out_.add("fault.injections_per_trial",
             ratio(counts.counter_family("fault.injections"), trials), "count");
    out_.add("app.iterations_per_trial",
             ratio(counts.counter("run.iterations_completed"), trials),
             "count");
    out_.add("core.worker_utilization", median(util), "fraction");
    out_.add("core.queue_wait_ms_mean", median(wait_ms), "ms");
    out_.add("core.parallel_speedup", median(speedup), "ratio");
    out_.add("core.cells_per_sweep", static_cast<double>(tr.cells.size()),
             "count");
    out_.add("cli.sweep_self_ms", median(self_ms), "ms");
    out_.add("resilience.journal_bytes",
             static_cast<double>(file_size(journal)), "bytes");
    out_.add("resilience.write_amplification",
             write_amplification(line_bytes, 1), "ratio");
    out_.add("resilience.append_ms_mean", append / 1e6, "ms");
    out_.add("resilience.read_ms", read_ms, "ms");
    out_.add("obs.metrics_bytes",
             static_cast<double>(tr.result.metrics_json.size()), "bytes");
    out_.add("obs.write_ms", write_ms, "ms");
    out_.add("trace.overhead_ratio",
             ratio(median(plain_tps), median(traced_tps)), "ratio");
    out_.add("scenario.parse_ms", median(parse_ms), "ms");
    for (std::size_t i = 0; i < costs.size(); ++i)
      out_.add(costs[i].layer + ".share", rec.shares[i], "fraction");
    out_.add("unattributed_share", rec.unattributed, "fraction");
  }

  static void profile(const SweepRun& run, std::vector<double>& util,
                      std::vector<double>& wait_ms) {
    double busy = 0.0;
    double wait = 0.0;
    std::size_t workers = 0;
    for (const auto& c : run.cells) {
      busy += c.end_s - c.begin_s;
      wait += std::max(0.0, c.begin_s - c.submitted_s);
      workers = std::max(workers, c.worker + 1);
    }
    if (run.cells.empty() || run.wall_s <= 0.0) return;
    util.push_back(busy / (run.wall_s * static_cast<double>(workers)));
    wait_ms.push_back(wait / static_cast<double>(run.cells.size()) * 1e3);
  }

  /// Mean makespan over the cells of the sweep's first report.
  static double mean_makespan(const SweepRun& run) {
    double sum = 0.0;
    std::size_t n = 0;
    if (!run.result.reports.empty())
      for (const auto& series : run.result.reports.front().series)
        for (const double y : series.y)
          if (y == y) {
            sum += y;
            ++n;
          }
    return n == 0 ? 3600.0 : sum / static_cast<double>(n);
  }

  /// The longest history window of the scenario's swap policies.
  static double max_window(const scenario::ScenarioSpec& spec) {
    double window = 0.0;
    for (const auto& v : spec.variants)
      window = std::max(
          window, scenario::make_policy(v.strategy.policy).history_window_s);
    return window > 0.0 ? window : 300.0;
  }

  /// Share of the swap-planning variants whose policy reads the host
  /// history (a window > 0); the others use the current speed and never
  /// call Host::mean_availability.
  static double windowed_plan_share(const scenario::ScenarioSpec& spec) {
    std::size_t planning = 0;
    std::size_t windowed = 0;
    for (const auto& v : spec.variants) {
      const auto kind = v.strategy.kind;
      if (kind != scenario::StrategyKind::kSwap &&
          kind != scenario::StrategyKind::kDlbSwap)
        continue;
      ++planning;
      if (scenario::make_policy(v.strategy.policy).history_window_s > 0.0)
        ++windowed;
    }
    return planning == 0 ? 0.0
                         : static_cast<double>(windowed) /
                               static_cast<double>(planning);
  }

  void write_spans() const {
    std::ostringstream os;
    spans_->write_chrome_json(os);
    obs::atomic_write_file(opts_.work_dir + "/spans-" + run_id_ + ".json",
                           os.str());
  }

  /// Journals and artifacts of this run; the span file stays.
  void cleanup() const {
    for (const char* suffix :
         {"-verify.jsonl", "-append.jsonl", "-metrics.json"}) {
      std::error_code ec;
      std::filesystem::remove(prefix_ + suffix, ec);
    }
  }

  Options opts_;
  const Workload& workload_;
  std::size_t jobs_;
  std::string run_id_;
  std::string prefix_;
  std::string text_;
  std::unique_ptr<SpanRecorder> spans_;
  Tally tally_;
  Output out_;
  SweepRun verify_;
  SweepSettings verify_settings_;
  std::string verify_journal_;
  std::unique_ptr<SweepRun> first_;
  bool reported_digest_ = false;
  double warm_rss_mb_ = 0.0;
};

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Options opts;
  try {
    opts = perfbench::parse_options(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: " << e.what() << '\n';
    return 2;
  }
  try {
    perfbench::Bench bench(std::move(opts));
    return bench.run();
  } catch (const std::exception& e) {
    std::cerr << "perfbench_driver: run failed: " << e.what() << '\n';
    return 1;
  }
}
