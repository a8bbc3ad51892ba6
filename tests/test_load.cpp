// Unit and statistical tests for the CPU load models.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "audit/auditor.hpp"
#include "load/hyperexp.hpp"
#include "load/load_model.hpp"
#include "load/misc_models.hpp"
#include "load/onoff.hpp"
#include "load/reclamation.hpp"
#include "obs/timeline.hpp"
#include "platform/cluster.hpp"
#include "simcore/simulator.hpp"

namespace sim = simsweep::sim;
namespace pf = simsweep::platform;
namespace load = simsweep::load;

namespace {

/// Runs `model` against one host for `duration` and returns the
/// time-averaged competing-process count.
double observed_mean_load(const load::LoadModel& model, double duration,
                          std::uint64_t seed) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  h.drive(model.make_source(sim::Rng(seed)));
  s.run_until(duration);
  double area = 0.0;
  double value = 0.0;
  sim::SimTime cursor = 0.0;
  for (const sim::Sample& sample : h.load_history()) {
    if (sample.time >= duration) break;
    area += value * (sample.time - cursor);
    cursor = sample.time;
    value = sample.value;
  }
  area += value * (duration - cursor);
  return area / duration;
}

}  // namespace

TEST(GeometricSojourn, MeanMatchesGeometricDistribution) {
  sim::Rng rng(3);
  const double p = 0.25, step = 10.0;
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i)
    sum += load::sample_geometric_sojourn(rng, p, step);
  // Mean of geometric(p) in steps is 1/p = 4 steps = 40 s.
  EXPECT_NEAR(sum / n, 40.0, 1.5);
}

TEST(GeometricSojourn, EdgeCases) {
  sim::Rng rng(3);
  EXPECT_EQ(load::sample_geometric_sojourn(rng, 0.0, 10.0), sim::kTimeInfinity);
  EXPECT_DOUBLE_EQ(load::sample_geometric_sojourn(rng, 1.0, 10.0), 10.0);
  for (int i = 0; i < 100; ++i)
    EXPECT_GE(load::sample_geometric_sojourn(rng, 0.9, 10.0), 10.0);
}

TEST(GeometricSojourn, CachedLogDrawsReferenceSequenceBitForBit) {
  for (const double p : {0.0, 0.05, 0.5, 0.96, 1.0}) {
    const load::GeometricSojourn cached(p, 100.0);
    sim::Rng a(17);
    sim::Rng b(17);
    for (int i = 0; i < 5000; ++i) {
      const double want = load::sample_geometric_sojourn(a, p, 100.0);
      const double got = cached.sample(b);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(got),
                std::bit_cast<std::uint64_t>(want))
          << "p=" << p << " draw " << i;
    }
  }
}

TEST(OnOffModel, StationaryFractionFormula) {
  load::OnOffModel m(load::OnOffParams{.p = 0.3, .q = 0.08, .step_s = 10.0});
  EXPECT_NEAR(m.stationary_on_fraction(), 0.3 / 0.38, 1e-12);
  load::OnOffModel quiet(load::OnOffParams{.p = 0.0, .q = 0.0});
  EXPECT_DOUBLE_EQ(quiet.stationary_on_fraction(), 0.0);
}

TEST(OnOffModel, ObservedLoadMatchesStationaryFraction) {
  const load::OnOffParams params{.p = 0.3, .q = 0.08, .step_s = 10.0};
  load::OnOffModel m(params);
  double total = 0.0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t)
    total += observed_mean_load(m, 200000.0, static_cast<std::uint64_t>(t));
  EXPECT_NEAR(total / trials, m.stationary_on_fraction(), 0.03);
}

TEST(OnOffModel, ZeroDynamismNeverChangesState) {
  load::OnOffModel m(load::OnOffParams::dynamism(0.0));
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  h.drive(m.make_source(sim::Rng(1)));
  s.run_until(100000.0);
  EXPECT_EQ(h.load_history().size(), 1u);  // only the construction sample
  EXPECT_EQ(h.external_load(), 0);
}

TEST(OnOffModel, DynamismOneFlipsEveryStep) {
  load::OnOffParams params = load::OnOffParams::dynamism(1.0);
  params.stationary_start = false;
  params.step_s = 10.0;
  load::OnOffModel m(params);
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  h.drive(m.make_source(sim::Rng(1)));
  s.run_until(100.0);
  // One transition per 10 s step.
  EXPECT_GE(h.load_history().size(), 9u);
}

TEST(OnOffModel, RejectsInvalidParams) {
  EXPECT_THROW(load::OnOffModel(load::OnOffParams{.p = -0.1}),
               std::invalid_argument);
  EXPECT_THROW(load::OnOffModel(load::OnOffParams{.p = 0.5, .q = 1.5}),
               std::invalid_argument);
  EXPECT_THROW(
      load::OnOffModel(load::OnOffParams{.p = 0.5, .q = 0.5, .step_s = 0.0}),
      std::invalid_argument);
}

TEST(HyperExpModel, OfferedLoadMatchesTheory) {
  load::HyperExpParams params;
  params.mean_lifetime_s = 100.0;
  params.mean_interarrival_s = 200.0;
  params.long_prob = 0.2;
  load::HyperExpModel m(params);
  EXPECT_DOUBLE_EQ(m.offered_load(), 0.5);
  double total = 0.0;
  const int trials = 8;
  for (int t = 0; t < trials; ++t)
    total += observed_mean_load(m, 400000.0, static_cast<std::uint64_t>(t));
  EXPECT_NEAR(total / trials, 0.5, 0.05);
}

TEST(HyperExpModel, Cv2GrowsAsLongProbShrinks) {
  load::HyperExpParams params;
  params.long_prob = 0.5;
  load::HyperExpModel a(params);
  params.long_prob = 0.1;
  load::HyperExpModel b(params);
  EXPECT_GT(b.lifetime_cv2(), a.lifetime_cv2());
  EXPECT_NEAR(a.lifetime_cv2(), 3.0, 1e-12);
}

TEST(HyperExpModel, AllowsMultipleSimultaneousCompetitors) {
  load::HyperExpParams params;
  params.mean_lifetime_s = 5000.0;
  params.mean_interarrival_s = 100.0;  // offered load 50: many overlap
  params.long_prob = 1.0;
  load::HyperExpModel m(params);
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  h.drive(m.make_source(sim::Rng(5)));
  s.run_until(20000.0);
  int max_load = 0;
  for (const sim::Sample& sample : h.load_history())
    max_load = std::max(max_load, static_cast<int>(sample.value));
  EXPECT_GT(max_load, 1);
}

TEST(HyperExpModel, RejectsInvalidParams) {
  load::HyperExpParams p;
  p.mean_lifetime_s = 0.0;
  EXPECT_THROW(load::HyperExpModel{p}, std::invalid_argument);
  p = {};
  p.long_prob = 0.0;
  EXPECT_THROW(load::HyperExpModel{p}, std::invalid_argument);
  p = {};
  p.mean_interarrival_s = -1.0;
  EXPECT_THROW(load::HyperExpModel{p}, std::invalid_argument);
}

TEST(ConstantModel, HoldsLoadForever) {
  load::ConstantModel m(2);
  EXPECT_DOUBLE_EQ(observed_mean_load(m, 1000.0, 1), 2.0);
  EXPECT_THROW(load::ConstantModel(-1), std::invalid_argument);
}

TEST(TraceModel, ReplaysAndWraps) {
  // 0 on [0,10), 1 on [10,20), period 20.
  std::vector<sim::Sample> trace{{0.0, 0.0}, {10.0, 1.0}};
  load::TraceModel m(trace, 20.0, /*random_phase=*/false);
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  h.drive(m.make_source(sim::Rng(1)));
  std::vector<std::pair<double, int>> seen;
  s.run_until(45.0);
  // Load at 5 -> 0, 15 -> 1, 25 -> 0, 35 -> 1.
  EXPECT_DOUBLE_EQ(h.mean_availability(0.0, 10.0), 1.0);
  EXPECT_DOUBLE_EQ(h.mean_availability(10.0, 20.0), 0.5);
  EXPECT_DOUBLE_EQ(h.mean_availability(20.0, 30.0), 1.0);
  EXPECT_DOUBLE_EQ(h.mean_availability(30.0, 40.0), 0.5);
}

TEST(TraceModel, ValidatesInput) {
  EXPECT_THROW(load::TraceModel({}, 10.0), std::invalid_argument);
  EXPECT_THROW(load::TraceModel({{5.0, 1.0}, {2.0, 0.0}}, 10.0),
               std::invalid_argument);
  EXPECT_THROW(load::TraceModel({{0.0, 1.0}, {20.0, 0.0}}, 10.0),
               std::invalid_argument);
}

TEST(CompositeOnOffModel, AggregatesSources) {
  // Two always-on-after-first-step sources would need p=1,q=0; use heavy
  // sources and check loads above 1 occur.
  std::vector<load::OnOffParams> parts(3, load::OnOffParams{.p = 0.9,
                                                            .q = 0.05,
                                                            .step_s = 10.0});
  load::CompositeOnOffModel m(parts);
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  h.drive(m.make_source(sim::Rng(2)));
  s.run_until(5000.0);
  int max_load = 0;
  for (const sim::Sample& sample : h.load_history())
    max_load = std::max(max_load, static_cast<int>(sample.value));
  EXPECT_GT(max_load, 1);
  EXPECT_LE(max_load, 3);
  EXPECT_THROW(load::CompositeOnOffModel{std::vector<load::OnOffParams>{}},
               std::invalid_argument);
}

TEST(LoadModelAttachAll, DrivesEveryHostIndependently) {
  sim::Simulator s;
  sim::Rng cluster_rng(1);
  pf::ClusterSpec spec;
  spec.host_count = 8;
  pf::Cluster cluster(s, spec, cluster_rng);
  load::OnOffModel m(load::OnOffParams{.p = 0.5, .q = 0.5, .step_s = 10.0});
  load::LoadModel::attach_all(m, cluster, 99);
  for (std::size_t i = 0; i < cluster.size(); ++i)
    EXPECT_LT(cluster.host(static_cast<pf::HostId>(i)).next_load_change(),
              sim::kTimeInfinity);
  s.run_until(1000.0);
  // With independent streams, not every host can have an identical history.
  bool any_difference = false;
  const auto& first = cluster.host(0).load_history();
  for (std::size_t i = 1; i < cluster.size(); ++i)
    if (cluster.host(static_cast<pf::HostId>(i)).load_history() != first)
      any_difference = true;
  EXPECT_TRUE(any_difference);
}

// ------------------------------------------- events versus on-demand load

namespace {

/// How the lone host under test meets its load changes.
enum class Drive {
  kBusy,      ///< a task runs throughout: every change fires as an event
  kIdle,      ///< nothing runs: changes are taken when the host is read
  kMidRun,    ///< idle, then a task from 20 000 s until it completes
  kTimeline,  ///< idle but watched by a timeline: changes fire as events
};

struct Observed {
  std::vector<sim::Sample> history;
  std::vector<double> availability;  ///< at each probe time
  std::vector<int> competitors;      ///< at each probe time
  std::vector<double> window_means;
  std::uint64_t events = 0;
};

constexpr double kDay = 86400.0;
constexpr double kTaskStart = 20000.0;

Observed observe(const load::LoadModel& model, Drive drive,
                 const std::vector<double>& probes) {
  sim::Simulator s;
  // Fail-fast: any invariant the host breaks throws out of the test.
  simsweep::audit::InvariantAuditor auditor(simsweep::audit::AuditMode::kFail);
  s.set_auditor(&auditor);
  simsweep::obs::TimelineTracer timeline;
  if (drive == Drive::kTimeline) s.set_timeline(&timeline);
  pf::Host h(s, 0, 100.0, "h");
  std::shared_ptr<pf::ComputeTask> task;
  if (drive == Drive::kBusy) task = h.start_compute(1.0e12, [] {});
  // The timeline run drives a source it owns itself, through start().
  const auto source = model.make_source(sim::Rng(11));
  if (drive == Drive::kTimeline)
    source->start(s, h);
  else
    h.drive(model.make_source(sim::Rng(11)));
  Observed out;
  for (const double t : probes) {
    if (drive == Drive::kMidRun && !task && t >= kTaskStart) {
      s.run_until(kTaskStart);
      task = h.start_compute(100.0 * 5000.0, [] {});  // ~5 000 s or more
    }
    s.run_until(t);
    out.availability.push_back(h.availability());
    out.competitors.push_back(h.external_load());
  }
  if (drive == Drive::kMidRun) {
    EXPECT_FALSE(task->active());
  }
  out.history = h.load_history();
  for (std::size_t i = 0; i + 1 < probes.size(); i += 7)
    out.window_means.push_back(h.mean_availability(probes[i], probes[i + 1]));
  out.window_means.push_back(h.mean_availability(0.0, kDay));
  out.window_means.push_back(h.mean_availability(3600.0, 3600.0));
  out.events = s.events_fired();
  return out;
}

/// Every change time of an undisturbed day, each midpoint between two of
/// them, and the task's start.
std::vector<double> probe_times(const load::LoadModel& model) {
  sim::Simulator s;
  pf::Host h(s, 0, 100.0, "h");
  h.drive(model.make_source(sim::Rng(11)));
  s.run_until(kDay);
  std::vector<double> times{kTaskStart, kDay};
  double previous = 0.0;
  for (const sim::Sample& sample : h.load_history()) {
    times.push_back(sample.time);
    times.push_back(0.5 * (previous + sample.time));
    previous = sample.time;
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

std::vector<std::pair<std::string, std::shared_ptr<const load::LoadModel>>>
every_model() {
  const auto hyperexp =
      std::make_shared<load::HyperExpModel>(load::HyperExpParams{});
  const auto owner_away = std::make_shared<load::ReclamationModel>(
      hyperexp, load::ReclamationParams{.mean_available_s = 3000.0,
                                        .mean_reclaimed_s = 900.0});
  return {
      {"onoff", std::make_shared<load::OnOffModel>(
                    load::OnOffParams::dynamism(0.5))},
      {"hyperexp", hyperexp},
      {"constant", std::make_shared<load::ConstantModel>(2)},
      {"trace", std::make_shared<load::TraceModel>(
                    std::vector<sim::Sample>{{0.0, 0.0},
                                             {130.25, 1.0},
                                             {171.5, 2.0},
                                             {460.0, 0.0},
                                             {812.75, 1.0}},
                    1000.0)},
      {"composite",
       std::make_shared<load::CompositeOnOffModel>(
           std::vector<load::OnOffParams>{
               {.p = 0.3, .q = 0.3, .step_s = 100.0},
               {.p = 0.2, .q = 0.4, .step_s = 100.0},
               {.p = 0.1, .q = 0.5, .step_s = 70.0}})},
      {"reclaim", owner_away},
      {"reclaim_nested_absent_start",
       std::make_shared<load::ReclamationModel>(
           owner_away, load::ReclamationParams{.mean_available_s = 5000.0,
                                               .mean_reclaimed_s = 500.0,
                                               .start_available = false})},
  };
}

}  // namespace

TEST(LoadDrive, OnDemandHostMatchesEventDrivenHostForEveryModel) {
  for (const auto& [name, model] : every_model()) {
    SCOPED_TRACE(name);
    const std::vector<double> probes = probe_times(*model);
    const Observed busy = observe(*model, Drive::kBusy, probes);
    for (const Drive drive : {Drive::kIdle, Drive::kMidRun, Drive::kTimeline}) {
      SCOPED_TRACE(static_cast<int>(drive));
      const Observed other = observe(*model, drive, probes);
      EXPECT_EQ(other.history, busy.history);
      EXPECT_EQ(other.availability, busy.availability);
      EXPECT_EQ(other.competitors, busy.competitors);
      EXPECT_EQ(other.window_means, busy.window_means);
    }
  }
}

TEST(LoadDrive, IdleHostFiresNoLoadEvents) {
  load::OnOffModel m(load::OnOffParams::dynamism(0.5));
  const std::vector<double> probes = probe_times(m);
  const Observed busy = observe(m, Drive::kBusy, probes);
  const Observed idle = observe(m, Drive::kIdle, probes);
  const auto changes_after_start = static_cast<std::uint64_t>(
      std::count_if(busy.history.begin(), busy.history.end(),
                    [](const sim::Sample& x) { return x.time > 0.0; }));
  EXPECT_GT(changes_after_start, 100u);
  EXPECT_EQ(busy.events, changes_after_start);
  EXPECT_EQ(idle.events, 0u);
  EXPECT_EQ(idle.history, busy.history);
}
