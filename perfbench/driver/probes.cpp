#include "probes.hpp"

#include <chrono>
#include <cstdio>

#include "net/shared_link.hpp"
#include "platform/host.hpp"
#include "resilience/journal.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"
#include "swap/planner.hpp"

namespace perfbench {

namespace sim = simsweep::sim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double per_unit(double wall_s, std::uint64_t units) {
  return units == 0 ? 0.0 : wall_s * 1e9 / static_cast<double>(units);
}

/// xorshift64*: a cheap deterministic stream for probe inputs.
struct Stream {
  std::uint64_t state;
  double next01() {
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    return static_cast<double>((state * 0x2545F4914F6CDD1DULL) >> 11) *
           0x1.0p-53;
  }
};

/// An event that reschedules itself after a uniform(0, 2) delay, so the
/// queue holds a steady number of pending events.
struct Ticker {
  sim::Simulator* simulator;
  Stream* stream;
  void operator()() const {
    simulator->after(2.0 * stream->next01(), *this);
  }
};

}  // namespace

double probe_event_queue(std::size_t depth, double budget_s) {
  if (depth == 0) depth = 1;
  sim::Simulator simulator;
  Stream stream{0x9E3779B97F4A7C15ULL};
  for (std::size_t i = 0; i < depth; ++i)
    simulator.after(2.0 * stream.next01(), Ticker{&simulator, &stream});
  // Warm the heap to its steady shape before timing.
  simulator.run_until(10.0);
  const std::uint64_t fired0 = simulator.events_fired();
  const auto t0 = Clock::now();
  double horizon = simulator.now();
  do {
    horizon += 2000.0;
    simulator.run_until(horizon);
  } while (seconds_since(t0) < budget_s);
  return per_unit(seconds_since(t0), simulator.events_fired() - fired0);
}

double probe_load_source(
    const std::vector<std::shared_ptr<const simsweep::load::LoadModel>>&
        models,
    double horizon_s, double budget_s) {
  std::uint64_t changes = 0;
  std::uint64_t seed = 1;
  const auto t0 = Clock::now();
  do {
    for (const auto& model : models) {
      sim::Simulator simulator;
      simsweep::platform::Host host(simulator, 0, 300.0e6, "probe");
      auto source = model->make_source(sim::Rng(seed++));
      source->start(simulator, host);
      simulator.run_until(horizon_s);
      changes += host.load_history().size();
    }
  } while (seconds_since(t0) < budget_s && !models.empty());
  return per_unit(seconds_since(t0), changes);
}

double probe_mean_availability(std::size_t history_len, double window_s,
                               double budget_s) {
  if (history_len == 0) history_len = 1;
  sim::Simulator simulator;
  simsweep::platform::Host host(simulator, 0, 300.0e6, "probe");
  Stream stream{0xD1B54A32D192ED03ULL};
  double t = 0.0;
  int load = 0;
  for (std::size_t i = 1; i < history_len; ++i) {
    t += 50.0 + 100.0 * stream.next01();
    load = 1 - load;
    simulator.at(t, [&host, load] { host.set_external_load(load); });
  }
  simulator.run();
  const double end = simulator.now();
  const double begin = end > window_s ? end - window_s : 0.0;
  std::uint64_t calls = 0;
  double sink = 0.0;
  const auto t0 = Clock::now();
  do {
    for (int i = 0; i < 256; ++i) sink += host.mean_availability(begin, end);
    calls += 256;
  } while (seconds_since(t0) < budget_s);
  const double wall = seconds_since(t0);
  // Keep the calls observable so they are not folded away.
  if (sink < 0.0) std::fputs("", stderr);
  return per_unit(wall, calls);
}

namespace {

/// Keeps `concurrent` flows in flight: each completion starts the next
/// until `total` flows were started.  Flows are owned here because the
/// network only holds them once their latency phase ends.
struct FlowPump {
  simsweep::net::SharedLinkNetwork* network;
  double bytes;
  std::size_t total;
  std::size_t started = 0;
  std::size_t completed = 0;
  std::vector<std::shared_ptr<simsweep::net::Flow>> flows;

  void start() {
    ++started;
    flows.push_back(network->start_transfer(bytes, [this] {
      ++completed;
      if (started < total) start();
    }));
  }
};

}  // namespace

double probe_link(std::size_t concurrent, double bytes,
                  const simsweep::platform::LinkSpec& link,
                  double budget_s) {
  if (concurrent == 0) concurrent = 1;
  constexpr std::size_t kRound = 4096;
  std::uint64_t completed = 0;
  const auto t0 = Clock::now();
  do {
    sim::Simulator simulator;
    simsweep::net::SharedLinkNetwork network(simulator, link);
    FlowPump pump{&network, bytes, kRound, 0, 0, {}};
    pump.flows.reserve(kRound);
    for (std::size_t i = 0; i < concurrent && pump.started < kRound; ++i)
      pump.start();
    simulator.run();
    completed += pump.completed;
  } while (seconds_since(t0) < budget_s);
  return per_unit(seconds_since(t0), completed);
}

double probe_plan_swaps(const simsweep::swap::PolicyParams& policy,
                        std::size_t active, std::size_t spares,
                        double state_bytes, double iter_time_s,
                        const simsweep::platform::LinkSpec& link,
                        double budget_s) {
  namespace swap = simsweep::swap;
  // A few distinct placements, so the planner does not see one input only.
  constexpr std::size_t kInputs = 16;
  Stream stream{0x94D049BB133111EBULL};
  std::vector<std::vector<swap::ActiveProcess>> actives(kInputs);
  std::vector<std::vector<swap::HostEstimate>> idle(kInputs);
  std::uint32_t host = 0;
  for (std::size_t k = 0; k < kInputs; ++k) {
    for (std::size_t slot = 0; slot < active; ++slot)
      actives[k].push_back({slot, host++,
                            (100.0 + 200.0 * stream.next01()) * 1e6 *
                                (0.5 + 0.5 * stream.next01()),
                            iter_time_s * 200.0e6});
    for (std::size_t s = 0; s < spares; ++s)
      idle[k].push_back(
          {host++, (100.0 + 200.0 * stream.next01()) * 1e6 *
                       (0.5 + 0.5 * stream.next01())});
  }
  swap::PlanContext ctx;
  ctx.measured_iter_time_s = iter_time_s;
  ctx.state_bytes = state_bytes;
  ctx.link_latency_s = link.latency_s;
  ctx.link_bandwidth_Bps = link.bandwidth_Bps;
  std::uint64_t calls = 0;
  std::size_t decisions = 0;
  const auto t0 = Clock::now();
  do {
    for (std::size_t k = 0; k < kInputs; ++k)
      decisions += swap::plan_swaps(policy, actives[k], idle[k], ctx).size();
    calls += kInputs;
  } while (seconds_since(t0) < budget_s);
  const double wall = seconds_since(t0);
  if (decisions == static_cast<std::size_t>(-1)) std::fputs("", stderr);
  return per_unit(wall, calls);
}

double probe_journal_append(const std::vector<std::string>& lines,
                            const std::string& path) {
  simsweep::resilience::JournalWriter writer(path);
  const auto t0 = Clock::now();
  for (const std::string& line : lines) writer.append(line);
  return per_unit(seconds_since(t0), lines.size());
}

}  // namespace perfbench
