// Seeded, deterministic fault injection.
//
// The paper's platform is a pool of *non-owned* time-shared workstations;
// besides slowing down (external load) and being gracefully reclaimed
// (ReclamationModel), such machines also fail outright.  This module models
// that failure axis:
//
//   * permanent host crashes — each host draws one exponential lifetime
//     (mean = the configured MTBF); when it expires the host goes offline
//     for good and the process state it held is lost,
//   * transient swap-transfer failures — a state transfer dies partway and
//     must be retried (the evicted process is still intact at the source),
//   * checkpoint write failures — a CR checkpoint write to the central
//     store fails; the previous successful checkpoint remains the recovery
//     point.
//
// Everything is driven by streams derived from the trial seed, so one
// (seed, spec) pair produces bitwise-identical fault schedules and draw
// sequences regardless of how many trials run concurrently.  When the spec
// is disabled no injector is constructed at all and the simulation is
// bitwise identical to the historical no-fault path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <vector>

#include "platform/cluster.hpp"
#include "simcore/rng.hpp"
#include "simcore/simulator.hpp"

namespace simsweep::fault {

/// Tunable fault model; all defaults mean "no faults".
struct FaultSpec {
  /// Mean time between permanent crashes per host, in seconds.  Zero (or
  /// anything non-positive / non-finite) disables crashes: MTBF -> infinity.
  double host_mtbf_s = 0.0;

  /// Probability that one swap state-transfer attempt dies partway.
  double swap_fail_prob = 0.0;

  /// Probability that one CR checkpoint write fails.
  double checkpoint_fail_prob = 0.0;

  /// Extra attempts after the first failed transfer before the swap
  /// executor abandons the move.
  std::size_t max_transfer_retries = 3;

  /// Base retry backoff; doubles per retry, capped below.
  double retry_backoff_s = 2.0;
  double retry_backoff_cap_s = 120.0;

  /// Failed transfer attempts charged against a destination host before the
  /// swap executor blacklists it (removes it from the spare pool).
  std::size_t blacklist_after = 6;

  [[nodiscard]] bool crashes_enabled() const noexcept;

  /// True when any fault class is active.  False means the experiment layer
  /// skips injector construction entirely.
  [[nodiscard]] bool enabled() const noexcept;

  void validate() const;
};

/// One scheduled permanent crash.
struct HostCrash {
  platform::HostId host = 0;
  double time_s = 0.0;
};

/// The deterministic crash schedule of one trial: every host draws its
/// lifetime from its own derived stream, so the schedule of host h does not
/// depend on the cluster size or on other hosts' draws.
class FaultPlan {
 public:
  [[nodiscard]] static FaultPlan generate(const FaultSpec& spec,
                                          std::size_t host_count,
                                          std::uint64_t seed,
                                          double horizon_s);

  /// Crashes in schedule order (ties broken by host id).
  [[nodiscard]] const std::vector<HostCrash>& crashes() const noexcept {
    return crashes_;
  }

 private:
  std::vector<HostCrash> crashes_;
};

/// Injects the plan into a live simulation and serves the transient-failure
/// draws.  Draw order follows simulator event order, which is deterministic,
/// so the whole failure history of a trial is a pure function of
/// (seed, spec, model, strategy).
class FaultInjector {
 public:
  FaultInjector(sim::Simulator& simulator, platform::Cluster& cluster,
                const FaultSpec& spec, std::uint64_t seed, double horizon_s);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  /// Schedules every planned crash on the simulator.  Call once, before the
  /// simulation runs.
  void arm();

  [[nodiscard]] const FaultSpec& spec() const noexcept { return spec_; }
  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Crashes fired so far, plus any booked by settle_through().
  [[nodiscard]] std::size_t crashes_injected() const noexcept {
    return injected_;
  }

  /// Books every planned crash at or before `t` that has not fired as
  /// injected, without simulating it: the count, the
  /// "fault.injections{kind=host_crash}" counter and a timeline instant at
  /// the planned time, but no host state change and no listener.  For a run
  /// whose event loop ended before `t`, this keeps the crash count what
  /// simulating on to `t` would have given.  The fired crashes are always a
  /// prefix of the sorted plan, since arm() schedules them in plan order.
  void settle_through(sim::SimTime t);

  /// Registers a crash listener; fired after the host is marked crashed.
  void on_crash(std::function<void(platform::HostId)> listener) {
    listeners_.push_back(std::move(listener));
  }

  /// Draws whether the next transfer attempt fails.
  [[nodiscard]] bool draw_transfer_failure() {
    const bool failed = spec_.swap_fail_prob > 0.0 &&
                        transfer_rng_.uniform01() < spec_.swap_fail_prob;
    if (failed) count_injection("transfer_failure");
    return failed;
  }

  /// How far through its bytes a failing transfer got before dying.
  [[nodiscard]] double draw_failure_fraction() {
    return transfer_rng_.uniform(0.05, 0.95);
  }

  /// Draws whether a checkpoint write fails.
  [[nodiscard]] bool draw_checkpoint_failure() {
    const bool failed =
        spec_.checkpoint_fail_prob > 0.0 &&
        checkpoint_rng_.uniform01() < spec_.checkpoint_fail_prob;
    if (failed) count_injection("checkpoint_failure");
    return failed;
  }

  /// Capped exponential backoff before retry number `attempt` + 1.
  [[nodiscard]] double retry_backoff(std::size_t attempt) const;

 private:
  /// Bumps "fault.injections{kind=...}" when a metrics registry is attached.
  void count_injection(std::string_view kind);

  /// Counts one crash as injected: injected_, the metric and the timeline.
  void book_crash(const HostCrash& crash);

  sim::Simulator& simulator_;
  platform::Cluster& cluster_;
  FaultSpec spec_;
  FaultPlan plan_;
  sim::Rng transfer_rng_;
  sim::Rng checkpoint_rng_;
  std::vector<std::function<void(platform::HostId)>> listeners_;
  std::size_t injected_ = 0;
  bool armed_ = false;
};

}  // namespace simsweep::fault
