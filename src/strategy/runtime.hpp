// Shared technique runtime: the one place that drives the common
// measure → estimate → decide → act → recover loop for every technique.
//
// A launched run is an IterativeExecution (the BSP iteration driver) plus a
// TechniqueRuntime (the shared adaptation/fault machinery) plus one
// Remediation (the technique-specific part: what to do at an iteration
// boundary and how to recover from a crash).  The runtime owns:
//
//   - the boundary dispatch (cancel any stall watchdog, delegate to the
//     remediation, which must eventually resume the application);
//   - the fault-recovery ladder from the fault-injection subsystem: the
//     crash callback and the iteration-start observer both funnel into one
//     guarded react path that aborts the in-flight iteration and hands the
//     crash to the remediation;
//   - faulty state transfers (partial payload on failure, capped
//     exponential backoff, abandonment) and reliable central-store
//     transfers, with the flow keep-alive bookkeeping;
//   - pause accounting (adaptation overhead vs. failure-induced lost time);
//   - decision-trace collection (strategy.hpp's trace_decisions flag).
//
// Techniques (technique_*.cpp) combine the components in components.hpp
// behind a Remediation; none of them re-implements any of the above.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <vector>

#include "fault/fault.hpp"
#include "strategy/decision_trace.hpp"
#include "strategy/estimator.hpp"
#include "strategy/executor.hpp"
#include "strategy/strategy.hpp"

namespace simsweep::strategy {

class TechniqueRuntime;

/// The narrow per-technique interface: how to adapt at an iteration
/// boundary and how to recover from a crash that hit the placement.  The
/// runtime aborts the in-flight iteration before calling recover(); the
/// remediation repairs the placement and restarts (or gives up via
/// TechniqueRuntime::mark_resource_exhausted).
class Remediation {
 public:
  virtual ~Remediation() = default;

  /// Boundary adaptation.  Must eventually invoke `resume` exactly once
  /// (possibly after scheduling simulated work).  Default: do nothing.
  virtual void at_boundary(TechniqueRuntime& rt, std::function<void()> resume);

  /// Crash recovery; runs with the iteration already aborted.
  virtual void recover(TechniqueRuntime& rt) = 0;

  /// Candidate-pool pruning when `host` crashes, before recovery fires.
  /// Default: nothing to prune.
  virtual void on_host_crashed(TechniqueRuntime& rt, platform::HostId host);

  /// Optional observer chained before the crash check at every iteration
  /// start (the eviction guard arms its stall watchdog here).  Default:
  /// none.
  [[nodiscard]] virtual std::function<void(IterativeExecution&)>
  iteration_start_observer(TechniqueRuntime& rt);
};

/// Shared state and machinery for one launched run.  Created via
/// std::make_shared (the boundary hook and fault callbacks keep it alive);
/// holds a non-owning pointer to the IterativeExecution that owns the run.
class TechniqueRuntime
    : public std::enable_shared_from_this<TechniqueRuntime> {
 public:
  TechniqueRuntime(fault::FaultInjector* faults,
                   std::shared_ptr<SpeedEstimator> estimator,
                   bool trace_decisions)
      : faults_(faults),
        estimator_(std::move(estimator)),
        trace_enabled_(trace_decisions) {}

  /// The boundary hook to construct the IterativeExecution with: cancels
  /// any armed stall watchdog (the boundary proves the iteration finished)
  /// and delegates to the remediation.
  [[nodiscard]] static IterativeExecution::BoundaryHook boundary_hook(
      std::shared_ptr<TechniqueRuntime> rt);

  /// Binds the execution and remediation and installs the fault-recovery
  /// ladder: both triggers (the injector's crash callback and the
  /// iteration-start observer) only act while an iteration is in flight —
  /// begin_iteration starts tasks before the observer runs, so a crash in
  /// any other window (startup, boundary pause, recovery) is caught at the
  /// next iteration start.  Call once, before IterativeExecution::start.
  void wire(IterativeExecution& exec, std::unique_ptr<Remediation> remediation);

  // --- accessors ----------------------------------------------------------

  [[nodiscard]] IterativeExecution& exec() noexcept { return *exec_; }
  [[nodiscard]] fault::FaultInjector* faults() noexcept { return faults_; }
  [[nodiscard]] SpeedEstimator& estimator() noexcept { return *estimator_; }
  [[nodiscard]] sim::SimTime now() noexcept {
    return exec_->simulator().now();
  }
  [[nodiscard]] bool recovering() const noexcept { return recovering_; }
  [[nodiscard]] sim::EventHandle& watchdog() noexcept { return watchdog_; }

  // --- fault primitives ---------------------------------------------------

  /// True when any active process currently sits on a crashed host.
  [[nodiscard]] bool placement_hit_by_crash();

  /// Aborts the in-flight iteration because of a crash; the abandoned
  /// partial work is failure-induced lost time on top of the adaptation
  /// charge.
  void abort_for_crash();

  /// The technique gives up: no usable host remains to recover onto.  The
  /// give-up instant is the makespan and the run's terminal event, so the
  /// simulator stops here.  Ends any recovery in progress.
  void mark_resource_exhausted();

  // --- transfers ----------------------------------------------------------

  /// Runs one logical state transfer of `bytes` over the shared link,
  /// subject to fault injection: an attempt may die partway (the partial
  /// payload still occupied the link), failed attempts retry after capped
  /// exponential backoff, and the move is abandoned once retries run out.
  /// `done(true)` fires when the full payload lands, `done(false)` on
  /// abandonment; `on_attempt_failed` fires once per failed attempt
  /// (blacklist strikes).  With a null injector this is exactly one clean
  /// start_transfer.
  void start_faulty_transfer(double bytes, std::size_t attempt,
                             std::function<void()> on_attempt_failed,
                             std::function<void(bool)> done);

  /// One planned process relocation (partition slot -> destination host).
  struct PlannedMove {
    std::size_t slot = 0;
    platform::HostId to = 0;
  };

  /// Transfers every move's state concurrently over the shared link, each
  /// via start_faulty_transfer with the process state size.  `apply` fires
  /// per landed payload (an abandoned move leaves the process in place),
  /// `on_strike(to)` per failed attempt, and `done(landed)` once after the
  /// last transfer completes or is abandoned.
  void transfer_moves(
      const std::vector<PlannedMove>& moves,
      std::function<void(platform::HostId)> on_strike,
      std::function<void(std::size_t, platform::HostId)> apply,
      std::function<void(std::size_t)> done);

  /// `count` concurrent reliable transfers of the process state size (the
  /// central checkpoint store does not fail); `done` fires after the last.
  void reliable_broadcast(std::size_t count, std::function<void()> done);

  // --- pause accounting ---------------------------------------------------

  /// Marks the start of an adaptation pause at the current time.
  void begin_adaptation_pause() { pause_start_ = now(); }

  /// Marks the start of crash recovery: cancels any stall watchdog, raises
  /// the recovering flag (masking re-entrant crash reactions) and starts
  /// the pause clock.
  void begin_recovery();

  /// Charges the elapsed pause to adaptation overhead.
  void charge_adaptation_pause();

  /// Charges the elapsed pause to adaptation overhead AND failure-induced
  /// lost time (failed checkpoints, recovery work).
  void charge_failure_pause();

  /// Ends crash recovery: charge_failure_pause + clears the flag.
  void charge_recovery_pause();

  // --- decision traces ----------------------------------------------------

  static constexpr std::size_t kNoTrace = static_cast<std::size_t>(-1);

  /// Appends a boundary record (stamped with iteration/time) and returns
  /// its index for later trace_swaps_applied; kNoTrace when disabled.
  std::size_t trace_boundary(const swap::SwapPlan& plan,
                             double measured_iter_time_s,
                             double adaptation_cost_s,
                             std::size_t active_count,
                             std::size_t spare_count);

  /// Back-fills how many planned moves actually landed.
  void trace_swaps_applied(std::size_t index, std::size_t applied);

  /// Appends a recovery-action record.
  void trace_recovery(const char* action, std::size_t processes);

 private:
  void on_boundary(std::function<void()> resume);
  void react_to_crash();
  double audited_pause(const char* kind);

  IterativeExecution* exec_ = nullptr;
  std::unique_ptr<Remediation> remediation_;
  fault::FaultInjector* faults_ = nullptr;
  std::shared_ptr<SpeedEstimator> estimator_;

  std::vector<std::shared_ptr<net::Flow>> transfers_;  // flow keep-alive
  std::size_t pending_ = 0;
  sim::SimTime pause_start_ = 0.0;
  sim::EventHandle watchdog_;
  bool recovering_ = false;

  bool trace_enabled_ = false;
};

}  // namespace simsweep::strategy
