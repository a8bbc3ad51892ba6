// Simulated workstation.
//
// A Host has a fixed peak speed and a time-varying number of external
// competing compute-bound processes.  It is an adapter over sim::FairShare:
// the CPU is shared fairly between the competitors (phantom sharers) and
// every application task running on the host, so each application task
// progresses at
//
//     peak_speed / max(1, external_load + running_app_tasks)   [flop/s]
//
// and at 0 while the host is offline.  The Host itself keeps only what is
// specific to a workstation: its load history, the availability it reports
// and the observability of load changes.
//
// The host drives its load source (load/load_source.hpp).  While something
// watches every change as it happens — a running task, whose progress the
// load sets, or an attached timeline or trace recorder — it keeps one
// simulator event pending at the source's next change and re-arms it after
// each change.  Otherwise it fires nothing: every load-state accessor and
// mutator first takes the changes due by now, each recorded at its own
// change time.  A spare host that runs nothing therefore costs no events,
// and both ways leave the same history, metrics and state.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "load/load_source.hpp"
#include "simcore/fair_share.hpp"
#include "simcore/sim_time.hpp"
#include "simcore/simulator.hpp"
#include "simcore/trace_recorder.hpp"

namespace simsweep::platform {

using sim::SimDuration;
using sim::SimTime;

/// A unit of CPU work executing on a host.  Created via Host::start_compute;
/// destroyed (or cancelled) when complete.
class ComputeTask : public sim::FairShare::Entry {
 public:
  /// Work still to do, in flops, as of the last re-plan; 0 once complete.
  [[nodiscard]] double remaining_work() const noexcept { return remaining(); }

  /// Abandons the task; the completion callback will not fire.  The other
  /// tasks on the host take over its share.
  void cancel() { abandon(); }

 private:
  friend class Host;
  using Entry::Entry;
};

/// Identifier of a host within its cluster.
using HostId = std::uint32_t;

class Host {
 public:
  Host(sim::Simulator& simulator, HostId id, double peak_speed_flops,
       std::string name);

  Host(const Host&) = delete;
  Host& operator=(const Host&) = delete;

  [[nodiscard]] HostId id() const noexcept { return id_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  /// Peak speed in flop/s with no competition.
  [[nodiscard]] double peak_speed() const noexcept { return peak_speed_; }

  /// Has this host drive `source`: applies its initial state and every
  /// change due by now, then every later change (see the file comment).
  /// At most one source per host.
  void drive(std::unique_ptr<load::LoadSource> source);

  /// drive() for a source the caller keeps alive while the host is in use.
  void drive(load::LoadSource& source);

  /// Time of the driven source's next load change; +infinity without a
  /// source or once it is absorbed.
  [[nodiscard]] SimTime next_load_change() const noexcept {
    return next_change_;
  }

  /// Takes the load changes due by now that have not been taken yet.  The
  /// accessors below call it; it is public so a run can bring its hosts up
  /// to date when it ends.  Logically const: it only materialises the
  /// state the host is already in (and no Host is ever defined const).
  void catch_up() const {
    if (!armed_ && next_change_ <= simulator_.now())
      const_cast<Host*>(this)->take_due_changes();
  }

  /// Number of external competing compute-bound processes right now.
  [[nodiscard]] int external_load() const {
    catch_up();
    return external_load_;
  }

  /// Fraction of peak speed an application task would receive if it were the
  /// only app task on the host: 1 / (1 + external_load), or 0 while the
  /// host is offline (reclaimed by its owner).
  [[nodiscard]] double availability() const {
    catch_up();
    return current_availability();
  }

  /// Effective speed (flop/s) a single app task would get right now.
  [[nodiscard]] double effective_speed() const {
    return peak_speed_ * availability();
  }

  /// Sets the external competing-process count; re-plans running tasks.
  void set_external_load(int competitors);

  /// Marks the host reclaimed by its owner (offline) or available again.
  /// While offline the host contributes no cycles: availability() is 0 and
  /// running tasks stall until the host returns.  Orthogonal to the
  /// competing-process count, which is preserved across the outage.
  /// Ignored once the host has crashed — a dead machine does not come back.
  void set_online(bool online);

  [[nodiscard]] bool online() const {
    catch_up();
    return online_;
  }

  /// Permanent failure (fault injection): the host goes offline forever and
  /// any process state it held is lost.  Unlike graceful reclamation
  /// (set_online(false)), a crashed host never returns; subsequent
  /// changes back online from its load source are ignored.
  void set_crashed();

  [[nodiscard]] bool crashed() const noexcept { return crashed_; }

  /// Starts `work` flops of application work; `done` fires at completion.
  /// The returned task stays valid until completion or cancellation.
  std::shared_ptr<ComputeTask> start_compute(double work,
                                             ComputeTask::Completion done);

  /// Number of application tasks currently running here.
  [[nodiscard]] std::size_t running_tasks() const noexcept {
    return share_.size();
  }

  /// Optional availability trace: when a recorder is attached the host logs
  /// availability() on every load change under series "avail.<name>", and
  /// fires its load changes as events.
  void attach_trace(sim::TraceRecorder* recorder);

  /// Recorded load history since construction: sample values are the
  /// competing-process count while online and kOfflineMarker (-1) while the
  /// host is reclaimed.  Used by performance-history estimators.
  [[nodiscard]] const std::vector<sim::Sample>& load_history() const {
    catch_up();
    return load_history_;
  }

  /// Sentinel value in load_history() marking an offline interval.
  static constexpr double kOfflineMarker = -1.0;

  /// Availability implied by one load_history() sample value.
  [[nodiscard]] static double availability_of_sample(double value) noexcept {
    return value < 0.0 ? 0.0 : 1.0 / (1.0 + value);
  }

  /// Mean availability over [t0, t1] from the recorded history.  Finds t0
  /// by binary search, so the cost grows with the samples inside the window,
  /// not with the length of the history.
  [[nodiscard]] double mean_availability(SimTime t0, SimTime t1) const;

 private:
  /// Availability of the state as it stands, without catching up.
  [[nodiscard]] double current_availability() const noexcept {
    if (!online_) return 0.0;
    return 1.0 / (1.0 + static_cast<double>(external_load_));
  }

  /// Applies a load state the source reached at time `at`.
  void apply(load::LoadState state, SimTime at);
  void apply_competitors(int competitors, SimTime at);
  void apply_online(bool online, SimTime at);
  /// Takes the source's next change.
  void take_next_change();
  void take_due_changes();
  /// Keeps one event pending at the next change while someone watches.
  void arm_if_watched();
  void record_state(SimTime at);
  /// Hands the current capacity and competitor count to the CPU share.
  void reshare();

  sim::Simulator& simulator_;
  HostId id_;
  double peak_speed_;
  std::string name_;
  int external_load_ = 0;
  bool online_ = true;
  bool crashed_ = false;
  std::vector<sim::Sample> load_history_;
  sim::TraceRecorder* trace_ = nullptr;

  std::unique_ptr<load::LoadSource> owned_source_;
  load::LoadSource* source_ = nullptr;
  SimTime next_change_ = sim::kTimeInfinity;  ///< cached source_->next_change()
  bool armed_ = false;  ///< an event is pending at next_change_

  // Cached observability handles: record_state fires on every load change
  // (the hottest instrumented path), and the registry/tracer are fixed for
  // a simulation's lifetime, so the name lookups happen once per host.
  obs::Counter* load_changes_metric_ = nullptr;
  obs::Histogram* availability_metric_ = nullptr;
  obs::TimelineTracer::TrackId timeline_track_ = 0;
  bool timeline_track_cached_ = false;

  sim::FairShare share_;  // the CPU
};

}  // namespace simsweep::platform
