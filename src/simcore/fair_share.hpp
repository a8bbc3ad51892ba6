// Processor sharing: the one fair-share primitive.
//
// A resource of capacity C serves its n entries alongside p phantom
// competitors (load that takes a share but is not simulated), so each entry
// progresses at
//
//     rate = C / max(1, p + n)
//
// Host CPUs (C = peak speed, or 0 while offline; p = external competing
// processes) and the shared link (C = beta; p = 0) are both instances.
// FairShare owns everything the two have in common: progress accrual, the
// rate rule, completion-event scheduling, finish/cancel bookkeeping, the
// accrual audits and the re-plan re-entrancy guard.
//
// A resource keeps one pending completion event, not one per entry.  Each
// re-plan accrues every entry, sets its finish time (now + remaining / rate,
// or +inf while stalled) and moves the event to the earliest of them.  When
// it fires, the first entry in arrival order that is due finishes, and the
// re-plan that follows gives any tied survivor a fresh event at the same
// instant.  Finishes therefore come in the order, and interleave with other
// events in the order, that one event per entry scheduled in arrival order
// at every re-plan would give, for one heap push per re-plan instead of n.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "simcore/simulator.hpp"

namespace simsweep::sim {

class FairShare {
 public:
  /// One unit of work served by a FairShare: flops on a host, bytes on a
  /// link.  Adapters derive their public task types from it.
  class Entry {
   public:
    using Completion = std::function<void()>;

    Entry(const Entry&) = delete;
    Entry& operator=(const Entry&) = delete;

    /// True until the completion callback fires or the entry is cancelled.
    [[nodiscard]] bool active() const noexcept { return active_; }

   protected:
    Entry(double amount, Completion done)
        : remaining_(amount), initial_(amount), done_(std::move(done)) {}
    ~Entry() = default;

    /// Amount still to serve, as of the last re-plan.
    [[nodiscard]] double remaining() const noexcept { return remaining_; }
    /// Amount at submission.
    [[nodiscard]] double initial() const noexcept { return initial_; }

    /// Abandons the entry; the completion callback will not fire.  If it
    /// was being served, the survivors are re-planned onto the freed share.
    void abandon();

   private:
    friend class FairShare;
    FairShare* share_ = nullptr;  // non-null while being served
    double remaining_;
    double initial_;
    Completion done_;
    SimTime last_update_ = 0.0;
    double rate_ = 0.0;  // granted at the last re-plan
    SimTime finish_at_ = kTimeInfinity;  // as of the last re-plan
    bool active_ = true;
  };

  /// Called when an entry completes, after it left the entry set and before
  /// the survivors are re-planned and its own completion callback runs.
  using FinishHook = std::function<void(Entry&)>;

  /// Audit findings are reported under `subsystem` with `label` naming the
  /// resource; `pass_metric`, when set, counts re-plan passes.
  FairShare(Simulator& simulator, double capacity, const char* subsystem,
            std::string label, const char* pass_metric = nullptr,
            FinishHook on_finish = {});

  FairShare(const FairShare&) = delete;
  FairShare& operator=(const FairShare&) = delete;

  /// Changes capacity and phantom competitors; re-plans every entry.
  void set_load(double capacity, double phantoms);

  /// Starts serving `entry` now; every entry's share changes.
  void add(std::shared_ptr<Entry> entry);

  /// Completes `entry` now.  Called by the completion event; also callable
  /// on an entry that never joined (the link's latency-only messages), in
  /// which case the served set is unchanged and nobody is re-planned.
  void finish(Entry& entry);

  /// Number of entries being served.
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  void replan();
  void pass(bool auditing);
  void complete_next();
  void accrue(Entry& entry, SimTime now, bool auditing) const;
  std::shared_ptr<Entry> release(Entry& entry);
  [[nodiscard]] bool auditing() const noexcept;
  [[nodiscard]] double slack(const Entry& entry) const noexcept;

  Simulator& simulator_;
  double capacity_;
  double phantoms_ = 0.0;
  const char* subsystem_;
  std::string label_;
  const char* pass_metric_;
  FinishHook on_finish_;
  std::vector<std::shared_ptr<Entry>> entries_;  // served, in arrival order
  EventHandle completion_;  // at the earliest finish_at_, while rate > 0
  // Re-entrancy guard.  A pass only accrues and schedules, so no current
  // path re-enters it; it stays because interleaving two rate assignments
  // would silently corrupt accrual, and a nested request (from an auditor,
  // hook or scheduler that one day calls back into model code) is cheaper
  // to defer and re-run against the settled set than to rule out forever.
  bool replanning_ = false;
  bool replan_pending_ = false;
};

}  // namespace simsweep::sim
