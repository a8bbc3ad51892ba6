#include "simcore/fair_share.hpp"

#include <algorithm>
#include <utility>

namespace simsweep::sim {

void FairShare::Entry::abandon() {
  if (!active_) return;
  active_ = false;
  if (share_ != nullptr) {
    FairShare& share = *share_;
    const std::shared_ptr<Entry> keep = share.release(*this);
    share.replan();
  }
}

FairShare::FairShare(Simulator& simulator, double capacity,
                     const char* subsystem, std::string label,
                     const char* pass_metric, FinishHook on_finish)
    : simulator_(simulator),
      capacity_(capacity),
      subsystem_(subsystem),
      label_(std::move(label)),
      pass_metric_(pass_metric),
      on_finish_(std::move(on_finish)) {}

void FairShare::set_load(double capacity, double phantoms) {
  capacity_ = capacity;
  phantoms_ = phantoms;
  replan();
}

void FairShare::add(std::shared_ptr<Entry> entry) {
  entry->share_ = this;
  entry->last_update_ = simulator_.now();
  entries_.push_back(std::move(entry));
  replan();
}

void FairShare::replan() {
  if (replanning_) {
    replan_pending_ = true;
    return;
  }
  replanning_ = true;
  do {
    replan_pending_ = false;
    if (pass_metric_ != nullptr)
      if (obs::MetricsRegistry* metrics = simulator_.metrics())
        metrics->add(pass_metric_);
    if (entries_.empty())
      completion_.cancel();  // nothing left to complete
    else
      pass(auditing());
  } while (replan_pending_);
  replanning_ = false;
}

void FairShare::pass(bool auditing) {
  const SimTime now = simulator_.now();
  const double sharers = phantoms_ + static_cast<double>(entries_.size());
  const double rate = capacity_ / std::max(1.0, sharers);
  if (auditing && rate * sharers > capacity_ * (1.0 + 1e-9))
    simulator_.auditor()->report(
        subsystem_, "rates_within_capacity", now,
        label_ + ": " + std::to_string(sharers) + " sharers at " +
            std::to_string(rate) + "/s exceed capacity " +
            std::to_string(capacity_) + "/s");
  // A pass runs no model code, so entries_ cannot change under the loop.
  SimTime next = kTimeInfinity;
  for (const std::shared_ptr<Entry>& entry : entries_) {
    accrue(*entry, now, auditing);
    entry->rate_ = rate;
    entry->finish_at_ =
        rate > 0.0 ? now + entry->remaining_ / rate : kTimeInfinity;
    next = std::min(next, entry->finish_at_);
  }
  completion_.cancel();
  if (rate <= 0.0) return;  // stalled until the next re-plan
  completion_ = simulator_.at(next, [this] { complete_next(); });
}

/// Fired at the earliest finish time: finishes the first entry, in arrival
/// order, that is due now.  Its finish re-plans the survivors, so an entry
/// tied with it gets a fresh event at this same instant.
void FairShare::complete_next() {
  const SimTime now = simulator_.now();
  for (const std::shared_ptr<Entry>& entry : entries_)
    if (entry->finish_at_ == now) {
      finish(*entry);  // releases the entry: stop iterating
      return;
    }
}

/// Progress since the last re-plan, with the conservation audits: the
/// interval is non-negative and the remaining amount stays within
/// [-slack, initial + slack].
void FairShare::accrue(Entry& entry, SimTime now, bool auditing) const {
  const double elapsed = now - entry.last_update_;
  entry.remaining_ -= entry.rate_ * elapsed;
  if (auditing) {
    audit::InvariantAuditor* auditor = simulator_.auditor();
    if (elapsed < -kTimeEpsilon)
      auditor->report(subsystem_, "non_negative_elapsed", now,
                      label_ + ": accrued over a negative interval of " +
                          std::to_string(elapsed) + " s");
    if (entry.remaining_ < -slack(entry) ||
        entry.remaining_ > entry.initial_ + slack(entry))
      auditor->report(subsystem_, "amount_conservation", now,
                      label_ + ": remaining " +
                          std::to_string(entry.remaining_) + " of " +
                          std::to_string(entry.initial_));
  }
  if (entry.remaining_ < 0.0) entry.remaining_ = 0.0;
  entry.last_update_ = now;
}

void FairShare::finish(Entry& entry) {
  if (auditing()) {
    // The completion event was scheduled from (remaining, rate); when it
    // fires, the un-accrued residual must be a rounding error, not work
    // being silently dropped.
    const double residual =
        entry.remaining_ -
        entry.rate_ * (simulator_.now() - entry.last_update_);
    if (residual > slack(entry) || residual < -slack(entry))
      simulator_.auditor()->report(
          subsystem_, "amount_conservation", simulator_.now(),
          label_ + ": finished with " + std::to_string(residual) +
              " unaccounted of " + std::to_string(entry.initial_));
  }
  entry.remaining_ = 0.0;
  entry.active_ = false;
  const std::shared_ptr<Entry> keep = release(entry);
  if (on_finish_) on_finish_(entry);
  if (keep) replan();  // the survivors get a bigger share
  if (entry.done_) entry.done_();
}

std::shared_ptr<FairShare::Entry> FairShare::release(Entry& entry) {
  if (entry.share_ == nullptr) return nullptr;
  entry.share_ = nullptr;
  const auto it = std::find_if(
      entries_.begin(), entries_.end(),
      [&entry](const std::shared_ptr<Entry>& e) { return e.get() == &entry; });
  std::shared_ptr<Entry> owned = std::move(*it);
  entries_.erase(it);
  return owned;
}

bool FairShare::auditing() const noexcept {
  const audit::InvariantAuditor* auditor = simulator_.auditor();
  return auditor != nullptr && auditor->enabled();
}

/// Rounding allowance for the conservation audits: relative quantisation of
/// the amount (eta = remaining/rate re-multiplied by rate) plus one time
/// epsilon of progress.  Genuine double-accounting is off by whole rate*dt
/// amounts, orders beyond it.
double FairShare::slack(const Entry& entry) const noexcept {
  return 1e-9 * entry.initial_ + 1e-3 + entry.rate_ * kTimeEpsilon;
}

}  // namespace simsweep::sim
