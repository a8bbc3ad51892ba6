#include "platform/host.hpp"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>
#include <utility>

namespace simsweep::platform {

Host::Host(sim::Simulator& simulator, HostId id, double peak_speed_flops,
           std::string name)
    : simulator_(simulator),
      id_(id),
      peak_speed_(peak_speed_flops),
      name_(std::move(name)),
      share_(simulator, peak_speed_flops, "platform", name_) {
  if (peak_speed_flops <= 0.0)
    throw std::invalid_argument("Host: peak speed must be positive");
  load_history_.push_back(sim::Sample{simulator_.now(), 0.0});
}

void Host::drive(std::unique_ptr<load::LoadSource> source) {
  drive(*source);
  owned_source_ = std::move(source);
}

void Host::drive(load::LoadSource& source) {
  if (source_ != nullptr)
    throw std::logic_error("Host: already driving a load source");
  source_ = &source;
  const SimTime now = simulator_.now();
  apply(source.begin(now), now);
  next_change_ = source.next_change();
  take_due_changes();
  arm_if_watched();
}

void Host::take_next_change() {
  const SimTime at = next_change_;
  const load::LoadState state = source_->advance();
  next_change_ = source_->next_change();
  apply(state, at);
}

void Host::take_due_changes() {
  const SimTime now = simulator_.now();
  while (next_change_ <= now) take_next_change();
}

void Host::arm_if_watched() {
  if (armed_ || next_change_ == sim::kTimeInfinity) return;
  if (running_tasks() == 0 && trace_ == nullptr &&
      simulator_.timeline() == nullptr)
    return;
  armed_ = true;
  (void)simulator_.at(next_change_, [this] {
    armed_ = false;
    take_next_change();
    arm_if_watched();
  });
}

void Host::apply(load::LoadState state, SimTime at) {
  apply_competitors(state.competitors, at);
  apply_online(state.online, at);
}

void Host::set_external_load(int competitors) {
  catch_up();
  apply_competitors(competitors, simulator_.now());
}

void Host::apply_competitors(int competitors, SimTime at) {
  if (competitors < 0)
    throw std::invalid_argument("Host: negative competing-process count");
  if (competitors == external_load_) return;
  external_load_ = competitors;
  if (online_) record_state(at);
  reshare();
}

void Host::set_online(bool online) {
  catch_up();
  apply_online(online, simulator_.now());
}

void Host::apply_online(bool online, SimTime at) {
  if (crashed_) return;  // dead hosts stay dead
  if (online == online_) return;
  online_ = online;
  record_state(at);
  reshare();
}

void Host::reshare() {
  share_.set_load(online_ ? peak_speed_ : 0.0,
                  static_cast<double>(external_load_));
}

void Host::set_crashed() {
  if (crashed_) return;
  set_online(false);  // records the offline marker and stalls running tasks
  crashed_ = true;
}

/// Records the state reached at `at`.  Reads the state as it stands: a
/// caught-up change is recorded while later ones are still being taken.
void Host::record_state(SimTime at) {
  const double avail = current_availability();
  audit::InvariantAuditor* auditor = simulator_.auditor();
  if (auditor != nullptr && auditor->enabled()) {
    if (avail < 0.0 || avail > 1.0)
      auditor->report("platform", "availability_in_unit_interval", at,
                      name_ + " availability " + std::to_string(avail));
    if (!load_history_.empty() &&
        at < load_history_.back().time - sim::kTimeEpsilon)
      auditor->report("platform", "load_history_time_ordered", at,
                      name_ + " history sample behind tail at t=" +
                          std::to_string(load_history_.back().time));
  }
  load_history_.push_back(sim::Sample{
      at, online_ ? static_cast<double>(external_load_) : kOfflineMarker});
  if (trace_ != nullptr) trace_->record("avail." + name_, at, avail);
  if (obs::MetricsRegistry* metrics = simulator_.metrics()) {
    if (load_changes_metric_ == nullptr) {
      static const std::vector<double> kAvailabilityBounds{
          0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0};
      load_changes_metric_ = &metrics->counter("platform.load_changes");
      availability_metric_ =
          &metrics->histogram("platform.availability", kAvailabilityBounds);
    }
    load_changes_metric_->add();
    availability_metric_->observe(avail);
  }
  if (obs::TimelineTracer* timeline = simulator_.timeline()) {
    if (!timeline_track_cached_) {
      timeline_track_ = timeline->track(name_);
      timeline_track_cached_ = true;
    }
    timeline->instant(timeline_track_, "load", "platform", at,
                      {{"availability", avail},
                       {"external_load", online_
                                             ? static_cast<double>(
                                                   external_load_)
                                             : kOfflineMarker}});
  }
}

std::shared_ptr<ComputeTask> Host::start_compute(double work,
                                                 ComputeTask::Completion done) {
  if (work < 0.0) throw std::invalid_argument("Host: negative work");
  catch_up();
  auto task =
      std::shared_ptr<ComputeTask>(new ComputeTask(work, std::move(done)));
  share_.add(task);
  arm_if_watched();
  return task;
}

void Host::attach_trace(sim::TraceRecorder* recorder) {
  catch_up();
  trace_ = recorder;
  if (trace_ != nullptr) {
    trace_->record("avail." + name_, simulator_.now(), availability());
    arm_if_watched();
  }
}

double Host::mean_availability(SimTime t0, SimTime t1) const {
  // load_history_ is a step series of competing-process counts; convert the
  // time-averaged count into availability segment by segment.
  if (t1 < t0) throw std::invalid_argument("mean_availability: t1 < t0");
  catch_up();
  if (sim::time_close(t0, t1)) return current_availability();
  // The history is time-ordered: binary-search the first sample after t0;
  // the one before it (if any) holds the value in force at t0.
  auto it = std::upper_bound(
      load_history_.begin(), load_history_.end(), t0,
      [](SimTime t, const sim::Sample& s) { return t < s.time; });
  double area = 0.0;
  double value = it == load_history_.begin() ? 0.0 : std::prev(it)->value;
  SimTime cursor = t0;
  for (; it != load_history_.end() && it->time < t1; ++it) {
    area += (it->time - cursor) * availability_of_sample(value);
    cursor = it->time;
    value = it->value;
  }
  area += (t1 - cursor) * availability_of_sample(value);
  const double mean = area / (t1 - t0);
  audit::InvariantAuditor* auditor = simulator_.auditor();
  if (auditor != nullptr && auditor->enabled()) {
    // The integral of a step series bounded to [0, 1] must itself land in
    // [0, 1]; anything else means the window walk double-counted a segment.
    if (mean < -1e-12 || mean > 1.0 + 1e-12)
      auditor->report("platform", "availability_integral_in_unit_interval",
                      simulator_.now(),
                      name_ + " mean availability " + std::to_string(mean) +
                          " over [" + std::to_string(t0) + ", " +
                          std::to_string(t1) + "]");
  }
  return mean;
}

}  // namespace simsweep::platform
