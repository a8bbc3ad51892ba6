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

void Host::set_external_load(int competitors) {
  if (competitors < 0)
    throw std::invalid_argument("Host: negative competing-process count");
  if (competitors == external_load_) return;
  external_load_ = competitors;
  if (online_) record_state();
  reshare();
}

void Host::set_online(bool online) {
  if (crashed_) return;  // dead hosts stay dead
  if (online == online_) return;
  online_ = online;
  record_state();
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

void Host::record_state() {
  audit::InvariantAuditor* auditor = simulator_.auditor();
  if (auditor != nullptr && auditor->enabled()) {
    const double avail = availability();
    if (avail < 0.0 || avail > 1.0)
      auditor->report("platform", "availability_in_unit_interval",
                      simulator_.now(),
                      name_ + " availability " + std::to_string(avail));
    if (!load_history_.empty() &&
        simulator_.now() < load_history_.back().time - sim::kTimeEpsilon)
      auditor->report("platform", "load_history_time_ordered",
                      simulator_.now(),
                      name_ + " history sample behind tail at t=" +
                          std::to_string(load_history_.back().time));
  }
  load_history_.push_back(sim::Sample{
      simulator_.now(),
      online_ ? static_cast<double>(external_load_) : kOfflineMarker});
  if (trace_ != nullptr)
    trace_->record("avail." + name_, simulator_.now(), availability());
  if (obs::MetricsRegistry* metrics = simulator_.metrics()) {
    if (load_changes_metric_ == nullptr) {
      static const std::vector<double> kAvailabilityBounds{
          0.0, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0};
      load_changes_metric_ = &metrics->counter("platform.load_changes");
      availability_metric_ =
          &metrics->histogram("platform.availability", kAvailabilityBounds);
    }
    load_changes_metric_->add();
    availability_metric_->observe(availability());
  }
  if (obs::TimelineTracer* timeline = simulator_.timeline()) {
    if (!timeline_track_cached_) {
      timeline_track_ = timeline->track(name_);
      timeline_track_cached_ = true;
    }
    timeline->instant(timeline_track_, "load", "platform", simulator_.now(),
                      {{"availability", availability()},
                       {"external_load", online_
                                             ? static_cast<double>(
                                                   external_load_)
                                             : kOfflineMarker}});
  }
}

std::shared_ptr<ComputeTask> Host::start_compute(double work,
                                                 ComputeTask::Completion done) {
  if (work < 0.0) throw std::invalid_argument("Host: negative work");
  auto task =
      std::shared_ptr<ComputeTask>(new ComputeTask(work, std::move(done)));
  share_.add(task);
  return task;
}

void Host::attach_trace(sim::TraceRecorder* recorder) {
  trace_ = recorder;
  if (trace_ != nullptr)
    trace_->record("avail." + name_, simulator_.now(), availability());
}

double Host::mean_availability(SimTime t0, SimTime t1) const {
  // load_history_ is a step series of competing-process counts; convert the
  // time-averaged count into availability segment by segment.
  if (t1 < t0) throw std::invalid_argument("mean_availability: t1 < t0");
  if (sim::time_close(t0, t1)) return availability();
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
