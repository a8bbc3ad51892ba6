#include "fault/fault.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace simsweep::fault {

bool FaultSpec::crashes_enabled() const noexcept {
  return host_mtbf_s > 0.0 && std::isfinite(host_mtbf_s);
}

bool FaultSpec::enabled() const noexcept {
  return crashes_enabled() || swap_fail_prob > 0.0 ||
         checkpoint_fail_prob > 0.0;
}

void FaultSpec::validate() const {
  if (host_mtbf_s < 0.0)
    throw std::invalid_argument("FaultSpec: negative host MTBF");
  if (swap_fail_prob < 0.0 || swap_fail_prob > 1.0)
    throw std::invalid_argument("FaultSpec: swap_fail_prob outside [0, 1]");
  if (checkpoint_fail_prob < 0.0 || checkpoint_fail_prob > 1.0)
    throw std::invalid_argument(
        "FaultSpec: checkpoint_fail_prob outside [0, 1]");
  if (retry_backoff_s < 0.0 || retry_backoff_cap_s < 0.0)
    throw std::invalid_argument("FaultSpec: negative retry backoff");
  if (blacklist_after == 0)
    throw std::invalid_argument("FaultSpec: blacklist_after must be >= 1");
}

FaultPlan FaultPlan::generate(const FaultSpec& spec, std::size_t host_count,
                              std::uint64_t seed, double horizon_s) {
  FaultPlan plan;
  if (!spec.crashes_enabled()) return plan;
  for (std::size_t h = 0; h < host_count; ++h) {
    // Per-host stream: host h's crash time is independent of the cluster
    // size and of every other host's draw.
    sim::Rng rng(sim::derive_seed(seed, h));
    const double t = rng.exponential_mean(spec.host_mtbf_s);
    if (t < horizon_s)
      plan.crashes_.push_back(
          HostCrash{static_cast<platform::HostId>(h), t});
  }
  std::sort(plan.crashes_.begin(), plan.crashes_.end(),
            [](const HostCrash& a, const HostCrash& b) {
              if (a.time_s != b.time_s) return a.time_s < b.time_s;
              return a.host < b.host;
            });
  return plan;
}

FaultInjector::FaultInjector(sim::Simulator& simulator,
                             platform::Cluster& cluster, const FaultSpec& spec,
                             std::uint64_t seed, double horizon_s)
    : simulator_(simulator),
      cluster_(cluster),
      spec_(spec),
      plan_(FaultPlan::generate(spec, cluster.size(), seed, horizon_s)),
      transfer_rng_(sim::derive_seed(seed, 0x7452414E53ULL)),
      checkpoint_rng_(sim::derive_seed(seed, 0x434B5054ULL)) {
  spec_.validate();
}

void FaultInjector::arm() {
  if (armed_) throw std::logic_error("FaultInjector: already armed");
  armed_ = true;
  for (const HostCrash& crash : plan_.crashes()) {
    simulator_.at(crash.time_s, [this, crash] {
      cluster_.host(crash.host).set_crashed();
      book_crash(crash);
      // Listeners run after the host is marked dead so they observe the
      // post-crash cluster state.
      for (const auto& listener : listeners_) listener(crash.host);
    });
  }
}

void FaultInjector::settle_through(sim::SimTime t) {
  const std::vector<HostCrash>& crashes = plan_.crashes();
  while (injected_ < crashes.size() && crashes[injected_].time_s <= t)
    book_crash(crashes[injected_]);
}

void FaultInjector::book_crash(const HostCrash& crash) {
  ++injected_;
  count_injection("host_crash");
  if (obs::TimelineTracer* timeline = simulator_.timeline())
    timeline->instant(timeline->track("faults"), "host_crash", "fault",
                      crash.time_s,
                      {{"host", static_cast<double>(crash.host)}});
}

void FaultInjector::count_injection(std::string_view kind) {
  if (obs::MetricsRegistry* metrics = simulator_.metrics())
    metrics->add(obs::labelled("fault.injections", "kind", kind));
}

double FaultInjector::retry_backoff(std::size_t attempt) const {
  const double factor = std::pow(2.0, static_cast<double>(attempt));
  return std::min(spec_.retry_backoff_cap_s, spec_.retry_backoff_s * factor);
}

}  // namespace simsweep::fault
