#include "net/shared_link.hpp"

#include <stdexcept>

namespace simsweep::net {

void Flow::cancel() {
  if (!active()) return;
  if (obs::MetricsRegistry* metrics = simulator_->metrics())
    metrics->add("net.flows_cancelled");
  latency_.cancel();
  abandon();
}

SharedLinkNetwork::SharedLinkNetwork(sim::Simulator& simulator,
                                     platform::LinkSpec link)
    : simulator_(simulator),
      link_(link),
      share_(simulator, link.bandwidth_Bps, "net", "link",
             "net.reshare_passes", [this](sim::FairShare::Entry& flow) {
               observe_completion(static_cast<const Flow&>(flow));
             }) {
  if (link.bandwidth_Bps <= 0.0)
    throw std::invalid_argument("SharedLinkNetwork: bandwidth must be positive");
  if (link.latency_s < 0.0)
    throw std::invalid_argument("SharedLinkNetwork: negative latency");
}

std::shared_ptr<Flow> SharedLinkNetwork::start_transfer(double bytes,
                                                        Flow::Completion done) {
  if (bytes < 0.0)
    throw std::invalid_argument("SharedLinkNetwork: negative payload");
  auto flow =
      std::shared_ptr<Flow>(new Flow(simulator_, bytes, std::move(done)));
  if (obs::MetricsRegistry* metrics = simulator_.metrics())
    metrics->add("net.flows_started");
  std::weak_ptr<Flow> weak = flow;
  flow->latency_ = simulator_.after(link_.latency_s, [this, weak] {
    const std::shared_ptr<Flow> f = weak.lock();
    if (!f || !f->active()) return;
    // A latency-only message completes right after alpha, never sharing.
    if (f->remaining_bytes() <= 0.0)
      share_.finish(*f);
    else
      share_.add(f);
  });
  return flow;
}

/// Completion-side observability: one counter tick, the payload into the
/// bytes histogram, and a [submit, land] span on the shared "network" track.
void SharedLinkNetwork::observe_completion(const Flow& flow) {
  const SimTime now = simulator_.now();
  if (obs::MetricsRegistry* metrics = simulator_.metrics()) {
    metrics->add("net.flows_completed");
    metrics->observe("net.flow_bytes", flow.initial());
    metrics->observe("net.flow_duration_s", now - flow.started_);
  }
  if (obs::TimelineTracer* timeline = simulator_.timeline())
    timeline->span(timeline->track("network"), "flow", "net", flow.started_,
                   now, {{"bytes", flow.initial()}});
}

}  // namespace simsweep::net
