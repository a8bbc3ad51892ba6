// Flow-level model of a single shared communication link.
//
// The paper models its 100baseT LAN as one shared link with latency alpha
// and bandwidth beta: messages compete for a fixed amount of bandwidth and
// collisions delay transmission.  We implement the classic fluid
// approximation as an adapter over sim::FairShare: each message first pays
// the latency alpha (during which it does not consume bandwidth), then joins
// a fair share of capacity beta with no phantom sharers, so the n
// concurrently active flows each progress at beta/n.  The adapter itself
// keeps only the latency stage and the net.* metrics and timeline spans.
#pragma once

#include <memory>

#include "platform/cluster.hpp"
#include "simcore/fair_share.hpp"
#include "simcore/simulator.hpp"

namespace simsweep::net {

using sim::SimDuration;
using sim::SimTime;

class SharedLinkNetwork;

/// One in-flight message.
class Flow : public sim::FairShare::Entry {
 public:
  /// Bytes still to transfer as of the last re-share; 0 once complete.
  [[nodiscard]] double remaining_bytes() const noexcept { return remaining(); }

  /// Abandons the transfer; the completion callback will not fire.
  void cancel();

 private:
  friend class SharedLinkNetwork;
  Flow(sim::Simulator& simulator, double bytes, Completion done)
      : Entry(bytes, std::move(done)),
        simulator_(&simulator),
        started_(simulator.now()) {}

  sim::Simulator* simulator_;
  SimTime started_;  // submission time; timeline flow spans
  sim::EventHandle latency_;
};

class SharedLinkNetwork {
 public:
  SharedLinkNetwork(sim::Simulator& simulator, platform::LinkSpec link);

  SharedLinkNetwork(const SharedLinkNetwork&) = delete;
  SharedLinkNetwork& operator=(const SharedLinkNetwork&) = delete;

  /// Starts transferring `bytes`; `done` fires when the last byte lands.
  /// Zero-byte messages still pay the latency.
  std::shared_ptr<Flow> start_transfer(double bytes, Flow::Completion done);

  /// Number of flows currently consuming bandwidth (excludes flows still in
  /// their latency phase).
  [[nodiscard]] std::size_t active_flows() const noexcept {
    return share_.size();
  }

  [[nodiscard]] const platform::LinkSpec& link() const noexcept { return link_; }

  /// Transfer time of `bytes` on an otherwise idle link.
  [[nodiscard]] double uncontended_time(double bytes) const noexcept {
    return link_.latency_s + bytes / link_.bandwidth_Bps;
  }

 private:
  void observe_completion(const Flow& flow);

  sim::Simulator& simulator_;
  platform::LinkSpec link_;
  sim::FairShare share_;  // the bandwidth
};

}  // namespace simsweep::net
