// Per-layer cost probes: each times one layer's public function from
// outside, on inputs shaped by the counts a traced sweep reported, and
// returns the wall nanoseconds one unit of that layer's work costs.  Each
// probe runs for about `budget_s` seconds (at least one full pass).
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "load/load_model.hpp"
#include "platform/cluster.hpp"
#include "swap/policy.hpp"

namespace perfbench {

/// sim::Simulator::after + run with `depth` self-rescheduling events
/// pending: ns per fired event.
[[nodiscard]] double probe_event_queue(std::size_t depth, double budget_s);

/// LoadModel::make_source -> start on a lone Host, run to `horizon_s`,
/// cycling through `models`: ns per recorded load change.
[[nodiscard]] double probe_load_source(
    const std::vector<std::shared_ptr<const simsweep::load::LoadModel>>&
        models,
    double horizon_s, double budget_s);

/// Host::mean_availability over the trailing `window_s` of a history of
/// `history_len` samples: ns per call.
[[nodiscard]] double probe_mean_availability(std::size_t history_len,
                                             double window_s,
                                             double budget_s);

/// SharedLinkNetwork::start_transfer with `concurrent` flows of `bytes`
/// kept in flight: ns per completed flow.
[[nodiscard]] double probe_link(std::size_t concurrent, double bytes,
                                const simsweep::platform::LinkSpec& link,
                                double budget_s);

/// swap::plan_swaps with `active` processes and `spares` idle hosts: ns
/// per call.
[[nodiscard]] double probe_plan_swaps(
    const simsweep::swap::PolicyParams& policy, std::size_t active,
    std::size_t spares, double state_bytes, double iter_time_s,
    const simsweep::platform::LinkSpec& link, double budget_s);

/// Replays `lines` through a fresh JournalWriter::append at `path`
/// (flushing each, as the sweep does): ns per append.
[[nodiscard]] double probe_journal_append(
    const std::vector<std::string>& lines, const std::string& path);

}  // namespace perfbench
