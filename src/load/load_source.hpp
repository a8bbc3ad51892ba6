// Pull-style external load generator for one host.
//
// A LoadSource is a pure generator: it draws its own random numbers and
// knows when its next change falls, but it schedules nothing.  The Host it
// drives decides how changes are taken — as simulator events while
// something watches every change as it happens (a running task, a timeline,
// a trace recorder), or on demand, when an idle host's state is read.
// Either way the host sees the same changes at the same times.
//
// Tie rule: changes are taken in (time, draw order).  A source whose parts
// can change at the same instant (a composite's ON/OFF parts, a
// hyperexponential source's pending departures) numbers each pending change
// when it draws it and takes equal-time changes in that order, which is the
// order a per-change event queue would fire them in.
#pragma once

#include "simcore/sim_time.hpp"

namespace simsweep::sim {
class Simulator;
}

namespace simsweep::platform {
class Host;
}

namespace simsweep::load {

/// A host's external load: competing compute-bound processes, and whether
/// the owner lets the guest application use the machine.
struct LoadState {
  int competitors = 0;
  bool online = true;
};

/// Generates the external load of a single host, one change at a time.
class LoadSource {
 public:
  virtual ~LoadSource() = default;

  /// Draws the initial state at time `now`.  Called once, by the driving
  /// host, before next_change() or advance().
  virtual LoadState begin(sim::SimTime now) = 0;

  /// Time of the next change; sim::kTimeInfinity once the source is
  /// absorbed in its current state.
  [[nodiscard]] virtual sim::SimTime next_change() const = 0;

  /// Takes the change at next_change() and returns the state after it.  A
  /// change may leave the state as it was (a competitor that exits at once).
  virtual LoadState advance() = 0;

  /// Has `host` drive this source from now on; the caller keeps the source
  /// alive while the host is in use.  Same as host.drive(*this).
  void start(sim::Simulator& simulator, platform::Host& host);
};

}  // namespace simsweep::load
