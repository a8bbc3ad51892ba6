// External CPU load models.
//
// A LoadModel builds one LoadSource (load/load_source.hpp) per host; the
// host drives it.  The paper's two models are implemented (ON/OFF Markov
// sources and a degenerate hyperexponential lifetime model), plus constant
// load, trace replay and aggregation of ON/OFF sources, which the paper
// lists as future work.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "load/load_source.hpp"
#include "simcore/rng.hpp"

namespace simsweep::platform {
class Cluster;
}

namespace simsweep::load {

/// Abstract factory: builds one independent source per host, each with its
/// own derived random stream so platform size does not perturb the draws of
/// other hosts.
class LoadModel {
 public:
  virtual ~LoadModel() = default;

  [[nodiscard]] virtual std::unique_ptr<LoadSource> make_source(
      sim::Rng rng) const = 0;

  /// Canonical one-line description of the model and every parameter that
  /// shapes its load process ("onoff;p=0.3;q=0.08;..."), in round-trip
  /// number form.  Folded into the provenance config digest, so two runs
  /// whose digests match really did draw from the same load process.
  [[nodiscard]] virtual std::string describe() const = 0;

  /// Has every host of a cluster drive a fresh source of its own.
  /// `root_seed` derives one stream per host id.
  static void attach_all(const LoadModel& model, platform::Cluster& cluster,
                         std::uint64_t root_seed);
};

/// Shortest round-trip rendering of `value` for describe() strings, so
/// descriptions (and the digests built from them) distinguish any two
/// doubles that differ.
[[nodiscard]] std::string describe_number(double value);

}  // namespace simsweep::load
