// The benchmark's workloads: a name, how its sweep runs, and the scenario
// JSON text generated from a seed.
//
// The program under test only ever sees the generated text: it goes through
// scenario::parse_scenario into cli::run_sweep exactly as a scenario file
// does under `simsweep bench`.  README.md beside this directory explains
// why each workload exists.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Seed whose report digests are pinned (Workload::pinned_digest).  Every
/// run also sweeps this seed once, untimed, to check the pinned bytes.
inline constexpr std::uint64_t kDefaultSeed = 1;

struct Workload {
  std::string name;
  /// Worker threads for the timed sweeps: 1, or min(4, nproc).
  bool parallel = false;
  /// obs::hex64(obs::fnv1a(report bytes)) at kDefaultSeed.
  std::string pinned_digest;
};

[[nodiscard]] const std::vector<Workload>& workloads();

/// nullptr when `name` is not a workload.
[[nodiscard]] const Workload* find_workload(std::string_view name);

/// min(4, hardware threads), at least 1.
[[nodiscard]] std::size_t parallel_jobs();

/// Scenario JSON for `workload` at `seed`.  Deterministic; the seed only
/// picks the scenario's root seed, so every seed sweeps the same grid.
/// Throws std::invalid_argument for an unknown workload.
[[nodiscard]] std::string scenario_text(std::string_view workload,
                                        std::uint64_t seed);

}  // namespace perfbench
