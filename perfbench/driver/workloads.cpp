#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "obs/json.hpp"

namespace perfbench {

namespace {

/// splitmix64 finaliser: spreads neighbouring benchmark seeds over the
/// scenario's root-seed space.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

void write_axis(std::ostream& os, const std::vector<double>& x) {
  os << '[';
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (i != 0) os << ", ";
    simsweep::obs::write_json_number(os, x[i]);
  }
  os << ']';
}

/// 25 ON/OFF dynamism points 0, 0.04, ..., 0.96 (fig7's axis, denser).
std::vector<double> spares_axis() {
  std::vector<double> x;
  for (int i = 0; i < 25; ++i) x.push_back(i * 4 / 100.0);
  return x;
}

/// fig10's MTBF axis, denser: 0 (faults off), then 24 geometric points
/// from 48 h down to 3 h.
std::vector<double> mtbf_axis() {
  std::vector<double> x{0.0};
  for (int i = 0; i < 24; ++i)
    x.push_back(std::round(48000.0 * std::pow(1.0 / 16.0, i / 23.0)) / 1000.0);
  return x;
}

std::string spares_dynamism(std::uint64_t root_seed) {
  std::ostringstream os;
  os << R"({"name": "spares_dynamism", "kind": "grid",)"
     << R"( "title": "perfbench spares_dynamism: fig7 platform over a dense dynamism axis",)"
     << R"( "expectation": "benchmark workload; the report is pinned by digest",)"
     << R"( "config": {"hosts": 32, "active": 4, "iterations": 60, "iter_minutes": 4.0,)"
     << R"( "state_mb": 100.0, "comm_kb": 100.0, "spares": 28, "seed": )"
     << root_seed << R"(},)"
     << R"( "trials": 4, "forbid_stalls": true, "load": {"model": "onoff"},)"
     << R"( "axis": {"label": "load_probability", "binds": "load.dynamism", "x": )";
  write_axis(os, spares_axis());
  os << R"(},)"
     << R"( "variants": [)"
     << R"({"name": "NONE", "strategy": {"kind": "none"}},)"
     << R"( {"name": "greedy", "strategy": {"kind": "swap", "policy": {"base": "greedy"}}},)"
     << R"( {"name": "safe", "strategy": {"kind": "swap", "policy": {"base": "safe"}}},)"
     << R"( {"name": "friendly", "strategy": {"kind": "swap", "policy": {"base": "friendly"}}}]})"
     << '\n';
  return os.str();
}

std::string crash_recovery(std::uint64_t root_seed) {
  std::ostringstream os;
  os << R"({"name": "crash_recovery", "kind": "grid",)"
     << R"( "title": "perfbench crash_recovery: fig10 crash sweep on abl_swap_count's 8 + 24 platform",)"
     << R"( "expectation": "benchmark workload; the report is pinned by digest",)"
     << R"( "config": {"hosts": 32, "active": 8, "iterations": 60, "iter_minutes": 2.0,)"
     << R"( "state_mb": 10.0, "comm_kb": 100.0, "spares": 24, "seed": )"
     << root_seed << R"(},)"
     << R"( "trials": 8, "load": {"model": "onoff", "dynamism": 0.2},)"
     << R"( "axis": {"label": "host_mtbf_hours", "binds": "faults.mtbf_hours", "x": )";
  write_axis(os, mtbf_axis());
  os << R"(, "on_positive_swap_fail_prob": 0.05, "on_positive_checkpoint_fail_prob": 0.05},)"
     << R"( "variants": [)"
     << R"({"name": "NONE", "strategy": {"kind": "none"}},)"
     << R"( {"name": "SWAP", "strategy": {"kind": "swap", "policy": {"base": "greedy"}}},)"
     << R"( {"name": "DLB", "strategy": {"kind": "dlb"}},)"
     << R"( {"name": "CR", "strategy": {"kind": "cr", "policy": {"base": "greedy"}}}]})"
     << '\n';
  return os.str();
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> list{
      {"spares_dynamism", false, "fd08ea3d7f873d62"},
      {"crash_recovery", true, "9fd625697f24c81a"},
  };
  return list;
}

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

std::size_t parallel_jobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::clamp<std::size_t>(hw, 1, 4);
}

std::string scenario_text(std::string_view workload, std::uint64_t seed) {
  const std::uint64_t root_seed = mix(seed) & 0x7FFFFFFFULL;
  if (workload == "spares_dynamism") return spares_dynamism(root_seed);
  if (workload == "crash_recovery") return crash_recovery(root_seed);
  throw std::invalid_argument("unknown workload '" + std::string(workload) +
                              "'");
}

}  // namespace perfbench
