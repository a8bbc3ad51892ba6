#include "stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "obs/provenance.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

namespace {

/// 1-based nearest rank of `percentile` among `n` samples.
std::size_t nearest_rank(std::size_t n, double percentile) {
  const double rank = std::ceil(static_cast<double>(n) * percentile / 100.0);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

std::size_t samples_beyond(std::size_t n, double percentile) {
  if (n == 0) return 0;
  return n - nearest_rank(n, percentile);
}

double percentile(std::vector<double> values, double percentile) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), percentile) - 1];
}

TailPick tail_percentile(std::size_t n) {
  static constexpr std::array<double, 6> kLadder{99.9, 99.0, 95.0,
                                                 90.0, 75.0, 50.0};
  TailPick pick;
  pick.samples = n;
  for (const double p : kLadder) {
    const std::size_t beyond = samples_beyond(n, p);
    if (beyond >= 10) {
      pick.percentile = p;
      pick.beyond = beyond;
      return pick;
    }
  }
  return pick;
}

std::uint64_t republished_bytes(const std::vector<std::size_t>& line_bytes,
                                std::size_t first_flush_lines) {
  std::uint64_t prefix = 0;
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < line_bytes.size(); ++i) {
    prefix += line_bytes[i] + 1;
    if (i + 1 >= first_flush_lines) total += prefix;
  }
  return total;
}

double write_amplification(const std::vector<std::size_t>& line_bytes,
                           std::size_t first_flush_lines) {
  std::uint64_t final_bytes = 0;
  for (const std::size_t b : line_bytes) final_bytes += b + 1;
  if (final_bytes == 0) return 0.0;
  return static_cast<double>(republished_bytes(line_bytes, first_flush_lines)) /
         static_cast<double>(final_bytes);
}

Reconciliation reconcile(const std::vector<LayerCost>& costs,
                         double total_cell_ns) {
  Reconciliation out;
  double attributed = 0.0;
  for (const LayerCost& cost : costs) {
    const double share =
        total_cell_ns > 0.0 ? cost.count * cost.unit_ns / total_cell_ns : 0.0;
    out.shares.push_back(share);
    attributed += share;
  }
  out.unattributed = 1.0 - attributed;
  return out;
}

std::string digest(std::string_view bytes) {
  return simsweep::obs::hex64(simsweep::obs::fnv1a(bytes));
}

}  // namespace perfbench
