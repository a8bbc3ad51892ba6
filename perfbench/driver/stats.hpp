// The benchmark's arithmetic: medians and percentiles, the journal's
// computed write amplification, and the reconciliation of per-layer costs
// against measured cell time.  Pure functions, unit-tested in
// tests/selftest.cpp.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count); 0 when empty.
[[nodiscard]] double median(std::vector<double> values);

/// Number of samples strictly beyond the nearest-rank `percentile` of `n`
/// samples: n - ceil(n * percentile / 100).
[[nodiscard]] std::size_t samples_beyond(std::size_t n, double percentile);

/// Nearest-rank percentile (0 < percentile <= 100); 0 when empty.
[[nodiscard]] double percentile(std::vector<double> values, double percentile);

/// The tail percentile a timing is reported at: the highest of
/// 99.9 / 99 / 95 / 90 / 75 / 50 that leaves at least ten samples beyond
/// it.  `percentile` is 0 when even the median leaves fewer than ten.
struct TailPick {
  double percentile = 0.0;
  std::size_t samples = 0;
  std::size_t beyond = 0;
};
[[nodiscard]] TailPick tail_percentile(std::size_t n);

/// Bytes the journal writer republishes over a sweep.  JournalWriter
/// rewrites the whole file on every flush: one flush after the first
/// `first_flush_lines` lines (header plus replayed records), then one per
/// appended line.  `line_bytes` are the record lengths without the '\n'
/// the writer adds to each.
[[nodiscard]] std::uint64_t republished_bytes(
    const std::vector<std::size_t>& line_bytes, std::size_t first_flush_lines);

/// republished_bytes / final file size; 0 for an empty journal.
[[nodiscard]] double write_amplification(
    const std::vector<std::size_t>& line_bytes, std::size_t first_flush_lines);

/// One layer's attributed cost: how often the program did its work in a
/// sweep (a count from the metrics output) times what one unit costs (a
/// probe of the layer's public function).
struct LayerCost {
  std::string layer;
  double count = 0.0;
  double unit_ns = 0.0;
};

struct Reconciliation {
  std::vector<double> shares;  ///< parallel to the input costs
  /// 1 - sum(shares).  Negative when the probes overlap or overestimate.
  double unattributed = 0.0;
};

/// Each layer's share of `total_cell_ns` (the sum of cell wall times).
[[nodiscard]] Reconciliation reconcile(const std::vector<LayerCost>& costs,
                                       double total_cell_ns);

/// Hex FNV-1a of a report's bytes: the form pinned in workloads.cpp.
[[nodiscard]] std::string digest(std::string_view bytes);

}  // namespace perfbench
