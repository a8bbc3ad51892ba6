// Unit tests of the benchmark's own logic: the seed -> scenario generator,
// the percentile rule, the journal and reconciliation arithmetic, span
// self time and the output comparison behind the correctness check.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "resilience/journal.hpp"
#include "scenario/scenario.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "sweep.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

TEST(Generator, SameSeedSameText) {
  for (const Workload& w : workloads())
    EXPECT_EQ(scenario_text(w.name, 7), scenario_text(w.name, 7)) << w.name;
}

TEST(Generator, SeedChangesText) {
  for (const Workload& w : workloads()) {
    EXPECT_NE(scenario_text(w.name, 7), scenario_text(w.name, 8)) << w.name;
    EXPECT_NE(scenario_text(w.name, 0), scenario_text(w.name, 1)) << w.name;
  }
}

TEST(Generator, SeedOnlyMovesTheRootSeed) {
  for (const Workload& w : workloads()) {
    auto a = simsweep::scenario::parse_scenario(scenario_text(w.name, 3), "a");
    auto b = simsweep::scenario::parse_scenario(scenario_text(w.name, 4), "b");
    EXPECT_NE(a.seed, b.seed) << w.name;
    b.seed = a.seed;
    EXPECT_EQ(a, b) << w.name;
  }
}

TEST(Generator, EveryWorkloadHasAboutAHundredCells) {
  for (const Workload& w : workloads()) {
    const auto spec =
        simsweep::scenario::parse_scenario(scenario_text(w.name, 1), w.name);
    const auto grid = simsweep::scenario::materialize(spec);
    EXPECT_GE(grid.cells.size(), 100u) << w.name;
    EXPECT_LT(grid.cells.size(), 110u) << w.name;
    // So cell_ms_p90 is the tail the percentile rule picks.
    EXPECT_EQ(tail_percentile(grid.cells.size()).percentile, 90.0) << w.name;
  }
}

TEST(Generator, UnknownWorkloadThrows) {
  EXPECT_THROW((void)scenario_text("nope", 1), std::invalid_argument);
  EXPECT_EQ(find_workload("nope"), nullptr);
}

TEST(Percentile, RulePicksHighestWithTenBeyond) {
  EXPECT_EQ(tail_percentile(100).percentile, 90.0);
  EXPECT_EQ(tail_percentile(100).beyond, 10u);
  EXPECT_EQ(tail_percentile(100).samples, 100u);
  EXPECT_EQ(tail_percentile(102).percentile, 90.0);
  EXPECT_EQ(tail_percentile(199).percentile, 90.0);
  EXPECT_EQ(tail_percentile(200).percentile, 95.0);
  EXPECT_EQ(tail_percentile(200).beyond, 10u);
  EXPECT_EQ(tail_percentile(1000).percentile, 99.0);
  EXPECT_EQ(tail_percentile(10000).percentile, 99.9);
  EXPECT_EQ(tail_percentile(40).percentile, 75.0);
  EXPECT_EQ(tail_percentile(20).percentile, 50.0);
  EXPECT_EQ(tail_percentile(19).percentile, 0.0);
  EXPECT_EQ(tail_percentile(19).beyond, 0u);
}

TEST(Percentile, NearestRankAndMedian) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_EQ(percentile(v, 90.0), 90.0);
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(samples_beyond(100, 90.0), 10u);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Journal, WriteAmplificationOnToyJournal) {
  // Records of 9, 19 and 29 bytes take 10, 20 and 30 with their newline.
  const std::vector<std::size_t> lines{9, 19, 29};
  // Header flushed alone, then one flush per record: 10 + 30 + 60.
  EXPECT_EQ(republished_bytes(lines, 1), 100u);
  EXPECT_DOUBLE_EQ(write_amplification(lines, 1), 100.0 / 60.0);
  // Header and a replayed record flushed together: 30 + 60.
  EXPECT_EQ(republished_bytes(lines, 2), 90u);
  EXPECT_DOUBLE_EQ(write_amplification({}, 1), 0.0);
}

TEST(Journal, FinalSizeMatchesTheWriter) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("perfbench-selftest-" + std::to_string(::getpid()) +
                     ".jsonl");
  const std::vector<std::string> records{R"({"kind":"h"})", R"({"a":1})",
                                         R"({"b":"xyz"})"};
  {
    simsweep::resilience::JournalWriter writer(path.string());
    writer.append(records[0], /*flush_now=*/false);
    writer.flush();
    for (std::size_t i = 1; i < records.size(); ++i) writer.append(records[i]);
  }
  std::vector<std::size_t> sizes;
  for (const auto& line : simsweep::resilience::read_journal(path.string()))
    sizes.push_back(line.raw.size());
  ASSERT_EQ(sizes.size(), records.size());
  std::uint64_t final_bytes = 0;
  for (const std::size_t s : sizes) final_bytes += s + 1;
  EXPECT_EQ(std::filesystem::file_size(path), final_bytes);
  // Lines of 13, 8 and 12 bytes: 13 + 21 + 33 republished over the
  // header flush and one flush per record.
  EXPECT_EQ(republished_bytes(sizes, 1), 13u + 21u + 33u);
  std::filesystem::remove(path);
}

TEST(Reconcile, SharesAndRemainder) {
  const Reconciliation r =
      reconcile({{"a", 10.0, 100.0}, {"b", 5.0, 200.0}}, 4000.0);
  ASSERT_EQ(r.shares.size(), 2u);
  EXPECT_DOUBLE_EQ(r.shares[0], 0.25);
  EXPECT_DOUBLE_EQ(r.shares[1], 0.25);
  EXPECT_DOUBLE_EQ(r.unattributed, 0.5);
  // Overlapping probes show as a negative remainder, not a clamp.
  EXPECT_DOUBLE_EQ(reconcile({{"a", 50.0, 100.0}}, 4000.0).unattributed,
                   -0.25);
  EXPECT_DOUBLE_EQ(reconcile({{"a", 1.0, 1.0}}, 0.0).shares[0], 0.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  SpanRecorder spans("test");
  const auto parent = spans.add("parent", 0, 0, 0.0, 10.0);
  spans.add("c1", parent, 1, 1.0, 3.0);
  spans.add("c2", parent, 2, 2.0, 5.0);   // overlaps c1
  spans.add("c3", parent, 1, 7.0, 12.0);  // runs past the parent
  spans.add("other", 0, 0, 4.0, 6.0);     // not a child
  EXPECT_DOUBLE_EQ(spans.self_s(parent), 10.0 - 4.0 - 3.0);
}

simsweep::cli::SweepResult toy_result() {
  simsweep::cli::SweepResult r;
  r.cells_total = 4;
  simsweep::core::SeriesReport report;
  report.x = {0.0, 1.0};
  report.series = {{"a", {1.0, 2.0}, {0.0, 1.0}},
                   {"b", {3.0, 4.0}, {0.0, 0.0}}};
  r.reports.push_back(report);
  return r;
}

TEST(Check, PerturbedOutputIsAFailure) {
  const auto a = toy_result();
  auto b = toy_result();
  EXPECT_EQ(mismatched_cells(a, b), 0u);
  EXPECT_EQ(digest(report_bytes(a)), digest(report_bytes(b)));
  b.reports[0].series[1].y[0] = std::nextafter(3.0, 4.0);
  EXPECT_EQ(mismatched_cells(a, b), 1u);
  EXPECT_NE(digest(report_bytes(a)), digest(report_bytes(b)));
  b.reports[0].series[0].adaptations[1] = 2.0;
  EXPECT_EQ(mismatched_cells(a, b), 2u);
  b.reports.clear();
  EXPECT_EQ(mismatched_cells(a, b), 4u);
}

TEST(Check, NanCellsCompareBitwise) {
  auto a = toy_result();
  a.reports[0].series[0].y[0] = std::numeric_limits<double>::quiet_NaN();
  auto b = a;
  EXPECT_EQ(mismatched_cells(a, b), 0u);
}

}  // namespace
}  // namespace perfbench
