// Unit tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/rng.hpp"
#include "simcore/sim_time.hpp"
#include "simcore/simulator.hpp"
#include "simcore/trace_recorder.hpp"

namespace sim = simsweep::sim;

TEST(EventQueue, FiresInTimeOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  (void)q.schedule(3.0, [&] { order.push_back(3); });
  (void)q.schedule(1.0, [&] { order.push_back(1); });
  (void)q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto [t, cb] = q.pop();
    cb();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  sim::EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    (void)q.schedule(5.0, [&order, i] { order.push_back(i); });
  while (!q.empty()) q.pop().second();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelPreventsFiring) {
  sim::EventQueue q;
  bool fired = false;
  sim::EventHandle h = q.schedule(1.0, [&] { fired = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelledEntriesBuriedInHeapStillDrain) {
  sim::EventQueue q;
  sim::EventHandle early = q.schedule(1.0, [] {});
  (void)q.schedule(2.0, [] {});
  early.cancel();
  EXPECT_FALSE(q.empty());
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  (void)q.pop();
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, DefaultHandleIsInert) {
  sim::EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();  // must not crash
}

TEST(EventQueue, MatchesReferenceOverRandomScheduleCancelPop) {
  // Reference: the live events keyed by (time, scheduling order).
  std::map<std::pair<double, std::uint64_t>, std::uint64_t> reference;
  struct Issued {
    sim::EventHandle handle;
    double time;
    std::uint64_t seq;
  };
  std::vector<Issued> issued;  // every handle ever issued
  sim::EventQueue q;
  sim::Rng rng(2024);
  std::uint64_t fired = 0;
  const auto pick = [&]() -> Issued& {
    return issued[static_cast<std::size_t>(rng.next_u64() % issued.size())];
  };
  const auto pop_and_check = [&] {
    ASSERT_DOUBLE_EQ(q.next_time(), reference.begin()->first.first);
    auto [t, cb] = q.pop();
    cb();
    EXPECT_EQ(t, reference.begin()->first.first);
    EXPECT_EQ(fired, reference.begin()->second);
    reference.erase(reference.begin());
  };
  for (int op = 0; op < 150000; ++op) {
    const double r = rng.uniform01();
    if (r < 0.5 || issued.empty()) {
      // 40 distinct times: most events tie with many others.
      const double t = std::floor(rng.uniform(0.0, 40.0)) * 0.5;
      const std::uint64_t seq = issued.size();
      issued.push_back(
          Issued{q.schedule(t, [&fired, seq] { fired = seq; }), t, seq});
      reference.emplace(std::make_pair(t, seq), seq);
    } else if (r < 0.7) {
      // Any handle: live, already fired, or already cancelled.
      Issued& victim = pick();
      victim.handle.cancel();
      reference.erase({victim.time, victim.seq});
    } else {
      ASSERT_EQ(q.empty(), reference.empty());
      if (!reference.empty()) pop_and_check();
    }
    const Issued& probe = pick();
    ASSERT_EQ(probe.handle.pending(),
              reference.count({probe.time, probe.seq}) == 1)
        << "op " << op << ", event " << probe.seq;
    ASSERT_GE(q.size_bound(), reference.size());
  }
  EXPECT_EQ(q.scheduled_total(), issued.size());
  while (!reference.empty()) pop_and_check();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), sim::kTimeInfinity);
}

TEST(EventQueue, StaleHandleDoesNotCancelReusedSlot) {
  sim::EventQueue q;
  int fired = 0;
  sim::EventHandle cancelled = q.schedule(1.0, [] {});
  cancelled.cancel();
  sim::EventHandle done = q.schedule(1.0, [] {});
  q.pop().second();
  // Both freed slots are reused by the next two events.
  sim::EventHandle a = q.schedule(2.0, [&] { ++fired; });
  sim::EventHandle b = q.schedule(3.0, [&] { ++fired; });
  for (sim::EventHandle* stale : {&cancelled, &done}) {
    EXPECT_FALSE(stale->pending());
    stale->cancel();
  }
  EXPECT_TRUE(a.pending());
  EXPECT_TRUE(b.pending());
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(fired, 2);
}

TEST(EventQueue, PopMovesCallbackWithoutCopying) {
  struct CountsCopies {
    int* copies;
    explicit CountsCopies(int* c) : copies(c) {}
    CountsCopies(const CountsCopies& o) : copies(o.copies) { ++*copies; }
    CountsCopies(CountsCopies&&) noexcept = default;
    void operator()() const {}
  };
  int copies = 0;
  sim::EventQueue q;
  // Enough events to grow the slab and reorder the heap several times.
  for (int i = 0; i < 64; ++i)
    (void)q.schedule(static_cast<double>(64 - i), CountsCopies(&copies));
  while (!q.empty()) q.pop().second();
  EXPECT_EQ(copies, 0);
}

TEST(Simulator, AdvancesTimeToEvent) {
  sim::Simulator s;
  double seen = -1.0;
  (void)s.after(5.0, [&] { seen = s.now(); });
  s.run();
  EXPECT_DOUBLE_EQ(seen, 5.0);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
  EXPECT_EQ(s.events_fired(), 1u);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  sim::Simulator s;
  int count = 0;
  std::function<void()> tick = [&] {
    if (++count < 5) (void)s.after(1.0, tick);
  };
  (void)s.after(1.0, tick);
  s.run();
  EXPECT_EQ(count, 5);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);
}

TEST(Simulator, RunUntilHonorsHorizon) {
  sim::Simulator s;
  int fired = 0;
  (void)s.after(1.0, [&] { ++fired; });
  (void)s.after(10.0, [&] { ++fired; });
  s.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(s.now(), 5.0);  // clock advances to the horizon
  s.run_until(20.0);
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, EventExactlyAtHorizonFires) {
  sim::Simulator s;
  bool fired = false;
  (void)s.after(5.0, [&] { fired = true; });
  s.run_until(5.0);
  EXPECT_TRUE(fired);
}

TEST(Simulator, StopEndsRun) {
  sim::Simulator s;
  int fired = 0;
  (void)s.after(1.0, [&] {
    ++fired;
    s.stop();
  });
  (void)s.after(2.0, [&] { ++fired; });
  s.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(s.stopped());
  EXPECT_FALSE(s.idle());
}

TEST(Simulator, RunOnEmptyQueueReturns) {
  sim::Simulator s;
  s.run();
  EXPECT_EQ(s.events_fired(), 0u);
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  // Only cancelled events left: the infinite horizon must not be reached.
  sim::EventHandle h = s.after(1.0, [] {});
  h.cancel();
  s.run();
  EXPECT_EQ(s.events_fired(), 0u);
  EXPECT_DOUBLE_EQ(s.now(), 0.0);
  EXPECT_TRUE(s.idle());
}

TEST(Simulator, SchedulingInThePastThrows) {
  sim::Simulator s;
  (void)s.after(2.0, [] {});
  s.run();
  EXPECT_THROW((void)s.at(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW((void)s.after(-1.0, [] {}), std::invalid_argument);
}

TEST(Rng, DeterministicForSameSeed) {
  sim::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, StreamsDiffer) {
  sim::Rng a(42, 0), b(42, 1);
  bool any_diff = false;
  for (int i = 0; i < 16; ++i) any_diff |= (a.next_u64() != b.next_u64());
  EXPECT_TRUE(any_diff);
}

TEST(Rng, DeriveSeedSpreadsStreams) {
  const std::uint64_t root = 7;
  EXPECT_NE(sim::derive_seed(root, 0), sim::derive_seed(root, 1));
  EXPECT_NE(sim::derive_seed(root, 1), sim::derive_seed(root, 2));
  EXPECT_NE(sim::derive_seed(root, 0), sim::derive_seed(root + 1, 0));
}

TEST(Rng, UniformBounds) {
  sim::Rng r(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 3.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 3.0);
  }
}

TEST(Rng, ExponentialMeanApproximatelyCorrect) {
  sim::Rng r(9);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += r.exponential_mean(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.2);
}

TEST(TraceRecorder, RecordsAndReads) {
  sim::TraceRecorder rec;
  rec.record("x", 0.0, 1.0);
  rec.record("x", 2.0, 3.0);
  rec.record("y", 1.0, -1.0);
  EXPECT_EQ(rec.series("x").size(), 2u);
  EXPECT_EQ(rec.series("y").size(), 1u);
  EXPECT_TRUE(rec.series("nope").empty());
  EXPECT_EQ(rec.names(), (std::vector<std::string>{"x", "y"}));
}

TEST(TraceRecorder, IntegratesStepSeries) {
  // value 0 until t=1, then 2 until t=3, then 1.
  std::vector<sim::Sample> s{{1.0, 2.0}, {3.0, 1.0}};
  // over [0,4]: 0*1 + 2*2 + 1*1 = 5
  EXPECT_DOUBLE_EQ(sim::integrate_step_series(s, 0.0, 4.0, 0.0), 5.0);
  // window entirely before first sample
  EXPECT_DOUBLE_EQ(sim::integrate_step_series(s, 0.0, 1.0, 0.0), 0.0);
  // window after all samples
  EXPECT_DOUBLE_EQ(sim::integrate_step_series(s, 3.0, 5.0, 0.0), 2.0);
  // mean over [1,3] is 2
  EXPECT_DOUBLE_EQ(sim::mean_step_series(s, 1.0, 3.0, 0.0), 2.0);
}

TEST(TraceRecorder, PointQueryReturnsValueInEffect) {
  std::vector<sim::Sample> s{{1.0, 2.0}, {3.0, 1.0}};
  EXPECT_DOUBLE_EQ(sim::mean_step_series(s, 0.5, 0.5, 7.0), 7.0);
  EXPECT_DOUBLE_EQ(sim::mean_step_series(s, 2.0, 2.0, 7.0), 2.0);
  EXPECT_DOUBLE_EQ(sim::mean_step_series(s, 3.5, 3.5, 7.0), 1.0);
}

TEST(TraceRecorder, IntegrateRejectsReversedWindow) {
  std::vector<sim::Sample> s;
  EXPECT_THROW((void)sim::integrate_step_series(s, 2.0, 1.0, 0.0),
               std::invalid_argument);
}

TEST(TraceRecorder, CsvEscapePassesPlainFieldsThrough) {
  EXPECT_EQ(sim::csv_escape("host0.load"), "host0.load");
  EXPECT_EQ(sim::csv_escape(""), "");
}

TEST(TraceRecorder, CsvEscapeQuotesMetacharacters) {
  // RFC 4180: fields with commas, quotes or newlines are quoted, and inner
  // quotes double.
  EXPECT_EQ(sim::csv_escape("load{host=0}, raw"), "\"load{host=0}, raw\"");
  EXPECT_EQ(sim::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(sim::csv_escape("a\nb"), "\"a\nb\"");
  EXPECT_EQ(sim::csv_escape("a\rb"), "\"a\rb\"");
}

TEST(TraceRecorder, WriteCsvEscapesSeriesName) {
  sim::TraceRecorder rec;
  rec.record("speed, effective", 0.0, 1.0);
  std::ostringstream out;
  rec.write_csv(out, "speed, effective");
  // Header must stay two columns: the comma in the name is quoted away.
  EXPECT_EQ(out.str(), "time,\"speed, effective\"\n0,1\n");
}

TEST(TraceRecorder, WriteJsonDumpsAllSeriesSorted) {
  sim::TraceRecorder rec;
  rec.record("b", 1.0, 2.0);
  rec.record("a", 0.0, -1.5);
  rec.record("a", 3.0, 4.0);
  std::ostringstream out;
  rec.write_json(out);
  EXPECT_EQ(out.str(),
            "{\"series\":{\"a\":[[0,-1.5],[3,4]],\"b\":[[1,2]]}}");
}
