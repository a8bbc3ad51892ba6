// Unit tests for the discrete-event simulation core.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "simcore/event_queue.hpp"
#include "simcore/fair_share.hpp"
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

namespace {

/// A bare FairShare entry: the host and link adapters add nothing the
/// share's scheduling depends on.
class Job : public sim::FairShare::Entry {
 public:
  Job(double amount, Completion done) : Entry(amount, std::move(done)) {}
  using Entry::abandon;
};

std::string hex(double t) {
  std::ostringstream os;
  os << std::hexfloat << t;
  return os.str();
}

/// One FairShare of capacity 1 and a log of "<time hexfloat> <name>" lines:
/// a completion logs its entry id, an outside event its own name.
struct ShareScript {
  sim::Simulator sim;
  sim::FairShare share{sim, 1.0, "test", "share"};
  std::vector<std::shared_ptr<Job>> jobs;
  std::vector<std::string> log;

  void note(const std::string& name) {
    log.push_back(hex(sim.now()) + " " + name);
  }
  Job& add(double amount) {
    const std::string id = std::to_string(jobs.size());
    jobs.push_back(std::make_shared<Job>(amount, [this, id] { note(id); }));
    share.add(jobs.back());
    return *jobs.back();
  }
  void outside(sim::SimTime at, const std::string& name) {
    (void)sim.at(at, [this, name] { note(name); });
  }
};

/// A seeded mix of adds (sizes chosen to tie, exactly and by rounding),
/// abandons, capacity changes including zero-capacity stalls, and outside
/// events, each op scheduling the next one.  Returns the log.
std::vector<std::string> run_share_script(std::uint64_t seed,
                                          std::uint64_t* events_fired) {
  ShareScript s;
  sim::Rng rng(seed);
  constexpr double kSizes[] = {0.5, 1.0, 1.0, 2.0, 0.1 + 0.2, 0.3};
  constexpr double kCapacities[] = {0.0, 1.0, 2.0, 0.5};
  constexpr double kPhantoms[] = {0.0, 1.0, 2.5};
  constexpr double kDelays[] = {0.0, 0.25, 0.5, 1.0};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_u64() % n);
  };
  int ops_left = 200;
  std::function<void()> op = [&] {
    const std::size_t kind = pick(20);
    if (kind < 8) {
      s.add(kSizes[pick(std::size(kSizes))]);
    } else if (kind < 12) {
      if (!s.jobs.empty()) s.jobs[pick(s.jobs.size())]->abandon();
    } else if (kind < 15) {
      s.share.set_load(kCapacities[pick(std::size(kCapacities))],
                       kPhantoms[pick(std::size(kPhantoms))]);
    } else {
      s.outside(s.sim.now() + kDelays[pick(std::size(kDelays))],
                "x" + std::to_string(ops_left));
    }
    if (--ops_left > 0)
      (void)s.sim.after(kDelays[pick(std::size(kDelays))], op);
    else
      s.share.set_load(1.0, 0.0);  // no entry stays stalled
  };
  (void)s.sim.after(0.0, op);
  s.sim.run();
  *events_fired = s.sim.events_fired();
  return s.log;
}

std::uint64_t fnv1a(const std::vector<std::string>& lines) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::string& line : lines)
    for (const char c : line + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  return h;
}

}  // namespace

// Entries that finish at the same instant finish in arrival order, and an
// outside event at that instant fires before them when it was scheduled
// before the pass, and after the first of them when scheduled after it.
TEST(FairShare, TiesFinishInArrivalOrderAroundOutsideEvents) {
  ShareScript s;
  s.outside(4.0, "before");
  s.add(2.0);
  s.add(2.0);
  s.outside(4.0, "after");
  s.sim.run();
  EXPECT_EQ(s.log, (std::vector<std::string>{"0x1p+2 before", "0x1p+2 0",
                                             "0x1p+2 after", "0x1p+2 1"}));
}

// 0.1 + 0.2 > 0.3, but at t = 1024 both finish times round to the same
// double: the first arrival finishes first, not the smaller remainder.
TEST(FairShare, RoundingTiesFinishInArrivalOrder) {
  ShareScript s;
  (void)s.sim.at(1024.0, [&s] {
    s.add(0.1 + 0.2);
    s.add(0.3);
  });
  s.sim.run();
  ASSERT_EQ(s.log.size(), 2u);
  EXPECT_EQ(s.log[0], "0x1.0026666666666p+10 0");
  EXPECT_EQ(s.log[1], "0x1.0026666666666p+10 1");
}

// Completion sequences and event counts pinned from the per-entry-event
// implementation: one event per resource must reproduce them bit for bit.
TEST(FairShare, SeededScriptMatchesPinnedCompletions) {
  struct Pinned {
    std::uint64_t seed;
    std::size_t lines;
    std::uint64_t events_fired;
    std::uint64_t digest;
  };
  const Pinned pinned[] = {
      {1, 120, 320, 0x97203d7623bc8f86ULL},
      {2, 126, 326, 0xeadc97afa35d89d3ULL},
      {3, 131, 331, 0xd9a4aa228153d110ULL},
  };
  for (const Pinned& p : pinned) {
    std::uint64_t fired = 0;
    const std::vector<std::string> log = run_share_script(p.seed, &fired);
    std::ostringstream dump;
    for (const std::string& line : log) dump << line << "\n";
    SCOPED_TRACE("seed " + std::to_string(p.seed) + "\n" + dump.str());
    EXPECT_EQ(log.size(), p.lines);
    EXPECT_EQ(fired, p.events_fired);
    EXPECT_EQ(fnv1a(log), p.digest) << std::hex << fnv1a(log);
  }
}

// The work counter behind the saving: a re-plan over n entries schedules
// one completion event, not n.
TEST(FairShare, PassSchedulesOneEventPerResource) {
  ShareScript s;
  for (int i = 0; i < 16; ++i) {
    const std::uint64_t before = s.sim.scheduled_total();
    s.add(1.0 + i);
    EXPECT_EQ(s.sim.scheduled_total(), before + 1) << "entries " << i + 1;
  }
  const std::uint64_t before = s.sim.scheduled_total();
  s.share.set_load(2.0, 3.0);
  EXPECT_EQ(s.sim.scheduled_total(), before + 1);
}

// The last entry leaving, by abandon or by finishing, leaves no stale
// completion behind.
TEST(FairShare, NoEventOutlivesTheLastEntry) {
  ShareScript abandoned;
  abandoned.add(1.0);
  abandoned.add(2.0);
  abandoned.jobs[0]->abandon();
  abandoned.jobs[1]->abandon();
  EXPECT_TRUE(abandoned.sim.idle());
  abandoned.sim.run();
  EXPECT_EQ(abandoned.sim.events_fired(), 0u);
  EXPECT_TRUE(abandoned.log.empty());

  ShareScript finished;
  finished.add(1.0);
  Job& late = finished.add(4.0);
  // Once entry 0 has finished, abandoning entry 1 empties the share.
  finished.outside(3.0, "abandon");
  (void)finished.sim.at(3.0, [&late] { late.abandon(); });
  finished.sim.run();
  EXPECT_TRUE(finished.sim.idle());
  EXPECT_EQ(finished.log,
            (std::vector<std::string>{"0x1p+1 0", "0x1.8p+1 abandon"}));
  EXPECT_EQ(finished.sim.events_fired(), 3u);

  ShareScript drained;
  drained.add(1.0);
  drained.sim.run();
  EXPECT_EQ(drained.sim.events_fired(), 1u);
  EXPECT_TRUE(drained.sim.idle());
}

// Capacity 0 stalls every entry without scheduling anything; the next
// set_load resumes them from where they stood.
TEST(FairShare, ZeroCapacityStallsUntilTheNextSetLoad) {
  ShareScript s;
  s.add(2.0);
  s.add(4.0);
  (void)s.sim.at(1.0, [&s] {
    const std::uint64_t before = s.sim.scheduled_total();
    s.share.set_load(0.0, 0.0);
    EXPECT_EQ(s.sim.scheduled_total(), before);
  });
  s.sim.run();
  EXPECT_TRUE(s.log.empty());
  EXPECT_EQ(s.sim.events_fired(), 1u);
  EXPECT_TRUE(s.sim.idle());
  // Stalled at t = 1 with 1.5 and 3.5 left; resumed at t = 10, entry 0
  // finishes at 13 and entry 1, alone from then on, at 15.
  (void)s.sim.at(10.0, [&s] { s.share.set_load(1.0, 0.0); });
  s.sim.run();
  EXPECT_EQ(s.log, (std::vector<std::string>{"0x1.ap+3 0", "0x1.ep+3 1"}));
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
