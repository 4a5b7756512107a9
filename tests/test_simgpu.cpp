#include <gtest/gtest.h>

#include <array>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "simgpu/channel.hpp"
#include "simgpu/checker.hpp"
#include "simgpu/cost_model.hpp"
#include "simgpu/device_props.hpp"
#include "simgpu/shared_memory.hpp"
#include "simgpu/sim_group.hpp"
#include "simgpu/simulation.hpp"
#include "simgpu/wave_schedule.hpp"

namespace algas::sim {
namespace {

// ---------------- simulation.hpp ----------------

/// Records the times at which it stepped; reschedules `repeats` times.
class ProbeActor : public Actor {
 public:
  explicit ProbeActor(double interval = 0.0, int repeats = 0)
      : interval_(interval), repeats_(repeats) {}
  void step(Simulation& sim) override {
    times.push_back(sim.now());
    if (repeats_-- > 0) sim.schedule(this, sim.now() + interval_);
  }
  std::vector<double> times;

 private:
  double interval_;
  int repeats_;
};

TEST(Simulation, RunsEventsInTimeOrder) {
  Simulation sim;
  ProbeActor a, b, c;
  sim.schedule(&a, 30.0);
  sim.schedule(&b, 10.0);
  sim.schedule(&c, 20.0);
  sim.run();
  ASSERT_EQ(b.times.size(), 1u);
  EXPECT_DOUBLE_EQ(b.times[0], 10.0);
  EXPECT_DOUBLE_EQ(c.times[0], 20.0);
  EXPECT_DOUBLE_EQ(a.times[0], 30.0);
  EXPECT_EQ(sim.events_processed(), 3u);
}

TEST(Simulation, TiesBreakByInsertionOrder) {
  Simulation sim;
  std::vector<int> order;
  class Tagger : public Actor {
   public:
    Tagger(std::vector<int>& o, int id) : order_(o), id_(id) {}
    void step(Simulation&) override { order_.push_back(id_); }

   private:
    std::vector<int>& order_;
    int id_;
  };
  Tagger t1(order, 1), t2(order, 2), t3(order, 3);
  sim.schedule(&t1, 5.0);
  sim.schedule(&t2, 5.0);
  sim.schedule(&t3, 5.0);
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulation, ScheduleCoalescesKeepingEarliest) {
  Simulation sim;
  ProbeActor a;
  sim.schedule(&a, 50.0);
  sim.schedule(&a, 10.0);  // supersedes the later event
  sim.schedule(&a, 30.0);  // ignored: earlier pending exists
  sim.run();
  ASSERT_EQ(a.times.size(), 1u);
  EXPECT_DOUBLE_EQ(a.times[0], 10.0);
}

TEST(Simulation, SelfReschedulingActor) {
  Simulation sim;
  ProbeActor a(/*interval=*/5.0, /*repeats=*/3);
  sim.schedule(&a, 0.0);
  sim.run();
  EXPECT_EQ(a.times, (std::vector<double>{0.0, 5.0, 10.0, 15.0}));
}

TEST(Simulation, CancelPreventsStep) {
  Simulation sim;
  ProbeActor a;
  sim.schedule(&a, 10.0);
  sim.cancel(&a);
  sim.run();
  EXPECT_TRUE(a.times.empty());
}

TEST(Simulation, CountsStaleEventsFromSupersededEntries) {
  Simulation sim;
  ProbeActor a, b;
  sim.schedule(&a, 50.0);
  sim.schedule(&a, 10.0);  // supersedes: the 50.0 entry goes stale
  sim.schedule(&b, 20.0);
  sim.cancel(&b);          // the 20.0 entry goes stale
  EXPECT_EQ(sim.stale_events(), 0u);  // counted on pop, not on push
  sim.run();
  EXPECT_EQ(sim.events_processed(), 1u);
  EXPECT_EQ(sim.stale_events(), 2u);
}

TEST(Simulation, PastSchedulingClampsToNow) {
  class Rescheduler : public Actor {
   public:
    explicit Rescheduler(ProbeActor* victim) : victim_(victim) {}
    void step(Simulation& sim) override {
      sim.schedule(victim_, sim.now() - 100.0);  // the past is clamped
    }

   private:
    ProbeActor* victim_;
  };
  Simulation sim;
  ProbeActor victim;
  Rescheduler r(&victim);
  sim.schedule(&r, 50.0);
  sim.run();
  ASSERT_EQ(victim.times.size(), 1u);
  EXPECT_DOUBLE_EQ(victim.times[0], 50.0);
}

TEST(Simulation, RunUntilStopsAtBoundary) {
  Simulation sim;
  ProbeActor a(10.0, 10);
  sim.schedule(&a, 0.0);
  sim.run_until(25.0);
  EXPECT_EQ(a.times.size(), 3u);  // steps at 0, 10, 20
  sim.run();                      // drain the rest
  EXPECT_EQ(a.times.size(), 11u);
}

// ---------------- simulation.hpp: parked pollers ----------------

/// Waits for its flag by polling on `grid`: stepping every poll (the
/// reference) or parking between them. Appends its id to `seen` when it
/// sees the flag.
class FlagPoller : public Actor {
 public:
  FlagPoller(const bool& flag, PollGrid grid, bool park,
             std::vector<int>& seen, int id)
      : flag_(flag), grid_(grid), park_(park), seen_(seen), id_(id) {}
  void step(Simulation& sim) override {
    ++polls;
    if (flag_) {
      seen_at = sim.now();
      seen_.push_back(id_);
    } else if (park_) {
      sim.park(this, grid_);
    } else {
      sim.schedule(this, grid_.next(sim.now()));
    }
  }
  std::uint64_t polls = 0;  ///< stepped polls plus skipped ones credited
  SimTime seen_at = -1.0;

 private:
  const bool& flag_;
  PollGrid grid_;
  bool park_;
  std::vector<int>& seen_;
  int id_;
};

/// Raises a flag and wakes its pollers (a no-op for polling ones),
/// crediting each the polls its park skipped. Logs `id` to `log`, if set,
/// so its order among equal-time polls is observable.
class FlagRaiser : public Actor {
 public:
  FlagRaiser(bool& flag, std::vector<FlagPoller*> pollers,
             std::vector<int>* log = nullptr, int id = 0)
      : flag_(flag), pollers_(std::move(pollers)), log_(log), id_(id) {}
  void step(Simulation& sim) override {
    if (log_) log_->push_back(id_);
    flag_ = true;
    for (FlagPoller* p : pollers_) p->polls += sim.wake(p);
  }

 private:
  bool& flag_;
  std::vector<FlagPoller*> pollers_;
  std::vector<int>* log_;
  int id_;
};

/// Schedules `target` at `when` from its own step, so the target's event
/// counts as pushed from the relay's instant.
class Relay : public Actor {
 public:
  Relay(Actor* target, SimTime when) : target_(target), when_(when) {}
  void step(Simulation& sim) override { sim.schedule(target_, when_); }

 private:
  Actor* target_;
  SimTime when_;
};

struct FlagRun {
  /// Poller ids in the order they saw their flag, and -1 - f when flag f
  /// was raised.
  std::vector<int> seen;
  std::vector<SimTime> seen_at;
  std::vector<std::uint64_t> polls;
  std::uint64_t events = 0;
};

/// Twelve pollers on one grid of step 3 (integer instants, so many polls
/// tie) wait on three flags raised at seeded instants, each raise pushed
/// from 0 or from a half-integer relay instant (never a grid instant, so
/// every tie is one the ordering rule decides).
FlagRun run_flags(std::uint64_t seed, bool park) {
  constexpr int kFlags = 3;
  constexpr int kPollers = 12;
  const PollGrid grid{1.0, 2.0};
  Rng rng(seed);
  std::array<bool, kFlags> flags{};
  FlagRun out;
  std::vector<std::unique_ptr<FlagPoller>> pollers;
  for (int i = 0; i < kPollers; ++i) {
    pollers.push_back(std::make_unique<FlagPoller>(flags[i % kFlags], grid,
                                                   park, out.seen, i));
  }
  std::vector<std::unique_ptr<FlagRaiser>> raisers;
  std::vector<std::unique_ptr<Relay>> relays;
  Simulation sim;
  for (auto& p : pollers) {
    sim.schedule(p.get(), 4.0 + static_cast<double>(rng.next_below(30)));
  }
  for (int f = 0; f < kFlags; ++f) {
    std::vector<FlagPoller*> mine;
    for (int i = f; i < kPollers; i += kFlags) mine.push_back(pollers[i].get());
    raisers.push_back(
        std::make_unique<FlagRaiser>(flags[f], mine, &out.seen, -1 - f));
    const SimTime at = 40.0 + static_cast<double>(rng.next_below(200));
    if (rng.next_below(2) == 0) {
      sim.schedule(raisers.back().get(), at);
    } else {
      relays.push_back(std::make_unique<Relay>(raisers.back().get(), at));
      sim.schedule(relays.back().get(),
                   at - 0.5 - static_cast<double>(rng.next_below(6)));
    }
  }
  sim.run();
  for (const auto& p : pollers) {
    out.seen_at.push_back(p->seen_at);
    out.polls.push_back(p->polls);
  }
  out.events = sim.events_processed();
  return out;
}

TEST(Simulation, ParkedPollersWakeExactlyAsPollingSawTheirFlags) {
  // Every poller sees its flag at the instant polling saw it, in the same
  // order on equal instants, with the skipped polls credited — while the
  // simulation steps a fraction of the events.
  for (std::uint64_t seed = 1; seed <= 40; ++seed) {
    const FlagRun polled = run_flags(seed, /*park=*/false);
    const FlagRun parked = run_flags(seed, /*park=*/true);
    ASSERT_EQ(polled.seen.size(), 15u) << "seed " << seed;
    EXPECT_EQ(parked.seen, polled.seen) << "seed " << seed;
    EXPECT_EQ(parked.seen_at, polled.seen_at) << "seed " << seed;
    EXPECT_EQ(parked.polls, polled.polls) << "seed " << seed;
    EXPECT_LT(parked.events, polled.events / 4) << "seed " << seed;
  }
}

TEST(Simulation, WakeOrdersAWokenPollAfterTheWriterOnlyIfPushedLater) {
  // The poller parks at 0 on a grid of step 10. A raise at t=20 pushed from
  // 5 precedes the grid poll at 20 (pushed from 10), which sees it; pushed
  // from 15 it runs after that poll, and the poller sees the flag at 30.
  for (const SimTime pushed_from : {5.0, 15.0}) {
    bool flag = false;
    std::vector<int> seen;
    FlagPoller p(flag, {0.0, 10.0}, /*park=*/true, seen, 0);
    FlagRaiser raiser(flag, {&p});
    Relay relay(&raiser, 20.0);
    Simulation sim;
    sim.schedule(&p, 0.0);
    sim.schedule(&relay, pushed_from);
    sim.run();
    EXPECT_DOUBLE_EQ(p.seen_at, pushed_from < 10.0 ? 20.0 : 30.0);
    EXPECT_EQ(p.polls, pushed_from < 10.0 ? 3u : 4u);
  }
}

TEST(Simulation, WakeThrowsOnATieItCannotOrder) {
  // The grid poll at 20 and the raise at 20 were both pushed from t=10;
  // which push came first depends on the order of the events at 10, one of
  // which was never stepped. The wake refuses to guess.
  bool flag = false;
  std::vector<int> seen;
  FlagPoller p(flag, {0.0, 10.0}, /*park=*/true, seen, 0);
  FlagRaiser raiser(flag, {&p});
  Relay relay(&raiser, 20.0);
  Simulation sim;
  sim.schedule(&p, 0.0);
  sim.schedule(&relay, 10.0);
  EXPECT_THROW(sim.run(), std::logic_error);
}

TEST(Simulation, ParkIsOnlyForTheSteppingActorsPushedEvent) {
  Simulation sim;
  ProbeActor idle;
  EXPECT_THROW(sim.park(&idle, {1.0, 2.0}), std::logic_error);
  EXPECT_EQ(sim.wake(&idle), 0u);  // not parked: nothing to wake

  // A woken poll has found what it waited for; parking again is a bug.
  class AlwaysParks : public Actor {
   public:
    void step(Simulation& sim) override { sim.park(this, {0.0, 10.0}); }
  };
  AlwaysParks parker;
  class Waker : public Actor {
   public:
    explicit Waker(Actor* target) : target_(target) {}
    void step(Simulation& sim) override { sim.wake(target_); }

   private:
    Actor* target_;
  };
  Waker w(&parker);
  sim.schedule(&parker, 0.0);
  sim.schedule(&w, 5.0);
  EXPECT_THROW(sim.run(), std::logic_error);
}

// ---------------- sim_group.hpp ----------------

TEST(SimulationGroup, InterleavesMembersInGlobalTimeOrder) {
  Simulation s1, s2;
  std::vector<int> order;
  class Tagger : public Actor {
   public:
    Tagger(std::vector<int>& o, int id) : order_(o), id_(id) {}
    void step(Simulation&) override { order_.push_back(id_); }

   private:
    std::vector<int>& order_;
    int id_;
  };
  Tagger a(order, 1), b(order, 2), c(order, 3), d(order, 4);
  SimulationGroup group;
  group.add(&s1);
  group.add(&s2);
  s1.schedule(&a, 10.0);
  s1.schedule(&c, 30.0);
  s2.schedule(&b, 20.0);
  s2.schedule(&d, 25.0);
  group.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 3}));
  EXPECT_DOUBLE_EQ(s1.now(), 30.0);
  EXPECT_DOUBLE_EQ(s2.now(), 25.0);
}

TEST(SimulationGroup, TiesBreakByMemberInsertionOrder) {
  Simulation s1, s2;
  std::vector<int> order;
  class Tagger : public Actor {
   public:
    Tagger(std::vector<int>& o, int id) : order_(o), id_(id) {}
    void step(Simulation&) override { order_.push_back(id_); }

   private:
    std::vector<int>& order_;
    int id_;
  };
  Tagger a(order, 1), b(order, 2);
  SimulationGroup group;
  group.add(&s1);
  group.add(&s2);
  s2.schedule(&b, 5.0);  // scheduled first, but s1 was added first
  s1.schedule(&a, 5.0);
  group.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(SimulationGroup, GroupOfOneMatchesPlainRun) {
  // Same workload through run() and through a singleton group: identical
  // step times and event counts.
  ProbeActor solo(5.0, 3), grouped(5.0, 3);
  Simulation plain;
  plain.schedule(&solo, 0.0);
  plain.run();
  Simulation member;
  member.schedule(&grouped, 0.0);
  SimulationGroup group;
  group.add(&member);
  group.run();
  EXPECT_EQ(grouped.times, solo.times);
  EXPECT_EQ(member.events_processed(), plain.events_processed());
  EXPECT_DOUBLE_EQ(member.now(), plain.now());
}

TEST(SimulationGroup, CrossMemberSchedulingWakesTarget) {
  // An actor stepped in member A schedules an actor living in member B at
  // a future time; the group routes back to B when that time comes.
  Simulation a_sim, b_sim;
  ProbeActor target;
  class Waker : public Actor {
   public:
    Waker(Simulation& peer, Actor* target) : peer_(peer), target_(target) {}
    void step(Simulation& sim) override {
      peer_.schedule(target_, sim.now() + 7.0);
    }

   private:
    Simulation& peer_;
    Actor* target_;
  };
  Waker waker(b_sim, &target);
  a_sim.schedule(&waker, 3.0);
  SimulationGroup group;
  group.add(&a_sim);
  group.add(&b_sim);
  group.run();
  ASSERT_EQ(target.times.size(), 1u);
  EXPECT_DOUBLE_EQ(target.times[0], 10.0);
  EXPECT_DOUBLE_EQ(b_sim.now(), 10.0);
}

TEST(SimulationGroup, DrainHooksFireOncePerMemberAfterFullDrain) {
  Simulation s1, s2;
  SimCheck c1, c2;
  s1.set_checker(&c1);
  s2.set_checker(&c2);
  ProbeActor a(1.0, 2), b(1.0, 2);
  s1.schedule(&a, 0.0);
  s2.schedule(&b, 0.5);
  SimulationGroup group;
  group.add(&s1);
  group.add(&s2);
  group.run();
  // Both members drained and both checkers observed traffic.
  EXPECT_GT(c1.checks_performed(), 0u);
  EXPECT_GT(c2.checks_performed(), 0u);
  EXPECT_TRUE(s1.idle());
  EXPECT_TRUE(s2.idle());
}

TEST(SimulationGroup, NextEventTimePeeksAcrossMembers) {
  Simulation s1, s2;
  ProbeActor a, b;
  s1.schedule(&a, 40.0);
  s2.schedule(&b, 15.0);
  SimulationGroup group;
  group.add(&s1);
  group.add(&s2);
  EXPECT_DOUBLE_EQ(group.next_event_time(), 15.0);
  group.run();
  EXPECT_EQ(group.next_event_time(),
            std::numeric_limits<SimTime>::infinity());
}

// ---------------- checker.hpp: event-queue hygiene ----------------

TEST(SimCheck, ScheduleFarInPastIsViolation) {
  Simulation sim;
  SimCheck check;
  sim.set_checker(&check);
  ProbeActor a;
  sim.schedule(&a, 10.0);
  sim.run();
  // now() is 10; a wake-up requested 6ns earlier is a cost-accounting bug,
  // not the documented clamp.
  try {
    sim.schedule(&a, 4.0);
    FAIL() << "expected a schedule-in-past violation";
  } catch (const SimCheckError& e) {
    EXPECT_EQ(e.kind(), "schedule-in-past");
    EXPECT_NE(std::string(e.what()).find("in the past"), std::string::npos);
  }
  EXPECT_EQ(check.violations(), 1u);
}

TEST(SimCheck, ClampWithinToleranceIsAllowed) {
  Simulation sim;
  SimCheck check;
  sim.set_checker(&check);
  ProbeActor a;
  sim.schedule(&a, 10.0);
  sim.run();
  // Within the documented clamp tolerance: allowed, runs at now().
  EXPECT_NO_THROW(sim.schedule(&a, 10.0 - 1e-9));
  sim.run();
  ASSERT_EQ(a.times.size(), 2u);
  EXPECT_DOUBLE_EQ(a.times[1], 10.0);
  EXPECT_EQ(check.violations(), 0u);
}

TEST(SimCheck, StepsAreTracedPerActor) {
  Simulation sim;
  SimCheck check;
  sim.set_checker(&check);
  ProbeActor a(5.0, 3), b(7.0, 2);
  sim.schedule(&a, 0.0);
  sim.schedule(&b, 1.0);
  sim.run();
  EXPECT_GT(check.checks_performed(), 0u);
  EXPECT_EQ(check.events_traced(), sim.events_processed());
  // Deterministic actor keys: first-touch ordinals per name.
  EXPECT_NE(check.trace_dump("actor#0").find("step"), std::string::npos);
  EXPECT_NE(check.trace_dump("actor#1").find("step"), std::string::npos);
  EXPECT_NE(check.trace_dump("ghost").find("no recorded events"),
            std::string::npos);
}

TEST(SimCheck, TraceRingKeepsMostRecent) {
  TraceRing ring(3);
  for (int i = 0; i < 5; ++i) {
    // Appended: gcc 12 at -O3 flags "e" + std::to_string(i) -Wrestrict.
    std::string what = "e";
    what += std::to_string(i);
    ring.push(i, std::move(what));
  }
  EXPECT_EQ(ring.total_recorded(), 5u);
  ASSERT_EQ(ring.events().size(), 3u);
  EXPECT_EQ(ring.events().front().what, "e2");
  EXPECT_EQ(ring.events().back().what, "e4");
}

TEST(SimCheck, BeginRunResetsTraces) {
  SimCheck check;
  check.record("w", 1.0, "old");
  check.begin_run("second");
  EXPECT_EQ(check.run_label(), "second");
  EXPECT_NE(check.trace_dump("w").find("no recorded events"),
            std::string::npos);
}

// ---------------- checker.hpp: shared-memory budget ----------------

TEST(SimCheck, OverBudgetBlockLaunchReports) {
  SimCheck check;
  SharedMemoryLayout layout;
  layout.candidate_entries = 128;
  layout.expand_entries = 64;
  layout.dim = 128;
  const auto dev = DeviceProps::rtx_a6000();
  // Fits the device, but exceeds the tuner's per-block budget by one byte.
  try {
    check.check_block_launch("cta s0 c0", 0.0, dev, layout, 1, 0,
                             layout.total_bytes() - 1);
    FAIL() << "expected a shared-memory-budget violation";
  } catch (const SimCheckError& e) {
    EXPECT_EQ(e.kind(), "shared-memory-budget");
    const std::string what = e.what();
    EXPECT_NE(what.find("budgeted only"), std::string::npos) << what;
    EXPECT_NE(what.find("launch"), std::string::npos)
        << "report must include the launch trace:\n" << what;
  }
}

TEST(SimCheck, OccupancyViolatingLaunchReports) {
  SimCheck check;
  SharedMemoryLayout layout;
  layout.candidate_entries = 4096;
  layout.expand_entries = 4096;
  layout.dim = 960;
  const auto dev = DeviceProps::rtx_a6000();
  try {
    check.check_block_launch("cta s0 c0", 0.0, dev, layout, 16, 1024, 0);
    FAIL() << "expected an occupancy violation";
  } catch (const SimCheckError& e) {
    EXPECT_EQ(e.kind(), "shared-memory-budget");
    EXPECT_NE(std::string(e.what()).find("occupancy constraint"),
              std::string::npos);
  }
}

TEST(SimCheck, FittingLaunchPasses) {
  SimCheck check;
  SharedMemoryLayout layout;
  layout.candidate_entries = 128;
  layout.expand_entries = 64;
  layout.dim = 128;
  const auto dev = DeviceProps::rtx_a6000();
  EXPECT_NO_THROW(check.check_block_launch("cta s0 c0", 0.0, dev, layout, 8,
                                           1024, layout.total_bytes()));
  EXPECT_EQ(check.violations(), 0u);
  EXPECT_GT(check.checks_performed(), 0u);
}

// ---------------- channel.hpp ----------------

TEST(Channel, ChargesLatencyPlusOccupancy) {
  CostModel cm;
  Channel ch(cm);
  const double d = ch.transfer(0.0, 2200, Xfer::kQuery);
  EXPECT_NEAR(d,
              cm.pcie_latency_ns + cm.pcie_txn_overhead_ns +
                  2200.0 / cm.pcie_bytes_per_ns,
              1e-9);
}

TEST(Channel, DataTransfersSerializeOnOccupancy) {
  CostModel cm;
  Channel ch(cm);
  const std::size_t big = 4096;  // above the control-plane threshold
  const double occ = cm.transfer_occupancy_ns(big);
  const double d1 = ch.transfer(0.0, big, Xfer::kBulk);
  // Issued at the same instant: waits one payload slot, NOT a full latency
  // (the link pipelines).
  const double d2 = ch.transfer(0.0, big, Xfer::kBulk);
  EXPECT_NEAR(d1, cm.pcie_latency_ns + occ, 1e-9);
  EXPECT_NEAR(d2, cm.pcie_latency_ns + 2.0 * occ, 1e-9);
}

TEST(Channel, ControlPlaneWritesNeverQueue) {
  CostModel cm;
  Channel ch(cm);
  // A large in-flight transfer books the link...
  ch.transfer(0.0, 1 << 20, Xfer::kBulk);
  // ...but a 4-byte state write posts through immediately.
  const double d = ch.post(0.0, 4, Xfer::kStateWrite);
  EXPECT_NEAR(d, cm.transfer_occupancy_ns(4), 1e-9);
}

TEST(Channel, IdleLinkDoesNotQueue) {
  CostModel cm;
  Channel ch(cm);
  ch.transfer(0.0, 4096, Xfer::kBulk);
  const double d = ch.transfer(10000.0, 4096, Xfer::kBulk);
  EXPECT_NEAR(d, cm.pcie_latency_ns + cm.transfer_occupancy_ns(4096), 1e-9);
}

TEST(Channel, CountersSplitByPurpose) {
  CostModel cm;
  Channel ch(cm);
  ch.transfer(0.0, 100, Xfer::kQuery);
  ch.transfer(0.0, 200, Xfer::kQuery);
  ch.transfer(0.0, 4, Xfer::kStateWrite);
  EXPECT_EQ(ch.counters(Xfer::kQuery).transactions, 2u);
  EXPECT_EQ(ch.counters(Xfer::kQuery).bytes, 300u);
  EXPECT_EQ(ch.counters(Xfer::kStateWrite).transactions, 1u);
  EXPECT_EQ(ch.total().transactions, 3u);
  EXPECT_EQ(ch.total().bytes, 304u);
  ch.reset_counters();
  EXPECT_EQ(ch.total().transactions, 0u);
}

// ---------------- wave_schedule.hpp ----------------

TEST(WaveSchedule, UnlimitedCapacityRunsConcurrently) {
  std::vector<CtaTask> tasks{{0, 100.0}, {0, 50.0}, {1, 80.0}};
  const auto t = wave_schedule(tasks, 2, 16, {0.0, 0.0});
  EXPECT_DOUBLE_EQ(t.query_search_end[0], 100.0);
  EXPECT_DOUBLE_EQ(t.query_search_end[1], 80.0);
  EXPECT_DOUBLE_EQ(t.gpu_end_ns, 100.0);
  // Idle: CTA1 waits 50, CTA2 waits 20, CTA0 waits 0.
  EXPECT_DOUBLE_EQ(t.idle_ns, 70.0);
  EXPECT_DOUBLE_EQ(t.active_ns, 230.0);
}

TEST(WaveSchedule, CapacityOneSerializes) {
  std::vector<CtaTask> tasks{{0, 10.0}, {1, 10.0}, {2, 10.0}};
  const auto t = wave_schedule(tasks, 3, 1, {0.0, 0.0, 0.0});
  EXPECT_DOUBLE_EQ(t.query_search_end[0], 10.0);
  EXPECT_DOUBLE_EQ(t.query_search_end[1], 20.0);
  EXPECT_DOUBLE_EQ(t.query_search_end[2], 30.0);
  EXPECT_DOUBLE_EQ(t.gpu_end_ns, 30.0);
}

TEST(WaveSchedule, MergeExtendsQueryCompletion) {
  std::vector<CtaTask> tasks{{0, 10.0}, {1, 20.0}};
  const auto t = wave_schedule(tasks, 2, 4, {5.0, 1.0});
  EXPECT_DOUBLE_EQ(t.query_final[0], 15.0);
  EXPECT_DOUBLE_EQ(t.query_final[1], 21.0);
  EXPECT_DOUBLE_EQ(t.gpu_end_ns, 21.0);
}

// The batched graph-construction kernel schedules one CTA per insertion
// with no merge. Its virtual build times (and bench_construction's TSV)
// are pinned to these exact makespans, so they must not move by one bit.
TEST(WaveSchedule, ConstructionMakespanIsBitExact) {
  const std::vector<double> durations{
      731.25, 0.1,  1e3 / 3, 47.7,  512.0 + 1e-9, 299.9, 0.3,
      88.8,   1234.5678,     6.02,  33.3,         17.17, 1.0 / 7};
  std::vector<CtaTask> tasks;
  for (const double d : durations) tasks.push_back({tasks.size(), d});
  const std::pair<std::size_t, double> expected[] = {
      {1, 0x1.9d12b00ccc16cp+11},
      {3, 0x1.d2f345c4be99cp+10},
      {5, 0x1.56d78a0902dep+10},
      {64, 0x1.34a456d5cfaadp+10},
  };
  for (const auto& [capacity, makespan] : expected) {
    const auto t = wave_schedule(tasks, tasks.size(), capacity,
                                 std::vector<double>(tasks.size(), 0.0));
    EXPECT_EQ(t.gpu_end_ns, makespan) << "capacity " << capacity;
  }
}

TEST(DeviceCapacity, ShrinksWithLayout) {
  const auto dev = DeviceProps::rtx_a6000();
  SharedMemoryLayout small;
  small.candidate_entries = 64;
  small.dim = 128;
  SharedMemoryLayout big;
  big.candidate_entries = 2048;
  big.expand_entries = 2048;
  big.dim = 960;
  const auto cap_small = device_capacity(dev, small, 1024);
  const auto cap_big = device_capacity(dev, big, 1024);
  EXPECT_GT(cap_small, cap_big);
  EXPECT_LE(cap_small, dev.max_resident_blocks());
  EXPECT_GE(cap_big, dev.num_sms);  // at least 1 block/SM fits here
}

// ---------------- device_props / shared_memory ----------------

TEST(DeviceProps, TableIIValues) {
  const auto dev = DeviceProps::rtx_a6000();
  EXPECT_EQ(dev.num_sms, 84u);
  EXPECT_EQ(dev.max_blocks_per_sm, 16u);
  EXPECT_EQ(dev.max_threads_per_block, 1024u);
  EXPECT_EQ(dev.warp_size, 32u);
  EXPECT_EQ(dev.shared_mem_per_block, 48u * 1024);
  EXPECT_EQ(dev.shared_mem_per_sm, 100u * 1024);
  EXPECT_EQ(dev.reserved_shared_mem_per_block, 1024u);
  EXPECT_EQ(dev.shared_mem_per_block_optin, 99u * 1024);
  EXPECT_EQ(dev.max_resident_blocks(), 84u * 16);
}

TEST(SharedMemory, LayoutByteMath) {
  SharedMemoryLayout layout;
  layout.candidate_entries = 128;
  layout.expand_entries = 64;
  layout.dim = 128;
  EXPECT_EQ(layout.candidate_bytes(), 128u * 8);
  EXPECT_EQ(layout.expand_bytes(), 64u * 8);
  EXPECT_EQ(layout.query_bytes(), 128u * 4);
  EXPECT_EQ(layout.total_bytes(),
            128u * 8 + 64u * 8 + 128u * 4 + layout.control_bytes());
}

TEST(SharedMemory, OccupancyFitsSmallLayout) {
  const auto dev = DeviceProps::rtx_a6000();
  SharedMemoryLayout layout;
  layout.candidate_entries = 128;
  layout.expand_entries = 64;
  layout.dim = 128;
  const auto occ = check_occupancy(dev, layout, 8, 1024);
  EXPECT_TRUE(occ.fits) << occ.reason;
  EXPECT_EQ(occ.blocks_per_sm, 8u);
  // 100KiB/8 - 1KiB = 11.5KiB available.
  EXPECT_EQ(occ.avail_per_block, 100u * 1024 / 8 - 1024);
}

TEST(SharedMemory, OccupancyRejectsOversizedLayout) {
  const auto dev = DeviceProps::rtx_a6000();
  SharedMemoryLayout layout;
  layout.candidate_entries = 4096;
  layout.expand_entries = 4096;
  layout.dim = 960;
  const auto occ = check_occupancy(dev, layout, 16, 1024);
  EXPECT_FALSE(occ.fits);
  EXPECT_NE(occ.reason.find("layout needs"), std::string::npos);
}

TEST(SharedMemory, OccupancyRejectsBlockLimit) {
  const auto dev = DeviceProps::rtx_a6000();
  SharedMemoryLayout layout;
  layout.candidate_entries = 32;
  layout.dim = 16;
  EXPECT_FALSE(check_occupancy(dev, layout, 17, 1024).fits);
  EXPECT_FALSE(check_occupancy(dev, layout, 0, 1024).fits);
}

TEST(SharedMemory, OptinCapsAvailability) {
  const auto dev = DeviceProps::rtx_a6000();
  SharedMemoryLayout layout;
  layout.candidate_entries = 32;
  layout.dim = 16;
  const auto occ = check_occupancy(dev, layout, 1, 0);
  EXPECT_TRUE(occ.fits);
  EXPECT_EQ(occ.avail_per_block, dev.shared_mem_per_block_optin);
}

// ---------------- cost_model.hpp ----------------

TEST(CostModel, DistanceScalesWithDimChunks) {
  CostModel cm;
  // 128 dims = 4 chunks of 32; 960 dims = 30 chunks.
  const double d128 = cm.distance_round_ns(128, 10);
  const double d960 = cm.distance_round_ns(960, 10);
  EXPECT_GT(d960, d128);
  EXPECT_NEAR(d128, 10 * (cm.dist_base_ns + 4 * cm.dist_chunk_ns), 1e-9);
}

TEST(CostModel, BitonicSortStageCount) {
  CostModel cm;
  // n=64: k=6 -> 21 stages, 1 wavefront of 32 pairs each.
  EXPECT_NEAR(cm.bitonic_sort_ns(64), 21 * cm.sort_wavefront_ns, 1e-9);
  // Merge of 64: 6 stages.
  EXPECT_NEAR(cm.bitonic_merge_ns(64), 6 * cm.sort_wavefront_ns, 1e-9);
  EXPECT_EQ(cm.bitonic_sort_ns(1), 0.0);
}

TEST(CostModel, GpuMergeMoreExpensiveThanHostMerge) {
  CostModel cm;
  // The §III-B motivation: cross-CTA global-memory merge is costly.
  EXPECT_GT(cm.gpu_topk_merge_ns(8, 128), cm.host_topk_merge_ns(8, 16));
  EXPECT_EQ(cm.gpu_topk_merge_ns(1, 128), 0.0);
}

}  // namespace
}  // namespace algas::sim
