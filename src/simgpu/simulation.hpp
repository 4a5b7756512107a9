// Deterministic discrete-event simulation core.
//
// Actors (CTAs, host worker threads, batch drivers, workload generators)
// self-schedule: inside step() an actor performs its next slice of work —
// executing the *real* algorithm functionally — computes that slice's
// virtual duration from the CostModel, and reschedules itself. An actor
// waiting on shared state either polls (reschedules at +poll_interval) or
// parks on its poll grid: park() stops its polling, and wake() — called
// by whoever changes the state it waits for — schedules it at the exact
// grid instant whose poll would have been the first to see the change,
// found by replaying the polling loop's float additions. The polls in
// between are never stepped; wake() returns how many there were.
//
// At most one pending event per actor: schedule() coalesces, keeping the
// earliest requested wake-up. Events run in (time, pusher, seq) order: the
// instant they fire, the instant they were pushed at, then push order.
// Pushes happen at non-decreasing now(), so for pushed events this is the
// (time, seq) order; the pusher instant is what lets a woken poll take the
// place its polling would have held among equal-time events. Runs are bit-
// for-bit reproducible.
#pragma once

#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include "common/ownership.hpp"
#include "common/types.hpp"

namespace algas::sim {

class SimCheck;
class Simulation;
class Tracer;

/// Poll grid of a parked actor: having polled at t, it would poll again at
/// (t + read_ns) + interval_ns — the additions its polling loop makes, in
/// the same order, so a replay lands on the polled instants bit for bit.
struct PollGrid {
  double read_ns = 0.0;
  double interval_ns = 0.0;

  SimTime next(SimTime t) const { return (t + read_ns) + interval_ns; }
  bool operator==(const PollGrid&) const = default;
};

/// Queue position of one event: fire time, the instant it was pushed at,
/// and push order.
struct EventKey {
  SimTime time = 0.0;
  SimTime pusher = 0.0;
  std::uint64_t seq = 0;
};

/// Base class for everything that consumes virtual time.
class Actor {
 public:
  virtual ~Actor() = default;

  /// Perform the next slice of work at sim.now(); reschedule yourself via
  /// sim.schedule(this, when) or go dormant by not rescheduling.
  virtual void step(Simulation& sim) = 0;

  virtual const char* name() const { return "actor"; }

 private:
  friend class Simulation;
  /// Queue bookkeeping lives in the actor but belongs to the scheduler:
  /// only Simulation (schedule/cancel/pop) may touch these.
  std::uint64_t token_ ALGAS_OWNED_BY(Simulation) = 0;
  SimTime pending_time_ ALGAS_OWNED_BY(Simulation) = -1.0;  // < 0 = none
  bool parked_ ALGAS_OWNED_BY(Simulation) = false;
  /// The poll that parked the actor, the grid it polls on, and — once
  /// woken — how many grid steps separate that poll from the woken one.
  EventKey park_ ALGAS_OWNED_BY(Simulation);
  PollGrid grid_ ALGAS_OWNED_BY(Simulation);
  std::uint64_t wake_steps_ ALGAS_OWNED_BY(Simulation) = 0;
};

class Simulation {
 public:
  /// Schedule (or re-schedule) `a` to step at time `when`. If the actor
  /// already has an earlier pending event this is a no-op; a later pending
  /// event is superseded. `when` is clamped to now() — the past is not
  /// addressable. A parked actor is unparked.
  void schedule(Actor* a, SimTime when);

  /// Remove the actor's pending event or park, if any.
  void cancel(Actor* a);

  /// Park the stepping actor `a` instead of rescheduling it: its poll at
  /// now() found nothing to do, and it would go on polling on `grid`. Only
  /// an actor's own step, run from a pushed event, may park it (a woken
  /// poll has found what it waited for). Throws std::logic_error otherwise.
  void park(Actor* a, PollGrid grid);

  /// Schedule parked `a` at the first instant of its grid whose poll runs
  /// after the current event — so it sees whatever that event changed —
  /// and return the number of grid polls before it, which ran (in polling)
  /// and saw nothing. A no-op returning 0 when `a` is not parked.
  ///
  /// Among equal-time events the woken poll takes its polling place: it
  /// counts as pushed at the grid instant before it, and two woken polls
  /// pushed at the same instant run in the order of their grids where
  /// they last differed. Throws std::logic_error on a tie that order
  /// cannot decide (a woken poll and another event at the same instant,
  /// pushed at the same instant), rather than guess.
  std::uint64_t wake(Actor* a);

  SimTime now() const { return now_; }

  /// Run until the event queue drains or stop() is called.
  void run();

  /// Run until virtual time exceeds `t` (events at exactly t still run).
  void run_until(SimTime t);

  /// Timestamp of the next live event, or +infinity when the queue is
  /// drained. Stale entries encountered at the head are discarded (and
  /// counted) exactly as run() would — peeking never changes which events
  /// execute. This is the coordination primitive SimulationGroup uses to
  /// interleave several simulations in global time order.
  SimTime next_event_time();

  /// Process exactly one live event (advancing now()). Returns false when
  /// the queue is drained. Unlike run(), does NOT signal the checker's
  /// drain hook — callers that interleave multiple simulations signal
  /// notify_drain() once the whole group is done.
  bool step_one();

  /// Tell the attached checker the run drained naturally (what run() does
  /// implicitly). SimulationGroup calls this per member after all members
  /// drain; a no-op without a checker.
  void notify_drain();

  void stop() { stopped_ = true; }

  std::uint64_t events_processed() const { return events_processed_; }
  /// Queue entries discarded because their actor was re-scheduled or
  /// cancelled after they were pushed (token mismatch on pop). A high
  /// stale:processed ratio means actors churn their wake-ups.
  std::uint64_t stale_events() const { return stale_events_; }
  bool idle() const { return queue_.empty() && woken_.empty(); }

  /// Attach a SimCheck verification layer (not owned; null disables — the
  /// unchecked path costs one branch per schedule/step). The checker
  /// observes scheduling hygiene and natural queue drains; it never
  /// advances or charges virtual time.
  void set_checker(SimCheck* check) { check_ = check; }
  SimCheck* checker() const { return check_; }

  /// Attach a SimTrace event sink (not owned; null disables). Like the
  /// checker, the tracer is a pure observer reachable from actors during
  /// step() — it records timeline events but never advances or charges
  /// virtual time, so traced and untraced runs are bit-identical.
  void set_tracer(Tracer* t) { trace_ = t; }
  Tracer* tracer() const { return trace_; }

 private:
  struct Event {
    EventKey key;
    Actor* actor;
    std::uint64_t token;
    bool operator>(const Event& o) const {
      if (key.time != o.key.time) return key.time > o.key.time;
      if (key.pusher != o.key.pusher) return key.pusher > o.key.pusher;
      return key.seq > o.key.seq;
    }
  };

  /// Live head of the pushed queue or of the woken polls (null = none);
  /// stale heads are dropped and counted on the way.
  const Event* pushed_head();
  const Event* woken_head();
  /// Whichever head runs first; null when both are drained.
  const Event* next_head();
  /// Order of two woken polls (true = `a` runs first).
  static bool wakes_before(const Event& a, const Event& b);

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> queue_;
  /// Woken polls, latest first (the next one to run is at the back). Kept
  /// apart from queue_ because their order on ties is not push order.
  std::vector<Event> woken_;
  /// Key and actor of the event being (or last) stepped; wake() places
  /// woken polls after it, park() records it.
  EventKey current_{0.0, -std::numeric_limits<SimTime>::infinity(), 0};
  const Actor* current_actor_ = nullptr;
  bool current_woken_ = false;
  SimTime now_ = 0.0;
  std::uint64_t seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::uint64_t stale_events_ = 0;
  bool stopped_ = false;
  SimCheck* check_ = nullptr;
  Tracer* trace_ = nullptr;
};

}  // namespace algas::sim
