#include "simgpu/simulation.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "simgpu/checker.hpp"

namespace algas::sim {

namespace {

[[noreturn]] void undecidable_tie(const char* what, const Actor* a,
                                  const Actor* b, SimTime t, SimTime pusher) {
  std::ostringstream msg;
  msg.precision(17);
  msg << "Simulation: " << what << ": " << a->name() << " and " << b->name()
      << " both run at t=" << t << "ns, pushed from t=" << pusher
      << "ns; their polling order is undecidable";
  throw std::logic_error(msg.str());
}

}  // namespace

void Simulation::schedule(Actor* a, SimTime when) {
  if (check_) check_->on_schedule(a, a->name(), now_, when);
  when = std::max(when, now_);
  a->parked_ = false;
  if (a->pending_time_ >= 0.0 && a->pending_time_ <= when) {
    return;  // an earlier (or equal) wake-up is already queued
  }
  ++a->token_;
  a->pending_time_ = when;
  queue_.push(Event{{when, now_, seq_++}, a, a->token_});
}

void Simulation::cancel(Actor* a) {
  ++a->token_;  // any queued entry becomes stale
  a->pending_time_ = -1.0;
  a->parked_ = false;
}

void Simulation::park(Actor* a, PollGrid grid) {
  if (a != current_actor_ || current_woken_) {
    throw std::logic_error(
        std::string("Simulation::park: ") + a->name() +
        " may only park from its own step, run from a pushed event");
  }
  cancel(a);
  a->parked_ = true;
  a->park_ = current_;
  a->grid_ = grid;
}

std::uint64_t Simulation::wake(Actor* a) {
  if (!a->parked_) return 0;
  // Walk the grid: a poll before now(), or at now() but pushed from an
  // earlier instant than the current event was, ran before that event
  // and missed its change.
  SimTime pusher = a->park_.time;
  SimTime t = a->grid_.next(pusher);
  std::uint64_t steps = 1;
  while (t < now_ || (t == now_ && pusher <= current_.pusher)) {
    if (t == now_ && pusher == current_.pusher) {
      undecidable_tie("wake", a, current_actor_, t, pusher);
    }
    pusher = t;
    t = a->grid_.next(t);
    ++steps;
  }
  if (check_) check_->on_schedule(a, a->name(), now_, t);
  a->parked_ = false;
  a->wake_steps_ = steps;
  ++a->token_;
  a->pending_time_ = t;
  const Event ev{{t, pusher, 0}, a, a->token_};
  auto pos = woken_.begin();
  while (pos != woken_.end() &&
         (pos->token != pos->actor->token_ || wakes_before(ev, *pos))) {
    ++pos;
  }
  woken_.insert(pos, ev);
  return steps - 1;
}

bool Simulation::wakes_before(const Event& a, const Event& b) {
  if (a.key.time != b.key.time) return a.key.time < b.key.time;
  if (a.key.pusher != b.key.pusher) return a.key.pusher < b.key.pusher;
  // Same instant, pushed from the same instant: polling ran them in the
  // order their pushers ran, and so on back along both grids to where
  // they last differed; the grid that was earlier there goes first. A grid
  // step is monotone, so two grids that differ do so the same way at every
  // depth before they merge: compare them at the depth of the later park,
  // walking the deeper grid `x` forward to it.
  const Actor* x = a.actor;
  const Actor* y = b.actor;
  const bool swapped = x->wake_steps_ < y->wake_steps_;
  if (swapped) std::swap(x, y);
  if (!(x->grid_ == y->grid_)) {
    undecidable_tie("woken polls on different grids", x, y, a.key.time,
                    a.key.pusher);
  }
  SimTime at = x->park_.time;
  SimTime pushed_from = x->park_.pusher;
  for (std::uint64_t i = y->wake_steps_; i < x->wake_steps_; ++i) {
    pushed_from = at;
    at = x->grid_.next(at);
  }
  // At y's park poll: x's poll there (a grid poll, or x's own park poll
  // when both parked that many steps back) against y's park poll.
  bool x_first;
  if (at != y->park_.time) {
    x_first = at < y->park_.time;
  } else if (pushed_from != y->park_.pusher) {
    x_first = pushed_from < y->park_.pusher;
  } else if (x->wake_steps_ == y->wake_steps_) {
    x_first = x->park_.seq < y->park_.seq;  // two pushed events
  } else {
    undecidable_tie("woken polls", x, y, a.key.time, a.key.pusher);
  }
  return x_first != swapped;
}

const Simulation::Event* Simulation::pushed_head() {
  while (!queue_.empty()) {
    const Event& ev = queue_.top();
    if (ev.token == ev.actor->token_) return &ev;  // live entry
    queue_.pop();
    ++stale_events_;
  }
  return nullptr;
}

const Simulation::Event* Simulation::woken_head() {
  while (!woken_.empty()) {
    const Event& ev = woken_.back();
    if (ev.token == ev.actor->token_) return &ev;
    woken_.pop_back();
    ++stale_events_;
  }
  return nullptr;
}

const Simulation::Event* Simulation::next_head() {
  const Event* pushed = pushed_head();
  const Event* woken = woken_head();
  if (pushed == nullptr || woken == nullptr) {
    return pushed != nullptr ? pushed : woken;
  }
  if (pushed->key.time != woken->key.time) {
    return woken->key.time < pushed->key.time ? woken : pushed;
  }
  if (pushed->key.pusher != woken->key.pusher) {
    return woken->key.pusher < pushed->key.pusher ? woken : pushed;
  }
  undecidable_tie("woken poll", woken->actor, pushed->actor,
                  woken->key.time, woken->key.pusher);
}

SimTime Simulation::next_event_time() {
  const Event* head = next_head();
  return head != nullptr ? head->key.time
                         : std::numeric_limits<SimTime>::infinity();
}

bool Simulation::step_one() {
  const Event* head = next_head();
  if (head == nullptr) return false;
  const Event ev = *head;
  current_woken_ = !woken_.empty() && head == &woken_.back();
  if (current_woken_) {
    woken_.pop_back();
  } else {
    queue_.pop();
  }
  if (check_) check_->on_event(ev.actor, ev.actor->name(), now_, ev.key.time);
  now_ = ev.key.time;
  current_ = ev.key;
  current_actor_ = ev.actor;
  ev.actor->pending_time_ = -1.0;
  ++events_processed_;
  ev.actor->step(*this);
  return true;
}

void Simulation::notify_drain() {
  if (check_) check_->on_drain(now_);
}

void Simulation::run() {
  stopped_ = false;
  while (!stopped_ && step_one()) {
  }
  if (!stopped_) notify_drain();
}

void Simulation::run_until(SimTime t) {
  stopped_ = false;
  while (!stopped_) {
    const SimTime next = next_event_time();
    if (next == std::numeric_limits<SimTime>::infinity()) break;
    if (next > t) {
      now_ = t;
      return;
    }
    step_one();
  }
  now_ = std::max(now_, t);
  if (!stopped_) notify_drain();
}

}  // namespace algas::sim
