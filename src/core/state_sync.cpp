#include "core/state_sync.hpp"

#include <cassert>
#include <stdexcept>

#include "core/protocol_checker.hpp"
#include "simgpu/trace.hpp"

namespace algas::core {

namespace {
/// One state word on the wire.
constexpr std::size_t kStateBytes = sizeof(std::uint32_t);
}  // namespace

StateSync::StateSync(sim::Channel* channel, const sim::CostModel& cm,
                     std::size_t slots, std::size_t ctas_per_slot,
                     bool mirrored)
    : channel_(channel),
      cm_(cm),
      slots_(slots),
      ctas_(ctas_per_slot),
      mirrored_(mirrored),
      states_(slots * ctas_per_slot, SlotState::kNone) {
  assert(channel_ != nullptr);
}

SlotState StateSync::host_read(SimTime now, std::size_t slot, std::size_t cta,
                               double* elapsed) {
  ++host_polls_;
  if (mirrored_) {
    *elapsed += cm_.poll_local_ns;
  } else {
    // Reading device memory: one small channel transaction per poll.
    *elapsed += cm_.poll_local_ns +
                channel_->transfer(now + *elapsed, kStateBytes,
                                   sim::Xfer::kStatePoll);
  }
  const SlotState s = at(slot, cta);
  if (checker_) checker_->on_read(Side::kHost, now + *elapsed, slot, cta, s);
  return s;
}

void StateSync::host_write(SimTime now, std::size_t slot, std::size_t cta,
                           SlotState next, double* elapsed) {
  SlotState& s = at(slot, cta);
  const SlotState prev = s;
  if (checker_) {
    checker_->pre_write(Side::kHost, now + *elapsed, slot, cta, s, next);
  }
  if (!is_legal_transition(s, next)) {
    throw std::logic_error(std::string("illegal host transition ") +
                           slot_state_name(s) + " -> " +
                           slot_state_name(next));
  }
  ++transitions_;
  // Local update plus one posted write-through in both modes: in naive mode
  // the state lives on the device, in mirrored mode the remote copy is
  // updated. Posted: the host does not wait for propagation.
  *elapsed += cm_.poll_local_ns +
              channel_->post(now + *elapsed, kStateBytes,
                             sim::Xfer::kStateWrite);
  s = next;
  if (checker_) {
    checker_->post_write(Side::kHost, now + *elapsed, slot, cta, next);
  }
  trace_transition(Side::kHost, now + *elapsed, slot, cta, prev, next);
  if (waker_ && (next == SlotState::kWork || next == SlotState::kQuit)) {
    const std::uint64_t skipped = waker_(slot, cta);
    device_polls_ += skipped;
    if (checker_) checker_->credit_reads(skipped);
  }
}

SlotState StateSync::device_read(SimTime now, std::size_t slot,
                                 std::size_t cta, double* elapsed) {
  ++device_polls_;
  *elapsed += cm_.poll_local_ns;  // kernel polls its own memory
  const SlotState s = at(slot, cta);
  if (checker_) {
    checker_->on_read(Side::kDevice, now + *elapsed, slot, cta, s);
  }
  return s;
}

void StateSync::device_write(SimTime now, std::size_t slot, std::size_t cta,
                             SlotState next, double* elapsed) {
  SlotState& s = at(slot, cta);
  const SlotState prev = s;
  if (checker_) {
    checker_->pre_write(Side::kDevice, now + *elapsed, slot, cta, s, next);
  }
  if (!is_legal_transition(s, next)) {
    throw std::logic_error(std::string("illegal device transition ") +
                           slot_state_name(s) + " -> " +
                           slot_state_name(next));
  }
  ++transitions_;
  *elapsed += cm_.poll_local_ns;
  if (mirrored_) {
    // Posted write-through to the host mirror so host polls stay local.
    *elapsed += channel_->post(now + *elapsed, kStateBytes,
                               sim::Xfer::kStateWrite);
  }
  // Naive mode: the state lives in device memory; the host pays on poll.
  s = next;
  if (checker_) {
    checker_->post_write(Side::kDevice, now + *elapsed, slot, cta, next);
  }
  trace_transition(Side::kDevice, now + *elapsed, slot, cta, prev, next);
}

void StateSync::trace_transition(Side side, SimTime t, std::size_t slot,
                                 std::size_t cta, SlotState from,
                                 SlotState to) {
  if (!trace_) return;
  sim::TraceArgs args;
  args.add("cta", static_cast<std::uint64_t>(cta));
  args.add("side", side_name(side));
  trace_->instant(trace_pid_,
                  trace_tid_base_ + static_cast<int>(slot),
                  std::string(slot_state_name(from)) + "->" +
                      slot_state_name(to),
                  t, std::move(args), "state");
}

void StateSync::host_write_all(SimTime now, std::size_t slot,
                               SlotState next, double* elapsed) {
  for (std::size_t c = 0; c < ctas_; ++c) {
    host_write(now, slot, c, next, elapsed);
  }
}

bool StateSync::host_all_in_state(SimTime now, std::size_t slot, SlotState s,
                                  double* elapsed) {
  for (std::size_t c = 0; c < ctas_; ++c) {
    if (host_read(now, slot, c, elapsed) != s) return false;
  }
  return true;
}

}  // namespace algas::core
