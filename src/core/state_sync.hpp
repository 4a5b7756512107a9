// Slot/CTA state storage with the §V-A state optimization.
//
// Naive mode: states live in device memory. Every host poll and host write
// crosses the channel; device-side accesses are local.
//
// Mirrored mode (GDRCopy substitution): both sides hold state copies mapped
// to each other. Polls read the local copy (no channel traffic); a state
// *change* performs one write-through transaction to the remote copy. Only
// one side has modification rights per state at any time (Fig 9), so the
// mirrors never conflict.
//
// The functional state word is shared (the simulation is single-threaded);
// what differs between modes is the virtual-time cost and channel traffic —
// exactly the quantity Fig 18 measures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/ownership.hpp"
#include "core/slot.hpp"
#include "simgpu/channel.hpp"

namespace algas::core {

class ProtocolChecker;

class StateSync {
 public:
  StateSync(sim::Channel* channel, const sim::CostModel& cm,
            std::size_t slots, std::size_t ctas_per_slot, bool mirrored);

  std::size_t slots() const { return slots_; }
  std::size_t ctas_per_slot() const { return ctas_; }
  bool mirrored() const { return mirrored_; }

  /// Attach a protocol checker (not owned; null = unchecked). Every access
  /// below reports to it; writes report BEFORE any side effect so illegal
  /// transitions fail with the checker's trace-carrying diagnostics.
  void set_checker(ProtocolChecker* checker) { checker_ = checker; }

  /// Attach a SimTrace sink (not owned; null disables). Every applied
  /// state transition emits a "<from>-><to>" instant on the slot's lane
  /// (`slot_tid_base + slot` under `pid`), stamped at the write's charged
  /// completion time. Pure observer — costs and traffic are unchanged.
  void set_tracer(sim::Tracer* t, int pid, int slot_tid_base) {
    trace_ = t;
    trace_pid_ = pid;
    trace_tid_base_ = slot_tid_base;
  }

  /// Wakes the device poller parked on one word and returns how many of
  /// its polls the park skipped (0 when it was not parked).
  using Waker = std::function<std::uint64_t(std::size_t slot, std::size_t cta)>;

  /// Install the waker (empty = none). host_write() calls it on every
  /// write of Work or Quit — the states a parked CTA waits for — and
  /// credits the skipped polls to device_polls() and the checker.
  void set_waker(Waker waker) { waker_ = std::move(waker); }

  /// Cost-free state inspection (no polling cost, no counters). For
  /// checker drain reports and tests only — engines must poll.
  SlotState peek(std::size_t slot, std::size_t cta) const {
    return states_[slot * ctas_ + cta];
  }

  /// Host polls one CTA state. Adds the poll's cost to *elapsed and issues
  /// channel traffic in naive mode. `now` is the poller's current cursor.
  SlotState host_read(SimTime now, std::size_t slot, std::size_t cta,
                      double* elapsed);

  /// Host transitions one CTA state (must be legal). Cost: local write +
  /// write-through transaction (mirrored) or remote write (naive).
  void host_write(SimTime now, std::size_t slot, std::size_t cta,
                  SlotState next, double* elapsed);

  /// Host transitions every CTA state of `slot`, in CTA order.
  void host_write_all(SimTime now, std::size_t slot, SlotState next,
                      double* elapsed);

  /// Device-side poll — local in both modes (the kernel polls its own
  /// memory). `now` is the polling CTA's current cursor (used only for
  /// checker timestamps; device polls never touch the channel).
  SlotState device_read(SimTime now, std::size_t slot, std::size_t cta,
                        double* elapsed);

  /// Device transitions its state. Mirrored mode pays one write-through.
  void device_write(SimTime now, std::size_t slot, std::size_t cta,
                    SlotState next, double* elapsed);

  /// Convenience: true when all CTA states of `slot` equal `s` (host view);
  /// polls each CTA state and accumulates cost.
  bool host_all_in_state(SimTime now, std::size_t slot, SlotState s,
                         double* elapsed);

  std::uint64_t host_polls() const { return host_polls_; }
  /// Device polls modeled: device_read() calls plus the polls parked CTAs
  /// skipped.
  std::uint64_t device_polls() const { return device_polls_; }
  std::uint64_t state_transitions() const { return transitions_; }

 private:
  SlotState& at(std::size_t slot, std::size_t cta) {
    return states_[slot * ctas_ + cta];
  }

  /// Trace hook shared by host_write/device_write (after the transition).
  void trace_transition(Side side, SimTime t, std::size_t slot,
                        std::size_t cta, SlotState from, SlotState to);

  sim::Channel* channel_;
  ProtocolChecker* checker_ = nullptr;
  Waker waker_;
  sim::Tracer* trace_ = nullptr;
  int trace_pid_ = 0;
  int trace_tid_base_ = 0;
  sim::CostModel cm_;
  std::size_t slots_;
  std::size_t ctas_;
  bool mirrored_;
  /// The state words themselves: write rights rotate between host and
  /// device per Fig 9 (state_owner()), mediated by host_write/device_write
  /// — the epoch is the slot state machine itself.
  std::vector<SlotState> states_ ALGAS_GUARDED_BY_EPOCH(StateSync);
  std::uint64_t host_polls_ ALGAS_OWNED_BY(StateSync) = 0;
  std::uint64_t device_polls_ ALGAS_OWNED_BY(StateSync) = 0;
  std::uint64_t transitions_ ALGAS_OWNED_BY(StateSync) = 0;
};

}  // namespace algas::core
