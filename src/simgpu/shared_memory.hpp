// Per-block shared-memory accounting (§IV-C).
//
// The search kernel keeps its hot data structures — candidate list, expand
// list, and the query vector — in shared memory. SharedMemoryLayout computes
// the bytes a block needs for a given search configuration; the tuner checks
// that against M_per_SM / N_block_per_SM - M_reserved_per_block.
#pragma once

#include <cstddef>
#include <string>

#include "common/ownership.hpp"
#include "simgpu/device_props.hpp"

namespace algas::sim {

/// Bytes per candidate/expand-list entry: float distance + uint32 id
/// (visited flag packed in the id's top bit).
inline constexpr std::size_t kListEntryBytes = 8;

struct SharedMemoryLayout {
  /// A layout is a value: built up locally (tuner, engine setup), then
  /// handed to the occupancy check / block launch and never edited again —
  /// the kernel's shared-memory carveout cannot be resized mid-flight.
  std::size_t candidate_entries ALGAS_IMMUTABLE_AFTER_PUBLISH = 0;  ///< L
  std::size_t expand_entries ALGAS_IMMUTABLE_AFTER_PUBLISH = 0;     ///< E
  std::size_t dim ALGAS_IMMUTABLE_AFTER_PUBLISH = 0;  ///< query dimension
  /// Stored bytes per query element (4 = f32, 2 = f16, 1 = int8): the
  /// kernel keeps the query in shared memory at the base rows' width so a
  /// quantized layout shrinks the block's footprint (§IV-C budgets fit
  /// larger fanouts).
  std::size_t elem_bytes ALGAS_IMMUTABLE_AFTER_PUBLISH = sizeof(float);

  std::size_t candidate_bytes() const {
    return candidate_entries * kListEntryBytes;
  }
  std::size_t expand_bytes() const { return expand_entries * kListEntryBytes; }
  std::size_t query_bytes() const { return dim * elem_bytes; }
  /// Slot state word + cursor/bookkeeping scalars kept per block.
  std::size_t control_bytes() const { return 64; }

  std::size_t total_bytes() const {
    return candidate_bytes() + expand_bytes() + query_bytes() + control_bytes();
  }

  std::string describe() const;
};

/// Occupancy result for a candidate layout on a device.
struct OccupancyCheck {
  bool fits = false;
  std::size_t blocks_per_sm = 0;        ///< N_block_per_SM actually sustainable
  std::size_t avail_per_block = 0;      ///< M_avail_per_block at that occupancy
  std::size_t required_per_block = 0;   ///< layout.total_bytes()
  std::string reason;                   ///< human-readable failure cause
};

/// Check whether `blocks_per_sm` blocks of `layout` fit on one SM with
/// `reserved_per_block` extra bytes held back as runtime cache (§IV-C).
OccupancyCheck check_occupancy(const DeviceProps& dev,
                               const SharedMemoryLayout& layout,
                               std::size_t blocks_per_sm,
                               std::size_t reserved_per_block);

}  // namespace algas::sim
