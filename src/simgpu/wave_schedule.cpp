#include "simgpu/wave_schedule.hpp"

#include <algorithm>
#include <cassert>
#include <queue>

namespace algas::sim {

BatchTiming wave_schedule(const std::vector<CtaTask>& tasks,
                          std::size_t num_queries, std::size_t capacity,
                          const std::vector<double>& merge_ns_per_query) {
  assert(capacity >= 1);
  assert(merge_ns_per_query.size() == num_queries);
  BatchTiming timing;
  timing.query_search_end.assign(num_queries, 0.0);
  timing.query_final.assign(num_queries, 0.0);

  // Earliest-free server heap (min-heap over free time).
  std::priority_queue<double, std::vector<double>, std::greater<double>>
      servers;
  for (std::size_t i = 0; i < capacity; ++i) servers.push(0.0);

  std::vector<double> completions(tasks.size(), 0.0);
  for (std::size_t i = 0; i < tasks.size(); ++i) {
    const double free_at = servers.top();
    servers.pop();
    const double end = free_at + tasks[i].duration_ns;
    completions[i] = end;
    servers.push(end);
    timing.query_search_end[tasks[i].query] =
        std::max(timing.query_search_end[tasks[i].query], end);
    timing.active_ns += tasks[i].duration_ns;
  }

  for (std::size_t q = 0; q < num_queries; ++q) {
    timing.query_final[q] = timing.query_search_end[q] + merge_ns_per_query[q];
    timing.active_ns += merge_ns_per_query[q];
    timing.gpu_end_ns = std::max(timing.gpu_end_ns, timing.query_final[q]);
  }

  // Barrier idle: every CTA waits from its completion to kernel end.
  for (double end : completions) {
    timing.idle_ns += timing.gpu_end_ns - end;
  }
  return timing;
}

std::size_t device_capacity(const DeviceProps& dev,
                            const SharedMemoryLayout& layout,
                            std::size_t reserved_per_block) {
  std::size_t best = 0;
  for (std::size_t bpsm = 1; bpsm <= dev.max_blocks_per_sm; ++bpsm) {
    const auto occ = check_occupancy(dev, layout, bpsm, reserved_per_block);
    if (occ.fits) best = bpsm;
  }
  // Residency alone is not speed: beyond one warp per scheduler, resident
  // warps timeslice. Wave-scheduling at the full-speed capacity models the
  // same aggregate behaviour.
  return std::min(best * dev.num_sms, dev.full_speed_ctas());
}

}  // namespace algas::sim
