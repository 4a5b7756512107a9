#include "graph/gpu_construction.hpp"

#include <algorithm>

namespace algas {

double construction_insert_cost_ns(const BuildConfig& cfg, std::size_t dim,
                                   std::size_t scored) {
  const sim::CostModel& cm = cfg.cost;
  const std::size_t rounds =
      std::max<std::size_t>(1,
                            scored / std::max<std::size_t>(1, cfg.degree));
  const std::size_t ef_pow2 = next_pow2(cfg.ef_construction);
  return cm.distance_round_ns(dim, scored) +
         static_cast<double>(rounds) *
             (cm.bitonic_sort_ns(next_pow2(cfg.degree)) +
              cm.bitonic_merge_ns(2 * ef_pow2)) +
         // Link application: the select-neighbors heuristic evaluates
         // roughly degree^2 / 2 pairwise distances per inserted node.
         cm.distance_round_ns(dim, cfg.degree * cfg.degree / 2);
}

}  // namespace algas
