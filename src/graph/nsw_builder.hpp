// NSW graph construction in the GANNS style [Yu et al., ICDE'22]: points
// are inserted in batches of cfg.insert_batch. Every point of a batch beam-
// searches the frozen prefix (all previous batches) concurrently — the
// host-side analogue of one CTA per insertion — then the batch links in
// two more parallel steps: each row selects its own neighbors with the
// heuristic, then each backlink target folds its incoming links in
// insertion-id order, capped at `degree` per row. Every step writes only
// rows it owns, so the graph is a pure function of (dataset, config):
// byte-identical to one-row-at-a-time linking at any thread count.
// insert_batch=1 degenerates to classic one-at-a-time insertion.
//
// The two phases are exposed on their own so the streaming index
// (core::MutableIndex) runs the very same pipeline one batch at a time:
// phase 1 under a reader section, phase 2 under the writer.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "graph/builder.hpp"

namespace algas {

BuildReport build_nsw(const Dataset& ds, const BuildConfig& cfg);

/// Phase-1 result lists of one insert batch, indexed by batch position.
using InsertCandidates = std::vector<std::vector<std::pair<float, NodeId>>>;

/// Modeled cost of batched insertion, accumulated batch by batch in
/// insertion-id order (the order that fixes the floating-point sums).
struct InsertCost {
  std::size_t batches = 0;
  std::size_t scored_points = 0;  ///< beam-search distance evals
  /// Phase-2 distance evals the host computed (select, kept distances and
  /// backlink folds). A host-cost ledger only: the fold reuses distances a
  /// device would recompute, so it never feeds the modeled times.
  std::size_t link_evals = 0;
  double virtual_build_ns = 0.0;  ///< per batch: launch + wave makespan
  /// Sum of the per-insertion costs on one CTA. Kernel launches are not
  /// included: callers add batches * kernel_launch_ns at the end.
  double serial_build_ns = 0.0;
};

/// Phase 1: rows [begin, begin + found.size()) each beam-search the frozen
/// prefix [0, begin) of `g`, writing only their own found[i] / scored[i]
/// (sized by the caller), so the result is independent of the executor's
/// thread count. The bootstrap batch (begin == 0) has no prefix graph: its
/// rows score each other exhaustively and row 0 stays empty.
void search_insert_batch(const Dataset& ds, const Graph& g,
                         const BuildConfig& cfg, BuildExecutor& exec,
                         std::size_t begin, InsertCandidates& found,
                         std::vector<std::size_t>& scored);

/// Phase 2: link rows [begin, begin + found.size()) into `g` (g must
/// already cover them), then charge the batch's modeled cost into `cost`.
/// Two parallel_for passes on `exec`: every row selects its neighbors from
/// found[i] (consumed in place), then every backlink target folds its
/// incoming links in ascending source id. The result equals linking the
/// rows one at a time in insertion-id order, for any thread count.
void link_insert_batch(const Dataset& ds, Graph& g, const BuildConfig& cfg,
                       BuildExecutor& exec, std::size_t begin,
                       InsertCandidates& found,
                       const std::vector<std::size_t>& scored,
                       InsertCost& cost);

}  // namespace algas
