// Neighbor-selection heuristics shared by the graph builders.
//
// select_neighbors(v) writes only row v and reads only its candidate list
// and base vectors; fold_backlinks(x, ...) reads and writes only row x.
// That row ownership is what lets the NSW link phase run in parallel:
// selects over the batch rows, then one in-order backlink fold per target
// row, each row touched by exactly one thread (see nsw_builder.hpp and
// DESIGN.md "Deterministic parallel construction"). Callers inside a
// parallel_for pass one PruneScratch per chunk so the hot loop allocates
// nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dataset/dataset.hpp"
#include "graph/graph.hpp"

namespace algas {

/// Caller-owned buffers for select_neighbors and fold_backlinks: reused
/// across calls, never shared between threads.
struct PruneScratch {
  std::vector<std::size_t> pruned;
  std::vector<std::uint32_t> picks;  ///< candidate behind each filled slot
  std::vector<float> dists;
  std::vector<std::pair<float, NodeId>> candidates;  ///< a fold's overflow set
  std::vector<std::pair<float, NodeId>> sorted;
  std::vector<std::uint32_t> order, sorted_slots, row_slots;
  std::vector<NodeId> missing_ids;
  std::vector<std::uint32_t> missing_slots;
  /// fold_backlinks' pair table over degree + 2 slots: d(query = node in
  /// slot a, row = node in slot b) at [a * (degree + 2) + b], valid only
  /// where `pair_known` is set (distances may be negative).
  std::vector<float> pair_dists;
  std::vector<std::uint8_t> pair_known;
  /// Distance evaluations computed through this scratch (the host ledger).
  std::size_t evals = 0;
};

/// Rebuild v's neighbor row from `candidates` (will be sorted ascending by
/// distance to v, deduped) with the HNSW select-neighbors heuristic: keep a
/// candidate only when it is closer to v than to every already-kept
/// neighbor — preserving a mix of short and long (navigable) edges. Pruned
/// candidates backfill remaining slots.
void select_neighbors(const Dataset& ds, Graph& g, NodeId v,
                      std::vector<std::pair<float, NodeId>>& candidates,
                      PruneScratch& scratch);
/// Same, with throwaway buffers.
void select_neighbors(const Dataset& ds, Graph& g, NodeId v,
                      std::vector<std::pair<float, NodeId>>& candidates);

/// Fold target x's backlinks into row x, in the order given: `sources`
/// holds (d(query = v, row = x), v) for distinct sources v. Each adds edge
/// x->v, and on a full row re-selects x's neighbors with the heuristic over
/// {current row + v} — the same row bytes as adding them one call at a
/// time. Every pair distance the fold scores stays in `scratch`'s table
/// until the call returns, so no ordered pair is scored twice.
void fold_backlinks(const Dataset& ds, Graph& g, NodeId x,
                    std::span<const std::pair<float, NodeId>> sources,
                    PruneScratch& scratch);

}  // namespace algas
