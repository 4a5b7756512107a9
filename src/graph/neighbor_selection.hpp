// Neighbor-selection heuristics shared by the graph builders.
//
// select_neighbors(v) writes only row v and reads only its candidate list
// and base vectors; link(x, ...) reads and writes only row x. That row
// ownership is what lets the NSW link phase run in parallel: selects over
// the batch rows, then one in-order backlink fold per target row, each row
// touched by exactly one thread (see nsw_builder.hpp and DESIGN.md
// "Deterministic parallel construction"). Callers inside a parallel_for
// pass one PruneScratch per chunk so the hot loop allocates nothing.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "dataset/dataset.hpp"
#include "graph/graph.hpp"

namespace algas {

/// Caller-owned buffers for select_neighbors and link: reused across calls,
/// never shared between threads.
struct PruneScratch {
  std::vector<std::size_t> pruned;
  std::vector<float> dists;
  std::vector<std::pair<float, NodeId>> candidates;  ///< link()'s overflow set
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

/// Add edge v->u (distance d_vu); on a full row, re-select v's neighbors
/// with the heuristic over {current row + u}.
void link(const Dataset& ds, Graph& g, NodeId v, NodeId u, float d_vu,
          PruneScratch& scratch);

}  // namespace algas
