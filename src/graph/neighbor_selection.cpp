#include "graph/neighbor_selection.hpp"

#include <algorithm>
#include <numeric>

namespace algas {

namespace {

/// The select-neighbors heuristic over `cands`, sorted ascending with
/// distinct ids: keep candidate i when `diverse(i)` finds it closer to v
/// than to every candidate kept so far (scratch.picks, in row order), then
/// backfill the remaining slots with the pruned ones in order. On return
/// row[k] = cands[picks[k]].second for every filled slot k.
template <class Diverse>
void select_sorted(std::span<const std::pair<float, NodeId>> cands,
                   std::span<NodeId> row, PruneScratch& scratch,
                   Diverse&& diverse) {
  std::fill(row.begin(), row.end(), kInvalidNode);
  auto& picks = scratch.picks;
  auto& pruned = scratch.pruned;
  picks.clear();
  pruned.clear();
  for (std::size_t i = 0; i < cands.size() && picks.size() < row.size();
       ++i) {
    if (diverse(i)) {
      row[picks.size()] = cands[i].second;
      picks.push_back(static_cast<std::uint32_t>(i));
    } else {
      pruned.push_back(i);
    }
  }
  for (std::size_t i : pruned) {
    if (picks.size() >= row.size()) break;
    row[picks.size()] = cands[i].second;
    picks.push_back(static_cast<std::uint32_t>(i));
  }
}

}  // namespace

/// Rebuild v's neighbor row from `candidates` (ascending by distance to v)
/// with the HNSW select-neighbors heuristic: keep a candidate only when it
/// is closer to v than to every already-kept neighbor. This preserves a mix
/// of short and long (navigable) edges, which plain closest-first eviction
/// destroys. Pruned candidates backfill remaining slots.
void select_neighbors(const Dataset& ds, Graph& g, NodeId v,
                      std::vector<std::pair<float, NodeId>>& candidates,
                      PruneScratch& scratch) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const auto& a, const auto& b) {
                                 return a.second == b.second;
                               }),
                   candidates.end());

  auto row = g.mutable_neighbors(v);
  auto& kept_dists = scratch.dists;
  kept_dists.resize(row.size());
  select_sorted(candidates, row, scratch, [&](std::size_t i) {
    const auto [d_vu, u] = candidates[i];
    const std::size_t kept = scratch.picks.size();
    // One batched round scores u against every kept neighbor. This drops
    // the scalar loop's early exit, but the kept prefix is <= degree and
    // the ILP/prefetch win dominates the extra tail evaluations.
    ds.distance_batch(ds.base_vector(u), {row.data(), kept},
                      {kept_dists.data(), kept});
    scratch.evals += kept;
    return std::none_of(kept_dists.begin(), kept_dists.begin() + kept,
                        [d_vu](float d) { return d < d_vu; });
  });
}

void select_neighbors(const Dataset& ds, Graph& g, NodeId v,
                      std::vector<std::pair<float, NodeId>>& candidates) {
  PruneScratch scratch;
  select_neighbors(ds, g, v, candidates, scratch);
}

/// The pair table maps the nodes live in x's fold to slots: x in slot 0
/// (it is only ever a query), each row entry in row_slots[k], the incoming
/// source in `spare`. A re-select over degree + 1 distinct candidates fills
/// all degree slots, so exactly one candidate leaves the row; it never
/// returns within the fold (each source arrives once), so its slot becomes
/// the next source's, with its stale entries cleared. At most degree + 2
/// nodes are live at once, which bounds the table. Every entry is the
/// kernel's value for its ordered pair, and distance_batch gives a point
/// the same bits in any batch, so a reused entry is bitwise the recomputed
/// one and the row bytes match re-scoring every pair on every overflow.
void fold_backlinks(const Dataset& ds, Graph& g, NodeId x,
                    std::span<const std::pair<float, NodeId>> sources,
                    PruneScratch& scratch) {
  auto row = g.mutable_neighbors(x);
  const std::size_t degree = row.size();
  const std::size_t width = degree + 2;
  auto& pair_dists = scratch.pair_dists;
  auto& pair_known = scratch.pair_known;
  auto& row_slots = scratch.row_slots;
  auto& missing_ids = scratch.missing_ids;
  auto& missing_slots = scratch.missing_slots;
  auto& dists = scratch.dists;

  // Score query q against the missing ids and record them in slot row qs.
  const auto fill = [&](NodeId q, std::uint32_t qs) {
    if (missing_ids.empty()) return;
    dists.resize(missing_ids.size());
    ds.distance_batch(ds.base_vector(q), missing_ids, dists);
    scratch.evals += missing_ids.size();
    for (std::size_t j = 0; j < missing_ids.size(); ++j) {
      pair_dists[qs * width + missing_slots[j]] = dists[j];
      pair_known[qs * width + missing_slots[j]] = 1;
    }
  };

  bool slotted = false;  // the table is live once the row first overflows
  std::uint32_t spare = 0;
  for (const auto& [d_vx, v] : sources) {
    bool placed = false;
    for (NodeId& r : row) {
      if (r == v) {
        placed = true;
        break;
      }
      if (r == kInvalidNode) {
        r = v;
        placed = true;
        break;
      }
    }
    if (placed) continue;

    if (!slotted) {
      pair_dists.resize(width * width);
      pair_known.assign(width * width, 0);
      row_slots.resize(degree);
      std::iota(row_slots.begin(), row_slots.end(), 1u);
      spare = static_cast<std::uint32_t>(degree + 1);
      slotted = true;
    } else {
      for (std::size_t s = 0; s < width; ++s) {
        pair_known[spare * width + s] = 0;
        pair_known[s * width + spare] = 0;
      }
    }

    // Candidates: the row at its distances from x, then v at d(v, x).
    missing_ids.clear();
    missing_slots.clear();
    for (std::size_t k = 0; k < degree; ++k) {
      if (!pair_known[row_slots[k]]) {
        missing_ids.push_back(row[k]);
        missing_slots.push_back(row_slots[k]);
      }
    }
    fill(x, 0);
    auto& candidates = scratch.candidates;
    candidates.clear();
    for (std::size_t k = 0; k < degree; ++k) {
      candidates.emplace_back(pair_dists[row_slots[k]], row[k]);
    }
    candidates.emplace_back(d_vx, v);

    // Sort the candidates and their slots together; the ids are distinct,
    // so the order is the plain pair sort's.
    auto& order = scratch.order;
    order.resize(candidates.size());
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                return candidates[a] < candidates[b];
              });
    auto& sorted = scratch.sorted;
    auto& sorted_slots = scratch.sorted_slots;
    sorted.clear();
    sorted_slots.clear();
    for (std::uint32_t o : order) {
      sorted.push_back(candidates[o]);
      sorted_slots.push_back(o < degree ? row_slots[o] : spare);
    }

    select_sorted(sorted, row, scratch, [&](std::size_t i) {
      const auto [d_xu, u] = sorted[i];
      const std::uint32_t us = sorted_slots[i];
      // A known pair that already rules u out spares scoring the rest.
      missing_ids.clear();
      missing_slots.clear();
      for (std::uint32_t p : scratch.picks) {
        const std::uint32_t ks = sorted_slots[p];
        if (!pair_known[us * width + ks]) {
          missing_ids.push_back(sorted[p].second);
          missing_slots.push_back(ks);
        } else if (pair_dists[us * width + ks] < d_xu) {
          return false;
        }
      }
      fill(u, us);
      return std::none_of(dists.begin(),
                          dists.begin() + missing_ids.size(),
                          [d_xu](float d) { return d < d_xu; });
    });

    // picks covers all but one of the candidates 0..degree.
    std::size_t left_out = degree * (degree + 1) / 2;
    for (std::size_t k = 0; k < degree; ++k) {
      left_out -= scratch.picks[k];
      row_slots[k] = sorted_slots[scratch.picks[k]];
    }
    spare = sorted_slots[left_out];
  }
}

}  // namespace algas
