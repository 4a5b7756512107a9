#include "search/multi_cta.hpp"

#include <algorithm>

#include "common/rng.hpp"

namespace algas::search {

std::vector<NodeId> select_entry_points(const Graph& g, std::size_t count,
                                        std::uint64_t seed,
                                        std::size_t query_index) {
  std::vector<NodeId> entries;
  entries.reserve(count);
  const std::size_t n = g.num_nodes();
  if (n == 0) return entries;  // empty graph: nothing to enter
  entries.push_back(g.entry_point());
  std::uint64_t h =
      splitmix64(seed ^ (0x9e37u + query_index * 0x100000001b3ULL));
  while (entries.size() < count && entries.size() < n) {
    h = splitmix64(h);
    const auto candidate = static_cast<NodeId>(h % n);
    if (std::find(entries.begin(), entries.end(), candidate) ==
        entries.end()) {
      entries.push_back(candidate);
    }
  }
  return entries;
}

MultiCtaResult multi_cta_search(const Dataset& ds, const Graph& g,
                                const sim::CostModel& cm,
                                const SearchConfig& cfg, std::size_t num_ctas,
                                std::span<const float> query,
                                std::size_t query_index, std::uint64_t seed) {
  MultiCtaResult res;
  const auto entries = select_entry_points(g, num_ctas, seed, query_index);
  if (entries.empty()) {
    res.run_len = normalize_config(cfg, g.degree()).candidate_len;
    return res;  // empty graph: empty TopK, zero cost
  }

  VisitedTable visited(ds.num_base());
  std::vector<IntraCtaSearch> ctas;
  ctas.reserve(entries.size());
  for (std::size_t t = 0; t < entries.size(); ++t) {
    ctas.emplace_back(ds, g, cm, cfg);
    ctas.back().reset(query, entries[t], &visited);
  }

  // Round-robin stepping approximates the virtual-time interleaving the DES
  // engines produce: all CTAs advance one maintenance round per sweep.
  bool any_active = true;
  while (any_active) {
    any_active = false;
    for (auto& cta : ctas) {
      StepCost cost;
      if (cta.step(cost)) any_active = true;
    }
  }

  const std::size_t run_len = ctas.front().config().candidate_len;
  res.run_len = run_len;
  std::vector<KV> concat;
  concat.reserve(ctas.size() * run_len);
  for (auto& cta : ctas) {
    const auto span = cta.candidates();
    concat.insert(concat.end(), span.begin(), span.end());
    const auto& st = cta.stats();
    res.per_cta_ns.push_back(st.cost.total_ns());
    res.per_cta_total.rounds += st.rounds;
    res.per_cta_total.expanded_points += st.expanded_points;
    res.per_cta_total.scored_points += st.scored_points;
    res.per_cta_total.cost += st.cost;
    res.critical_path_ns =
        std::max(res.critical_path_ns, st.cost.total_ns());
    res.rounds_max = std::max(res.rounds_max, st.rounds);
  }
  res.topk =
      merge_sorted_runs(concat, ctas.size(), run_len, cfg.topk, cfg.accept);
  return res;
}

}  // namespace algas::search
