#include "search/intra_cta.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace algas::search {

IntraCtaSearch::IntraCtaSearch(const Dataset& ds, const Graph& g,
                               const sim::CostModel& cm,
                               const SearchConfig& cfg)
    : ds_(ds),
      g_(g),
      cm_(cm),
      cfg_(normalize_config(cfg, g.degree())),
      list_(cfg_.candidate_len),
      selected_(cfg_.beam_width) {
  if (ds.num_base() > KV::kMaxNodeId) {
    throw std::invalid_argument("dataset too large for packed KV ids");
  }
  expand_.reserve(cfg_.candidate_len);
  const std::size_t round_cap = cfg_.beam_width * g.degree();
  gathered_.reserve(round_cap);
  round_dists_.reserve(round_cap);
}

void IntraCtaSearch::reset(std::span<const float> query, NodeId entry,
                           VisitedTable* visited) {
  assert(visited != nullptr && visited->size() == ds_.num_base());
  query_ = query;
  visited_ = visited;
  list_.reset();
  done_ = false;
  diffusing_ = false;
  stats_ = SearchStats{};
  pending_ns_ = 0.0;

  // Degenerate serving views (empty graph, no published entry yet) hand an
  // invalid entry here; terminate with an empty list instead of scoring an
  // out-of-range row.
  if (entry == kInvalidNode ||
      static_cast<std::size_t>(entry) >= g_.num_nodes()) {
    done_ = true;
    return;
  }

  // Score and seed the entry point. If another CTA of the same slot already
  // claimed it, start from an empty list: the first gather would find it
  // visited anyway and this CTA ends immediately — matching the kernel,
  // where entry collisions make a CTA redundant.
  if (!visited_->test_and_set(entry)) {
    const float d = ds_.score(query_, entry);
    list_.seed(KV::make(d, entry));
    pending_ns_ = cm_.distance_round_ns(ds_.dim(), 1, 32, ds_.elem_bytes()) +
                  cm_.bitmap_check_ns;
    ++stats_.scored_points;
  } else {
    done_ = true;
  }
}

bool IntraCtaSearch::step(StepCost& cost) {
  if (done_) return false;
  StepCost c;
  c.compute_ns += pending_ns_;
  pending_ns_ = 0.0;

  // --- 1. select candidate(s) to expand --------------------------------
  const std::size_t want = diffusing_ ? cfg_.beam_width : 1;
  c.select_ns += cm_.select_ns(cfg_.candidate_len);
  const std::size_t first = list_.first_unchecked();
  if (first == CandidateList::npos) {
    done_ = true;
    stats_.cost += c;
    cost = c;
    return true;  // this round performed the (empty) final scan
  }
  if (!diffusing_ && first >= cfg_.offset_beam && cfg_.beam_width > 1) {
    diffusing_ = true;  // §IV-C: selected offset reached offset_beam
  }
  const std::size_t take = diffusing_ ? want : 1;
  const std::size_t got = list_.take_unchecked(take, selected_);
  assert(got >= 1);

  // --- 2+3. gather neighbors + filter via bitmap, then one batched
  // distance round over the surviving ids — the same gather/score split the
  // kernel's coalesced round performs (§IV-B step 3). Claiming via
  // test_and_set during the gather keeps the id order (and therefore every
  // float result) identical to the seed's fused loop.
  gathered_.clear();
  for (std::size_t s = 0; s < got; ++s) {
    const KV& sel = list_.at(selected_[s]);
    if (trace_) stats_.step_distances.push_back(sel.dist);
    ++stats_.expanded_points;
    for (NodeId nb : g_.neighbors(sel.id())) {
      if (nb == kInvalidNode) continue;
      c.gather_ns += cm_.gather_per_neighbor_ns;
      c.gather_ns += cm_.bitmap_check_ns;
      if (visited_->test_and_set(nb)) continue;  // another CTA owns it
      gathered_.push_back(nb);
    }
  }
  round_dists_.resize(gathered_.size());
  ds_.distance_batch(query_, gathered_, round_dists_);
  expand_.clear();
  for (std::size_t k = 0; k < gathered_.size(); ++k) {
    expand_.push_back(KV::make(round_dists_[k], gathered_[k]));
  }
  stats_.scored_points += gathered_.size();
  c.compute_ns +=
      cm_.distance_round_ns(ds_.dim(), expand_.size(), 32, ds_.elem_bytes());

  // --- 4. one bitonic sort + merge for the whole round -------------------
  if (!expand_.empty()) {
    // All ids in expand_ are distinct (the visited bitmap filtered the
    // gather), so std::sort produces the exact array the kernel's bitonic
    // network would; the modeled cost below still charges the padded
    // network the kernel runs.
    const std::size_t padded = next_pow2(expand_.size());
    std::sort(expand_.begin(), expand_.end());
    const std::size_t network = list_.merge_sorted(expand_);
    if (cfg_.full_sort_maintenance) {
      // GANNS-style: full re-sort of the merged buffer every round.
      c.sort_ns += cm_.bitonic_sort_ns(network);
    } else {
      c.sort_ns += cm_.bitonic_sort_ns(padded);
      c.sort_ns += cm_.bitonic_merge_ns(network);
    }
  }

  ++stats_.rounds;
  stats_.cost += c;
  cost = c;
  return true;
}

std::vector<KV> IntraCtaSearch::results() const {
  if (cfg_.accept.null()) return list_.topk(cfg_.topk);
  // Same walk as CandidateList::topk (entries ascending, empties at the
  // tail terminate), with predicate-rejected ids skipped at the accept
  // step.
  std::vector<KV> out;
  out.reserve(std::min(cfg_.topk, list_.capacity()));
  for (const KV& e : list_.entries()) {
    if (e.is_empty() || out.size() == cfg_.topk) break;
    if (!cfg_.accept.accepts(e.id())) continue;
    out.push_back(e);
  }
  return out;
}

sim::SharedMemoryLayout IntraCtaSearch::shared_memory_layout() const {
  sim::SharedMemoryLayout layout;
  layout.candidate_entries = cfg_.candidate_len;
  layout.expand_entries = next_pow2(cfg_.beam_width * g_.degree());
  layout.dim = ds_.dim();
  layout.elem_bytes = ds_.elem_bytes();
  return layout;
}

}  // namespace algas::search
