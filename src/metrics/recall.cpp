#include "metrics/recall.hpp"

#include <algorithm>
#include <stdexcept>

namespace algas::metrics {

namespace {

double recall_impl(const Dataset& ds, std::size_t query_index,
                   const std::vector<NodeId>& ids, std::size_t k) {
  if (!ds.has_ground_truth()) {
    throw std::logic_error("dataset has no ground truth attached");
  }
  if (k > ds.gt_k()) {
    throw std::invalid_argument("recall depth exceeds cached ground truth");
  }
  const auto truth = ds.ground_truth(query_index).subspan(0, k);
  std::size_t hits = 0;
  for (NodeId id : ids) {
    if (std::find(truth.begin(), truth.end(), id) != truth.end()) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

}  // namespace

double recall_at_k(const Dataset& ds, std::size_t query_index,
                   std::span<const KV> results, std::size_t k) {
  std::vector<NodeId> ids;
  ids.reserve(std::min(results.size(), k));
  for (const KV& kv : results) {
    if (kv.is_empty() || ids.size() == k) break;
    ids.push_back(kv.id());
  }
  return recall_impl(ds, query_index, ids, k);
}

double recall_at_k_ids(const Dataset& ds, std::size_t query_index,
                       std::span<const NodeId> results, std::size_t k) {
  std::vector<NodeId> ids(results.begin(),
                          results.begin() +
                              static_cast<std::ptrdiff_t>(
                                  std::min(results.size(), k)));
  return recall_impl(ds, query_index, ids, k);
}

double recall_against(std::span<const NodeId> truth,
                      std::span<const KV> results, std::size_t k) {
  if (truth.size() > k) truth = truth.subspan(0, k);
  std::size_t denom = 0;
  for (const NodeId t : truth) {
    if (t != kInvalidNode) ++denom;
  }
  if (denom == 0) return 1.0;
  std::size_t hits = 0;
  std::size_t taken = 0;
  for (const KV& kv : results) {
    if (kv.is_empty() || taken == k) break;
    ++taken;
    if (std::find(truth.begin(), truth.end(), kv.id()) != truth.end()) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(denom);
}

double mean_recall(const Dataset& ds,
                   const std::vector<std::vector<KV>>& results,
                   std::size_t k) {
  if (results.empty()) return 0.0;
  double total = 0.0;
  for (std::size_t q = 0; q < results.size(); ++q) {
    total += recall_at_k(ds, q, results[q], k);
  }
  return total / static_cast<double>(results.size());
}

double mean_served_recall(const Dataset& ds, const Collector& records,
                          std::size_t k) {
  if (!ds.has_ground_truth()) return 0.0;
  double total = 0.0;
  std::size_t served = 0;
  for (const auto& r : records.records()) {
    if (!r.served()) continue;
    ++served;
    total += recall_at_k(ds, r.query_index, r.results, k);
  }
  return served == 0 ? 0.0 : total / static_cast<double>(served);
}

}  // namespace algas::metrics
