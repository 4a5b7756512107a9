// Recall@k: |K_approximate ∩ K_truth| / |K_truth| (§II-A).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "dataset/dataset.hpp"
#include "metrics/collector.hpp"
#include "search/kv.hpp"

namespace algas::metrics {

/// Recall of one result list against the dataset's ground truth for query q.
double recall_at_k(const Dataset& ds, std::size_t query_index,
                   std::span<const KV> results, std::size_t k);

/// Same over plain ids.
double recall_at_k_ids(const Dataset& ds, std::size_t query_index,
                       std::span<const NodeId> results, std::size_t k);

/// Mean recall over per-query result lists (results[q] is query q's list).
double mean_recall(const Dataset& ds,
                   const std::vector<std::vector<KV>>& results,
                   std::size_t k);

/// Mean recall@k over the collector's SERVED records. Recall is a statement
/// about delivered answers: a shed or evicted query returned nothing and
/// shows up in shed rate / goodput instead of dragging recall to zero.
/// 0 when the dataset has no ground truth or nothing was served.
double mean_served_recall(const Dataset& ds, const Collector& records,
                          std::size_t k);

/// Recall against an explicit truth row (e.g. one row of
/// compute_filtered_ground_truth) instead of the dataset's attached ground
/// truth. kInvalidNode padding in `truth` is ignored: when the predicate
/// accepts fewer than k rows, the denominator is the accepted count, so a
/// search that returns every acceptable row scores 1.0. An all-padding
/// truth row scores 1.0 (nothing to find).
double recall_against(std::span<const NodeId> truth,
                      std::span<const KV> results, std::size_t k);

}  // namespace algas::metrics
