// ShardedEngine — scatter-gather serving across K simulated devices.
//
// The base set is split into K contiguous id ranges (dataset/partitioner);
// each shard gets its own deterministically built graph and a full
// AlgasEngine wired over a private Simulation. A query is scattered to all
// shards — or, with a fanout limit, to the shards whose coarse-quantizer
// centroids sit closest (the IVF baseline's k-means reused as a router) —
// and every probed shard answers with its local TopK. A host-side gather
// stage maps shard-local result ids to global ids (an offset add, so each
// run stays sorted) and k-way-merges the runs through
// search::merge_sorted_runs, priced as serial host work. This is the
// paper's §IV-C GPU-CPU cooperation scaled out: the host TopK merge now
// spans devices instead of CTAs.
//
// Timing composes on one virtual clock (sim::SimulationGroup): per-shard
// PCIe links clear their own bandwidth and then contend on a shared
// sim::HostBus, and the cross-shard merge runs on a serial host merge
// thread charged CostModel::host_topk_merge_ns per query.
//
// Determinism contract, matching the repo-wide superpower:
//   * K=1 is byte-identical to the unsharded AlgasEngine — no bus, no
//     gather stage, no label suffix, a group of one simulation.
//   * K-shard merged results are byte-identical across host thread counts:
//     per-shard searches are deterministic, the gather is keyed by query
//     and shard (never by completion order), and the merge breaks distance
//     ties by global id (search/topk_merge).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "baselines/ivf.hpp"
#include "core/engine.hpp"
#include "dataset/partitioner.hpp"
#include "graph/builder.hpp"
#include "metrics/collector.hpp"
#include "simgpu/checker.hpp"

namespace algas::core {

struct ShardedConfig {
  /// Per-shard engine configuration (slots, search, sync, cost, ...). For
  /// K > 1 an explicit `base.checker` is replaced by one private checker
  /// per shard: SimCheck::begin_run resets per-run state and a checker's
  /// drain hook is single-slot, so one instance cannot observe K
  /// concurrent runs. The serving view must be immutable — a
  /// tombstone-carrying `base.search.accept` is rejected on the sharded
  /// path. An attribute FILTER is supported: the bitset carries global
  /// ids, and each shard engine receives an offset view
  /// (AcceptPredicate::with_offset) sliced at its contiguous id range.
  AlgasConfig base;
  std::size_t shards = 2;
  /// Shards probed per query: 0 (or >= shards) scatters to all; otherwise
  /// each query goes to the `fanout` shards with the closest router
  /// centroid (min over the shard's centroids, ties by shard id).
  std::size_t fanout = 0;
  /// Per-shard graph construction (deterministic at any thread count).
  GraphKind graph_kind = GraphKind::kNsw;
  BuildConfig build;
  /// Coarse-quantizer size per shard for the fanout router (only built
  /// when 1 <= fanout < shards).
  std::size_t router_centroids = 8;
  /// Divide `base.search.candidate_len` by the shard count (floored at
  /// topk; the engine re-clamps to a power of two >= the graph degree).
  /// This is where the scale-out throughput comes from: each shard holds
  /// 1/K of the base set, so a candidate list ~1/K as long preserves the
  /// quality of the merged union while cutting per-shard search work
  /// ~K-fold. K = 1 leaves the length untouched, preserving the
  /// byte-identity guarantee. Disable to probe each shard at the full
  /// unsharded depth (higher recall headroom, flat throughput).
  bool scale_candidate_len = true;
};

struct ShardedReport {
  /// Headline aggregated report. `collector` holds the final merged
  /// per-query records (global ids; `slot` reused as the number of shard
  /// runs merged); PCIe/host/sim counters are summed across shards plus
  /// the gather simulation; gpu_utilization is total CTA busy time over
  /// (total CTAs x merged span).
  EngineReport merged;
  /// Per-shard engine reports. Their collectors are empty for K > 1 (the
  /// gather stage owns completion); use `shard_records` for per-shard
  /// per-query data.
  std::vector<EngineReport> shards;
  /// Every shard's per-query records (global ids, per-shard timings),
  /// combined exactly via metrics::Collector::merge.
  metrics::Collector shard_records;
  // Shared host-bus contention (zero for K == 1: no bus is attached).
  std::uint64_t bus_transactions = 0;
  std::uint64_t bus_bytes = 0;
  double bus_utilization = 0.0;  ///< busy fraction of the merged span
  // Serial host merge thread (zero for K == 1: nothing to merge).
  double merge_busy_ns = 0.0;
  std::size_t merges = 0;
  double mean_fanout = 0.0;  ///< mean shards probed per query
};

class ShardedEngine {
 public:
  /// Partitions `ds`, slices per-shard datasets, builds per-shard graphs
  /// (cfg.build) and engines, and — when fanout is selective — per-shard
  /// coarse quantizers. Throws std::invalid_argument on an impossible
  /// partition, a tombstoned config, or when the tuner rejects a shard.
  ShardedEngine(const Dataset& ds, ShardedConfig cfg);

  const ShardedConfig& config() const { return cfg_; }
  const ShardPartition& partition() const { return part_; }
  const Dataset& shard_dataset(std::size_t s) const { return shard_ds_[s]; }
  const Graph& shard_graph(std::size_t s) const { return graphs_[s]; }
  const AlgasEngine& shard_engine(std::size_t s) const {
    return *engines_[s];
  }

  /// Shards query `query_index` will probe, ascending. Full scatter unless
  /// a selective fanout is configured; deterministic (centroid distances
  /// tie-break by shard id). Under an attribute filter the router falls
  /// back to full fanout when every selected shard is filter-empty —
  /// centroid affinity says nothing about where the accepted rows live,
  /// and probing only filter-empty shards would return nothing while
  /// accepted candidates exist elsewhere.
  std::vector<std::size_t> route(std::size_t query_index) const;

  ShardedReport run_closed_loop(std::size_t num_queries);

  /// Open loop with explicit arrival times (nondecreasing). Query indices
  /// must be unique — the gather is keyed by query index.
  ShardedReport run(const std::vector<PendingQuery>& arrivals);

 private:
  const Dataset& ds_;
  ShardedConfig cfg_;
  ShardPartition part_;
  std::vector<Dataset> shard_ds_;
  std::vector<Graph> graphs_;
  std::vector<std::unique_ptr<AlgasEngine>> engines_;
  /// Private per-shard checkers replacing an explicit base.checker (K > 1).
  std::vector<std::unique_ptr<sim::SimCheck>> shard_checks_;
  /// Per-shard routers; empty unless fanout is selective.
  std::vector<baselines::IvfIndex> routers_;
  bool selective_ = false;
  /// Accepted-row count per shard under base.search.accept; empty when the
  /// predicate is null. Backs the filter-empty fanout fallback in route().
  std::vector<std::size_t> shard_accepted_;
};

}  // namespace algas::core
