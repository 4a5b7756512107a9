// ServingEngine — the open-loop serving layer over ALGAS.
//
// Wraps ShardedEngine (K = 1 is the byte-identical single-device
// degenerate) with a generated workload: a deterministic arrival process
// (sim::ArrivalProcess), a relative per-query deadline, and a seeded
// priority mix. The wrapped engine supplies the mechanism — bounded
// admission (AlgasConfig::admission), queue-head deadline shedding, and
// Expired-slot eviction — and this layer supplies the workload and the
// serving-facing report: goodput, shed rate, deadline-miss rate, tail
// latency percentiles.
//
// Determinism contract: the workload (arrival instants, deadlines,
// priorities) is a pure function of (ServingConfig, dataset query count) —
// CI checksums it byte-for-byte across hosts. The engine's results for a
// workload that serves every query are byte-identical across host thread
// counts (the repo-wide guarantee); which queries get shed under overload
// depends on virtual timing and therefore on host_threads, so overload
// points are gated on goodput floors at a pinned configuration instead.
#pragma once

#include <cstddef>
#include <vector>

#include "core/sharded_engine.hpp"
#include "simgpu/arrival.hpp"

namespace algas::core {

struct ServingConfig {
  /// Engine under load: per-shard AlgasConfig (admission control lives in
  /// sharded.base.admission), shard count, fanout, graph construction.
  ShardedConfig sharded;
  sim::ArrivalConfig arrival;
  /// Relative deadline per query, microseconds after its arrival; <= 0
  /// disables deadlines (infinite).
  double deadline_us = 0.0;
  /// Fraction of queries tagged with the highest admission priority class
  /// (kPriorityClasses - 1); the rest ride class 0.
  double high_priority_fraction = 0.0;
  /// Seed for the priority mix (independent of the arrival seed).
  std::uint64_t mix_seed = 7;
  /// Queries to serve; 0 (or more than available) = every dataset query.
  std::size_t num_queries = 0;
};

struct ServingReport {
  ShardedReport sharded;
  /// The exact workload that ran (arrival/deadline/priority per query) —
  /// what the serving gate checksums.
  std::vector<PendingQuery> arrivals;
  /// Offered load: arrivals per second of the workload's arrival span.
  /// Goodput, shed rate, deadline-miss rate and tail latency are in
  /// sharded.merged.summary.
  double offered_qps = 0.0;
};

class ServingEngine {
 public:
  /// Builds the wrapped ShardedEngine (graphs, routers, tuner) once; run()
  /// can then sweep workloads against it. Throws on an invalid engine or
  /// arrival configuration.
  ServingEngine(const Dataset& ds, ServingConfig cfg);

  const ServingConfig& config() const { return cfg_; }
  const ShardedEngine& sharded() const { return sharded_; }

  /// The deterministic workload run() would execute: query indices 0..n-1
  /// with ArrivalProcess arrival instants, absolute deadlines, and the
  /// seeded priority mix.
  std::vector<PendingQuery> plan_workload() const {
    return plan_workload(cfg_.arrival, cfg_.deadline_us);
  }
  /// Same, for an overridden workload shape (load sweeps reuse one built
  /// engine across arrival configs; mix/num_queries still follow cfg).
  std::vector<PendingQuery> plan_workload(const sim::ArrivalConfig& arrival,
                                          double deadline_us) const;

  ServingReport run() { return run(cfg_.arrival, cfg_.deadline_us); }
  ServingReport run(const sim::ArrivalConfig& arrival, double deadline_us);

 private:
  ServingConfig cfg_;
  const Dataset& ds_;
  ShardedEngine sharded_;
};

}  // namespace algas::core
