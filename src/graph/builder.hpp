// Graph builder front-end: the two index types the paper evaluates
// (NSW-GANNS and CAGRA), a shared build-time beam search, disk caching,
// and the unified BuildReport every builder returns.
//
// Construction is deterministic and thread-count invariant: a graph built
// with threads=8 is byte-identical to threads=1 (see DESIGN.md
// "Deterministic parallel construction"), so the disk cache key carries no
// thread count and artifacts are interchangeable across machines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "dataset/dataset.hpp"
#include "graph/graph.hpp"
#include "simgpu/cost_model.hpp"
#include "simgpu/device_props.hpp"

namespace algas {

class BuildExecutor;  // common/thread_pool.hpp

enum class GraphKind : std::uint8_t {
  kNsw = 0,    ///< GANNS-style navigable small world (batch-inserted)
  kCagra,      ///< CAGRA-style fixed out-degree optimized kNN graph
};

std::string graph_kind_name(GraphKind k);

/// One config for every builder. Absorbs the former GpuBuildConfig: the
/// batch structure (`insert_batch`) is both the GPU construction kernel's
/// dispatch unit and the host-side parallel unit (`threads`).
struct BuildConfig {
  std::size_t degree = 32;           ///< fixed out-degree of the result
  std::size_t ef_construction = 64;  ///< build-time beam width
  std::uint64_t seed = 7;
  /// Host worker threads for construction. 0 defers to ALGAS_BUILD_THREADS
  /// (which itself defaults to hardware concurrency); 1 runs serially.
  /// Never affects the resulting graph, only the wall time.
  std::size_t threads = 0;
  /// NSW insertions dispatched per construction batch: each batch's beam
  /// searches run against the frozen prefix, then its rows select their
  /// neighbors and each backlink target folds its links in insertion-id
  /// order (all three steps parallel, equal to linking row by row). Part
  /// of the graph's identity (and its cache key); 1 degenerates to classic
  /// one-at-a-time insertion.
  std::size_t insert_batch = 1024;
  /// Virtual-time model of the batched construction kernel (reporting
  /// only — never affects the graph bytes).
  sim::DeviceProps device = sim::DeviceProps::rtx_a6000();
  sim::CostModel cost;
};

/// What every build returns: the graph plus how much it cost. Wall time is
/// real host time; virtual/serial ns are the cost model's batched-kernel
/// and one-CTA schedules (the GANNS construction-speedup claim, in-model).
struct BuildReport {
  Graph graph;
  double wall_build_s = 0.0;       ///< host wall-clock, load or build
  double virtual_build_ns = 0.0;   ///< wave-scheduled batched construction
  double serial_build_ns = 0.0;    ///< same work on one CTA (the baseline)
  std::size_t batches = 0;
  std::size_t scored_points = 0;   ///< beam-search distance evals, total
  /// Host distance evals of NSW phase 2 (select, link, backlink folds);
  /// CAGRA reports its NSW scaffold's. Never feeds the modeled times.
  std::size_t link_evals = 0;
  bool cache_hit = false;          ///< load_or_build_graph found an artifact

  double speedup() const {
    return virtual_build_ns > 0.0 ? serial_build_ns / virtual_build_ns : 0.0;
  }
};

/// Build the requested index over `ds`.
BuildReport build_graph(GraphKind kind, const Dataset& ds,
                        const BuildConfig& cfg);

/// Build or load from ALGAS_CACHE_DIR keyed by dataset identity + config
/// (never by thread count — builds are thread-invariant). On a cache hit
/// the report carries the loaded graph, cache_hit=true, and only wall
/// time.
BuildReport load_or_build_graph(GraphKind kind, const Dataset& ds,
                                const BuildConfig& cfg);

/// Sequential best-first beam search over a (partial) graph — the build-time
/// workhorse shared by both builders. Returns up to `ef` (distance, id)
/// pairs ascending by distance. `limit` restricts the search to node ids
/// < limit (used during incremental NSW construction). When `scored_out` is
/// non-null it receives the number of distance evaluations performed (used
/// by the GPU-construction cost model). Pure on the graph: safe to run
/// concurrently against a frozen prefix.
std::vector<std::pair<float, NodeId>> build_beam_search(
    const Dataset& ds, const Graph& g, std::span<const float> query,
    std::size_t ef, NodeId entry, std::size_t limit,
    std::size_t* scored_out = nullptr);

/// Node whose vector is closest to the dataset centroid — used as the
/// search entry point by both builders. The overload taking an executor
/// parallelizes the base scan; both return the identical node (ties break
/// to the lowest id regardless of chunking).
NodeId approximate_medoid(const Dataset& ds);
NodeId approximate_medoid(const Dataset& ds, BuildExecutor& exec);
/// Medoid of the prefix [0, limit) only — streaming publishes entry points
/// over the linked prefix while later rows are still staged. limit >=
/// num_base() scans the whole set (identical to the overloads above).
NodeId approximate_medoid(const Dataset& ds, BuildExecutor& exec,
                          std::size_t limit);

}  // namespace algas
