#include "graph/nsw_builder.hpp"

#include <algorithm>
#include <utility>
#include <vector>

#include "common/thread_pool.hpp"
#include "graph/gpu_construction.hpp"
#include "graph/neighbor_selection.hpp"
#include "simgpu/wave_schedule.hpp"

namespace algas {

void search_insert_batch(const Dataset& ds, const Graph& g,
                         const BuildConfig& cfg, BuildExecutor& exec,
                         std::size_t begin, InsertCandidates& found,
                         std::vector<std::size_t>& scored) {
  const std::size_t count = found.size();
  // Each insertion writes only its own found/scored slot, so the phase is
  // embarrassingly parallel and its results are independent of the
  // chunking (the byte-identity guarantee).
  if (begin == 0) {
    // Bootstrap batch: no prefix graph exists; points score each other
    // exhaustively (the GPU does this as a brute-force tile kernel — here
    // one batched range scan per inserted point).
    if (count < 2) return;
    exec.parallel_for(count - 1, [&](std::size_t lo, std::size_t hi) {
      std::vector<float> tile;
      for (std::size_t v = lo + 1; v < hi + 1; ++v) {
        auto& list = found[v];
        tile.resize(v);
        ds.distance_batch_range(ds.base_vector(v), 0, v, tile);
        list.reserve(v);
        for (std::size_t u = 0; u < v; ++u) {
          list.emplace_back(tile[u], static_cast<NodeId>(u));
        }
        std::sort(list.begin(), list.end());
        if (list.size() > cfg.ef_construction) {
          list.resize(cfg.ef_construction);
        }
        scored[v] = v;
      }
    });
    return;
  }
  const std::size_t m = std::min(cfg.degree, ds.num_base() - 1);
  const std::size_t ef = std::max(cfg.ef_construction, m);
  exec.parallel_for(count, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      found[i] = build_beam_search(ds, g, ds.base_vector(begin + i), ef, 0,
                                   begin, &scored[i]);
    }
  });
}

void link_insert_batch(const Dataset& ds, Graph& g, const BuildConfig& cfg,
                       std::size_t begin, InsertCandidates& found,
                       const std::vector<std::size_t>& scored,
                       InsertCost& cost) {
  const std::size_t end = begin + found.size();
  // select_neighbors rewrites v's own row from its beam; link() backlinks
  // into earlier rows. Serial application makes every row a deterministic
  // fold over the batch.
  std::vector<NodeId> row_ids;
  std::vector<float> row_dists;
  for (std::size_t v = std::max<std::size_t>(begin, 1); v < end; ++v) {
    auto& candidates = found[v - begin];
    if (candidates.empty()) continue;
    select_neighbors(ds, g, static_cast<NodeId>(v), candidates);
    row_ids.clear();
    for (NodeId u : g.neighbors(static_cast<NodeId>(v))) {
      if (u != kInvalidNode) row_ids.push_back(u);
    }
    row_dists.resize(row_ids.size());
    ds.distance_batch(ds.base_vector(v), row_ids, row_dists);
    for (std::size_t i = 0; i < row_ids.size(); ++i) {
      link(ds, g, row_ids[i], static_cast<NodeId>(v), row_dists[i]);
    }
  }

  // Cost accounting in insertion-id order, so the modeled times match the
  // serial schedule exactly: one CTA per insertion, each holding an
  // ef_construction-sized candidate list, wave-scheduled at the device's
  // full-speed capacity.
  std::vector<sim::CtaTask> tasks;
  tasks.reserve(found.size());
  for (std::size_t i = begin == 0 ? 1 : 0; i < found.size(); ++i) {
    const double d = construction_insert_cost_ns(cfg, ds.dim(), scored[i]);
    cost.scored_points += scored[i];
    cost.serial_build_ns += d;
    tasks.push_back({tasks.size(), d});
  }
  sim::SharedMemoryLayout layout;
  layout.candidate_entries = next_pow2(cfg.ef_construction);
  layout.expand_entries = next_pow2(cfg.degree);
  layout.dim = ds.dim();
  const std::size_t capacity = std::max<std::size_t>(
      1, sim::device_capacity(cfg.device, layout, 1024));
  const std::vector<double> no_merge(tasks.size(), 0.0);
  cost.virtual_build_ns +=
      cfg.cost.kernel_launch_ns +
      sim::wave_schedule(tasks, tasks.size(), capacity, no_merge).gpu_end_ns;
  ++cost.batches;
}

BuildReport build_nsw(const Dataset& ds, const BuildConfig& cfg) {
  const std::size_t n = ds.num_base();
  BuildReport out;
  out.graph = Graph(n, cfg.degree);
  Graph& g = out.graph;
  if (n == 0) return out;
  if (n == 1) {
    g.set_entry_point(0);
    return out;
  }

  BuildExecutor exec(cfg.threads);
  const std::size_t batch = std::max<std::size_t>(1, cfg.insert_batch);

  // Warm the lazily-built dataset caches before forking: the norm table
  // (cosine) and the encoded store (quantized codecs) are not thread-safe
  // on first touch.
  if (ds.metric() == Metric::kCosine) ds.base_norms();
  if (ds.storage() != StorageCodec::kF32) ds.vector_store();

  InsertCandidates found;
  std::vector<std::size_t> scored;
  InsertCost cost;
  for (std::size_t begin = 0; begin < n; begin += batch) {
    const std::size_t end = std::min(begin + batch, n);
    found.assign(end - begin, {});
    scored.assign(end - begin, 0);
    search_insert_batch(ds, g, cfg, exec, begin, found, scored);
    link_insert_batch(ds, g, cfg, begin, found, scored, cost);
  }
  out.batches = cost.batches;
  out.scored_points = cost.scored_points;
  out.virtual_build_ns = cost.virtual_build_ns;
  out.serial_build_ns = cost.serial_build_ns +
                        cfg.cost.kernel_launch_ns *
                            static_cast<double>(cost.batches);

  g.set_entry_point(approximate_medoid(ds, exec));
  return out;
}

}  // namespace algas
