#include "graph/nsw_builder.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
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
        // The (dist, id) keys are unique, so the kept prefix is the one a
        // full sort would give.
        const std::size_t keep = std::min(v, cfg.ef_construction);
        std::partial_sort(list.begin(), list.begin() + keep, list.end());
        list.resize(keep);
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
                       BuildExecutor& exec, std::size_t begin,
                       InsertCandidates& found,
                       const std::vector<std::size_t>& scored,
                       InsertCost& cost) {
  const std::size_t count = found.size();
  const std::size_t degree = g.degree();

  // (a) Select: row v rewrites only itself from found[v], which the frozen
  // prefix (or, in the bootstrap batch, rows [0, v)) produced, so the rows
  // are independent. Each keeps its ids and their distances to v in its
  // `degree` slots for (b), and frees its consumed beam so (b)'s arrays do
  // not raise the batch's peak memory.
  std::vector<NodeId> kept_ids(count * degree, kInvalidNode);
  std::vector<float> kept_dists(count * degree);
  std::atomic<std::size_t> evals{0};
  exec.parallel_for(count, [&](std::size_t lo, std::size_t hi) {
    PruneScratch scratch;
    for (std::size_t i = lo; i < hi; ++i) {
      auto& candidates = found[i];
      if (candidates.empty()) continue;  // bootstrap row 0
      const auto v = static_cast<NodeId>(begin + i);
      select_neighbors(ds, g, v, candidates, scratch);
      std::vector<std::pair<float, NodeId>>().swap(candidates);
      NodeId* ids = kept_ids.data() + i * degree;
      std::size_t kept = 0;
      for (NodeId u : g.neighbors(v)) {
        if (u != kInvalidNode) ids[kept++] = u;
      }
      ds.distance_batch(ds.base_vector(v), {ids, kept},
                        {kept_dists.data() + i * degree, kept});
      scratch.evals += kept;
    }
    evals.fetch_add(scratch.evals, std::memory_order_relaxed);
  });

  // (b) Fold: the serial loop linked each target x to its sources v in
  // ascending v, touching row x alone, so each target row is its own fold
  // over its backlinks in ascending v. A backlink into a batch row x
  // (bootstrap only) comes from some v > x, so select(x) in (a) precedes
  // it, as it did serially. `order` lists the filled slots by (target,
  // slot); a row holds no duplicate ids, so slot order is source order and
  // the sort is fully determined. (A comparison sort scales with the
  // batch's backlinks; a counting sort over target ids would cost the
  // whole graph's size per batch, quadratic at insert_batch = 1.)
  std::vector<std::uint32_t> order;
  order.reserve(kept_ids.size());
  for (std::size_t s = 0; s < kept_ids.size(); ++s) {
    if (kept_ids[s] != kInvalidNode) {
      order.push_back(static_cast<std::uint32_t>(s));
    }
  }
  const auto by_target = [&](std::uint32_t a, std::uint32_t b) {
    return kept_ids[a] != kept_ids[b] ? kept_ids[a] < kept_ids[b] : a < b;
  };
  std::sort(order.begin(), order.end(), by_target);
  std::vector<std::uint32_t> group_starts;  // first entry of each target
  for (std::size_t e = 0; e < order.size(); ++e) {
    if (e == 0 || kept_ids[order[e]] != kept_ids[order[e - 1]]) {
      group_starts.push_back(static_cast<std::uint32_t>(e));
    }
  }
  group_starts.push_back(static_cast<std::uint32_t>(order.size()));
  const std::size_t targets = group_starts.size() - 1;
  exec.parallel_for(targets, [&](std::size_t lo, std::size_t hi) {
    PruneScratch scratch;
    std::vector<std::pair<float, NodeId>> sources;
    for (std::size_t t = lo; t < hi; ++t) {
      sources.clear();
      for (std::size_t e = group_starts[t]; e < group_starts[t + 1]; ++e) {
        const std::uint32_t s = order[e];
        sources.emplace_back(kept_dists[s],
                             static_cast<NodeId>(begin + s / degree));
      }
      fold_backlinks(ds, g, kept_ids[order[group_starts[t]]], sources,
                     scratch);
    }
    evals.fetch_add(scratch.evals, std::memory_order_relaxed);
  });
  cost.link_evals += evals.load(std::memory_order_relaxed);

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
    link_insert_batch(ds, g, cfg, exec, begin, found, scored, cost);
  }
  out.batches = cost.batches;
  out.scored_points = cost.scored_points;
  out.link_evals = cost.link_evals;
  out.virtual_build_ns = cost.virtual_build_ns;
  out.serial_build_ns = cost.serial_build_ns +
                        cfg.cost.kernel_launch_ns *
                            static_cast<double>(cost.batches);

  g.set_entry_point(approximate_medoid(ds, exec));
  return out;
}

}  // namespace algas
