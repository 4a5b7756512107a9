// Shared fixtures: tiny deterministic datasets + graphs that keep unit
// tests fast while exercising real search behaviour.
#pragma once

#include <cstdint>
#include <memory>

#include "dataset/dataset.hpp"
#include "dataset/ground_truth.hpp"
#include "dataset/synthetic.hpp"
#include "graph/builder.hpp"

namespace algas::testing {

struct TinyWorld {
  Dataset ds;
  Graph nsw;
  Graph cagra;
};

/// ~2000 points, 16 dims, 200 queries, gt@32 — built once per process.
inline const TinyWorld& tiny_world(Metric metric = Metric::kL2) {
  static auto make = [](Metric m) {
    auto world = std::make_unique<TinyWorld>();
    SyntheticSpec spec;
    spec.name = m == Metric::kL2 ? "tiny-l2" : "tiny-cos";
    spec.num_base = 2000;
    spec.num_queries = 200;
    spec.dim = 16;
    spec.metric = m;
    spec.clusters = 24;
    spec.spread = 0.16;
    spec.seed = 1234;
    world->ds = make_synthetic(spec);
    compute_ground_truth(world->ds, 32);
    BuildConfig cfg;
    cfg.degree = 16;
    cfg.ef_construction = 48;
    world->nsw = build_graph(GraphKind::kNsw, world->ds, cfg).graph;
    world->cagra = build_graph(GraphKind::kCagra, world->ds, cfg).graph;
    return world;
  };
  static std::unique_ptr<TinyWorld> l2 = make(Metric::kL2);
  static std::unique_ptr<TinyWorld> cos = make(Metric::kCosine);
  return metric == Metric::kL2 ? *l2 : *cos;
}

/// FNV-1a 64 over a graph's adjacency (each id as 4 little-endian bytes)
/// followed by its entry point — the fingerprint the cross-version golden
/// pins compare against.
inline std::uint64_t graph_fnv1a(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](NodeId id) {
    for (int b = 0; b < 4; ++b) {
      h ^= (static_cast<std::uint64_t>(id) >> (8 * b)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (NodeId id : g.adjacency()) mix(id);
  mix(g.entry_point());
  return h;
}

}  // namespace algas::testing
