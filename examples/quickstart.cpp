// Quickstart: build a dataset, index it, start the ALGAS engine, run a
// small batch of queries, and print results + recall.
//
//   ./examples/quickstart
//
// Uses a small synthetic corpus so it finishes in seconds (ctest runs it as
// the example.quickstart smoke test). The same five calls work on any
// Dataset (including ones loaded from fvecs files).
#include <cstdio>

#include "core/engine.hpp"
#include "dataset/ground_truth.hpp"
#include "dataset/synthetic.hpp"
#include "graph/builder.hpp"

using namespace algas;

int main() {
  // 1. Data: 5k SIFT-like vectors + 64 queries (swap in read_fvecs() for
  //    real data).
  SyntheticSpec spec = sift_like_spec();
  spec.num_base = 5000;
  spec.num_queries = 64;
  Dataset ds = make_synthetic(spec);
  compute_ground_truth(ds, 16);  // optional: only needed to report recall
  std::printf("dataset: %s\n", ds.describe().c_str());

  // 2. Index: a CAGRA-style fixed out-degree graph. build_graph returns a
  //    BuildReport: the graph plus what construction cost (host wall time,
  //    the cost model's batched-vs-serial virtual times, distance evals).
  BuildConfig build;
  build.degree = 32;
  build.ef_construction = 64;
  build.threads = 0;  // 0 = ALGAS_BUILD_THREADS, then hardware concurrency
  const BuildReport built = build_graph(GraphKind::kCagra, ds, build);
  const Graph& graph = built.graph;
  const auto stats = graph.stats();
  std::printf("graph: avg degree %.1f, %.1f%% reachable\n", stats.avg_degree,
              100.0 * stats.reachable_fraction);
  std::printf(
      "build: %.2fs wall | %.1fms virtual (batched) | modeled speedup %.0fx "
      "| %zu distance evals\n",
      built.wall_build_s, built.virtual_build_ns / 1e6, built.speedup(),
      built.scored_points);

  // 3. Engine: 16 dynamic-batching slots, beam extend on, adaptive tuning.
  core::AlgasConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 128;
  cfg.slots = 16;
  core::AlgasEngine engine(ds, graph, cfg);
  std::printf("tuner: %s\n", engine.plan().describe().c_str());

  // 4. Search all 64 queries (closed loop).
  const auto report = engine.run_closed_loop(64);

  // 5. Results.
  std::printf("\nquery 0 top-10:\n");
  for (const auto& kv : report.collector.records().front().results) {
    std::printf("  id=%-8u dist=%.4f\n", kv.id(), kv.dist);
  }
  std::printf(
      "\n%zu queries | recall@10 %.3f | mean latency %.1f us | "
      "throughput %.0f qps (virtual time)\n",
      report.summary.queries, report.recall, report.summary.mean_service_us,
      report.summary.throughput_qps);
  return 0;
}
