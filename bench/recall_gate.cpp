// recall_gate — the quantized-storage precision gate.
//
// Quantized scoring (f16/int8 rows) is deliberately NOT bitwise-equal to
// the f32 seed, so the usual byte-identity tests cannot protect it. This
// binary measures what the codecs actually cost: it runs the Fig 10/11
// ALGAS configuration (batch 16, L 128, 4 CTAs, beam extend) once per
// storage codec on the same dataset + ground truth and reports recall@10
// per codec as JSON. scripts/check_gate.py compares that JSON against
// the committed bench/recall_baseline.json and fails when f32 drifts at
// all or a quantized codec drops more than its pinned epsilon.
//
// Knobs (all environment, same semantics as the benches):
//   ALGAS_SCALE        dataset size multiplier (CI gate uses 0.05)
//   ALGAS_QUERIES      queries per codec run   (CI gate uses 40)
//   ALGAS_DATASETS     first listed name is the gate dataset (default sift)
//   ALGAS_CACHE_DIR    dataset/graph cache (graph keys are codec-suffixed)
//   ALGAS_RECALL_OUT   output JSON path (default "BENCH_recall.json")
//
// Ground truth is loaded/computed at f32 BEFORE quantizing, so recall
// measures the codec's loss against exact neighbors — quantizing first
// would grade the codec against itself.
#include <algorithm>
#include <cstdio>
#include <string>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "core/engine.hpp"
#include "dataset/registry.hpp"
#include "graph/builder.hpp"

using namespace algas;

int main() {
  const RuntimeOptions opts = RuntimeOptions::from_env();
  std::string raw = opts.datasets;
  if (raw.empty()) raw = "sift";
  const std::string ds_name = raw.substr(0, raw.find(','));

  const BuildConfig build_cfg = bench::bench_build_config();
  bench::JsonWriter json(opts.recall_out);
  json.field("bench", "recall_gate").field("dataset", ds_name);
  const StorageCodec codecs[] = {StorageCodec::kF32, StorageCodec::kF16,
                                 StorageCodec::kInt8};
  for (const StorageCodec codec : codecs) {
    // Fresh load per codec: ground truth comes from the f32 cache, then
    // the codec re-encodes the rows and the graph is built (or loaded from
    // its codec-suffixed cache entry) against the quantized scores.
    Dataset ds = load_bench_dataset(ds_name);
    ds.set_storage(codec);
    const Graph g = load_or_build_graph(GraphKind::kCagra, ds, build_cfg).graph;
    core::AlgasEngine engine(ds, g, bench::algas_config(16, 128, 10));
    const std::size_t nq = std::min(
        opts.queries == 0 ? ds.num_queries() : opts.queries, ds.num_queries());
    const auto rep = engine.run_closed_loop(nq);

    if (codec == codecs[0]) {  // every codec runs the same rows and queries
      json.field("n_base", ds.num_base())
          .field("dim", ds.dim())
          .field("queries", rep.summary.queries)
          .field("topk", std::size_t{10})
          .field("candidate_len", std::size_t{128})
          .object("codecs");
    }
    json.object(storage_codec_name(codec))
        .field("recall_at_10", rep.recall)
        .field("mean_latency_us", rep.summary.mean_service_us)
        .field("smem_per_block", engine.layout().total_bytes())
        .field("pcie_bytes", rep.pcie_bytes)
        .close();
    std::printf("%s: storage %-4s | recall@10 %.6f | latency mean %.1fus | "
                "smem/block %zuB | pcie %llu B\n",
                ds_name.c_str(), storage_codec_name(codec), rep.recall,
                rep.summary.mean_service_us, engine.layout().total_bytes(),
                static_cast<unsigned long long>(rep.pcie_bytes));
  }
  json.close().finish();
  return 0;
}
