// Cross-module integration: the full ALGAS system against its baselines on
// the same data, checking the paper's headline *orderings* hold end to end.
#include <gtest/gtest.h>

#include "baselines/static_engine.hpp"
#include "core/engine.hpp"
#include "search/multi_cta.hpp"
#include "test_util.hpp"

namespace algas {
namespace {

core::AlgasConfig algas_cfg(std::size_t slots = 8) {
  core::AlgasConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.search.beam_width = 2;
  cfg.search.offset_beam = 16;
  cfg.slots = slots;
  cfg.n_parallel = 4;
  return cfg;
}

baselines::StaticConfig static_cfg(std::size_t batch = 8) {
  baselines::StaticConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.batch_size = batch;
  cfg.n_parallel = 4;
  return cfg;
}

TEST(Integration, AlgasMatchesSynchronousMultiCtaResults) {
  // The engine's DES execution must produce exactly the results the
  // synchronous multi-CTA driver produces for the same (query, seed,
  // config): same entry points, same interleaving semantics.
  const auto& world = testing::tiny_world();
  auto cfg = algas_cfg(/*slots=*/1);  // one slot -> no cross-query effects
  cfg.search.beam_width = 1;
  core::AlgasEngine engine(world.ds, world.nsw, cfg);
  const auto rep = engine.run_closed_loop(20);

  for (const auto& rec : rep.collector.records()) {
    const auto ref = search::multi_cta_search(
        world.ds, world.nsw, cfg.cost, cfg.search, engine.plan().n_parallel,
        world.ds.query(rec.query_index), rec.query_index, cfg.seed);
    ASSERT_EQ(rec.results.size(), ref.topk.size())
        << "query " << rec.query_index;
    for (std::size_t i = 0; i < ref.topk.size(); ++i) {
      EXPECT_EQ(rec.results[i].id(), ref.topk[i].id())
          << "query " << rec.query_index << " rank " << i;
    }
  }
}

TEST(Integration, DynamicBatchingBeatsStaticOnLatency) {
  // Table I / Fig 13: same search work, same parallelism — dynamic slots
  // must deliver lower mean service latency than batch-synchronous.
  const auto& world = testing::tiny_world();
  core::AlgasEngine dynamic(world.ds, world.nsw, algas_cfg(8));
  baselines::StaticBatchEngine static_engine(world.ds, world.nsw,
                                             static_cfg(8));
  const auto rd = dynamic.run_closed_loop(120);
  const auto rs = static_engine.run_closed_loop(120);
  EXPECT_LT(rd.summary.mean_service_us, rs.summary.mean_service_us);
  // And recall is comparable (same graph, same list length).
  EXPECT_GT(rd.recall, rs.recall - 0.05);
}

TEST(Integration, AlgasBeatsGannsOnThroughput) {
  const auto& world = testing::tiny_world();
  core::AlgasEngine dynamic(world.ds, world.nsw, algas_cfg(8));
  baselines::StaticConfig gcfg;
  gcfg.search.topk = 10;
  gcfg.search.candidate_len = 64;
  gcfg.batch_size = 8;
  baselines::StaticBatchEngine ganns(world.ds, world.nsw,
                                     baselines::ganns_preset(gcfg));
  const auto rd = dynamic.run_closed_loop(120);
  const auto rg = ganns.run_closed_loop(120);
  EXPECT_GT(rd.summary.throughput_qps, rg.summary.throughput_qps);
}

TEST(Integration, BothGraphTypesWork) {
  // §VI: "To verify ALGAS can support general GPU graph" — NSW and CAGRA.
  const auto& world = testing::tiny_world();
  for (const Graph* g : {&world.nsw, &world.cagra}) {
    core::AlgasEngine engine(world.ds, *g, algas_cfg());
    const auto rep = engine.run_closed_loop(60);
    EXPECT_EQ(rep.summary.queries, 60u);
    EXPECT_GT(rep.recall, 0.88);
  }
}

TEST(Integration, CosineMetricEndToEnd) {
  const auto& world = testing::tiny_world(Metric::kCosine);
  core::AlgasEngine engine(world.ds, world.nsw, algas_cfg());
  const auto rep = engine.run_closed_loop(60);
  EXPECT_GT(rep.recall, 0.85);
}

TEST(Integration, LargerCandidateListRaisesRecall) {
  // The paper's recall knob: candidate list size.
  const auto& world = testing::tiny_world();
  auto lo_cfg = algas_cfg();
  lo_cfg.search.candidate_len = 32;
  auto hi_cfg = algas_cfg();
  hi_cfg.search.candidate_len = 256;
  core::AlgasEngine lo(world.ds, world.nsw, lo_cfg);
  core::AlgasEngine hi(world.ds, world.nsw, hi_cfg);
  const auto rl = lo.run_closed_loop(80);
  const auto rh = hi.run_closed_loop(80);
  EXPECT_GE(rh.recall, rl.recall);
  EXPECT_GT(rh.summary.mean_service_us, rl.summary.mean_service_us);
}

TEST(Integration, StressManyConfigsComplete) {
  // Sweep slots x host threads x beam to shake out lifecycle deadlocks;
  // the engine throws if any query is lost.
  const auto& world = testing::tiny_world();
  for (std::size_t slots : {1, 3, 8}) {
    for (std::size_t hosts : {1, 2}) {
      for (std::size_t beam : {1, 4}) {
        core::AlgasConfig cfg = algas_cfg(slots);
        cfg.host_threads = hosts;
        cfg.search.beam_width = beam;
        core::AlgasEngine engine(world.ds, world.nsw, cfg);
        const auto rep = engine.run_closed_loop(25);
        EXPECT_EQ(rep.summary.queries, 25u)
            << "slots=" << slots << " hosts=" << hosts << " beam=" << beam;
      }
    }
  }
}

}  // namespace
}  // namespace algas
