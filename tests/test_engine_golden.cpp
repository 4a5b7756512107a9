// Golden pins for the engine's event-level behaviour. Each case hashes every
// record a run delivers (query index, disposition, the four timestamps,
// result ids and distance bits) with FNV-1a and pins it together with the
// run's host-poll, channel-transaction and device-poll counts. The values
// were recorded from the engine that stepped every idle CTA poll as its own
// event, so parked CTAs must reproduce that engine's runs bit for bit:
// virtual time, event order on ties, and results. device_polls was that
// engine's CTA event count (each CTA step polls once); a parked CTA is
// credited the polls it skipped, so the pin holds only if every wake lands
// on the polled instant.
//
// A second, full-record fingerprint covers every QueryRecord field (slot,
// deadline, priority, steps, rounds, scored points and the four StepCost
// terms included) plus the bits of the report's recall, gpu_utilization,
// pcie_bytes and trace_events, so a record or report builder that drops a
// field changes it. The static-batch and IVF baselines are pinned the same
// way. Every full pin was recorded from the engine that built each record
// and report field by field at every call site.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "baselines/ivf.hpp"
#include "baselines/static_engine.hpp"
#include "core/engine.hpp"
#include "core/mutable_index.hpp"
#include "core/serving_engine.hpp"
#include "dataset/synthetic.hpp"
#include "search/accept.hpp"
#include "simgpu/arrival.hpp"
#include "simgpu/trace.hpp"
#include "test_util.hpp"

namespace algas::core {
namespace {

using search::AcceptPredicate;
using search::NodeBitset;

class Fnv1a {
 public:
  void mix(std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h_ ^= (v >> (8 * b)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
  void mix_float(float f) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof bits);
    mix(bits);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t records_fnv1a(const metrics::Collector& c) {
  Fnv1a h;
  for (const auto& r : c.records()) {
    h.mix(r.query_index);
    h.mix(static_cast<std::uint64_t>(r.disposition));
    h.mix_double(r.arrival_ns);
    h.mix_double(r.dispatch_ns);
    h.mix_double(r.gpu_done_ns);
    h.mix_double(r.done_ns);
    h.mix(r.results.size());
    for (const KV& kv : r.results) {
      h.mix(kv.id());
      h.mix_float(kv.dist);
    }
  }
  return h.value();
}

void mix_records(Fnv1a& h, const metrics::Collector& c) {
  for (const auto& r : c.records()) {
    h.mix(r.query_index);
    h.mix(r.slot);
    h.mix_double(r.arrival_ns);
    h.mix_double(r.dispatch_ns);
    h.mix_double(r.gpu_done_ns);
    h.mix_double(r.done_ns);
    h.mix_double(r.deadline_ns);
    h.mix(r.priority);
    h.mix(static_cast<std::uint64_t>(r.disposition));
    h.mix(r.steps);
    h.mix(r.rounds);
    h.mix(r.scored_points);
    h.mix_double(r.gpu_cost.select_ns);
    h.mix_double(r.gpu_cost.gather_ns);
    h.mix_double(r.gpu_cost.compute_ns);
    h.mix_double(r.gpu_cost.sort_ns);
    h.mix(r.results.size());
    for (const KV& kv : r.results) {
      h.mix(kv.id());
      h.mix_float(kv.dist);
    }
  }
}

/// Every field of every record, then the report-level figures the report
/// tail computes.
std::uint64_t full_fnv1a(const EngineReport& rep) {
  Fnv1a h;
  mix_records(h, rep.collector);
  h.mix_double(rep.recall);
  h.mix_double(rep.gpu_utilization);
  h.mix(rep.pcie_bytes);
  h.mix(rep.trace_events);
  return h.value();
}

std::uint64_t full_fnv1a(const metrics::Collector& c) {
  Fnv1a h;
  mix_records(h, c);
  return h.value();
}

struct Pin {
  std::uint64_t records;
  std::uint64_t host_polls;
  std::uint64_t pcie_transactions;
  std::uint64_t device_polls;
};

void expect_pin(const EngineReport& rep, const Pin& pin, std::uint64_t full,
                const char* what) {
  EXPECT_EQ(records_fnv1a(rep.collector), pin.records) << what;
  EXPECT_EQ(full_fnv1a(rep), full) << what;
  EXPECT_EQ(rep.host_polls, pin.host_polls) << what;
  EXPECT_EQ(rep.pcie_transactions, pin.pcie_transactions) << what;
  EXPECT_EQ(rep.device_polls, pin.device_polls) << what;
}

AlgasConfig golden_config() {
  AlgasConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.search.beam_width = 2;
  cfg.search.offset_beam = 16;
  cfg.slots = 4;
  cfg.host_threads = 1;
  return cfg;
}

/// Bursty open-loop arrivals: busy stretches where slots refill at once and
/// idle gaps long enough for parked CTAs to sit through many poll periods.
std::vector<PendingQuery> bursty_arrivals(std::size_t n, double rate_qps) {
  sim::ArrivalConfig acfg;
  acfg.kind = sim::ArrivalKind::kBursty;
  acfg.rate_qps = rate_qps;
  acfg.seed = 5;
  const auto times = sim::ArrivalProcess(acfg).generate_ns(n);
  std::vector<PendingQuery> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back({i, times[i]});
  return out;
}

TEST(EngineGolden, EverySyncMode) {
  const auto& world = algas::testing::tiny_world();
  const struct {
    HostSync mode;
    Pin pin;
    std::uint64_t full;
  } cases[] = {
      {HostSync::kPollNaive, {14256205309456921108ULL, 1479, 2951, 634352},
       1392770844019674707ULL},
      {HostSync::kPollMirrored, {8876137410238888692ULL, 4008, 2112, 633652},
       9198399491678398092ULL},
      {HostSync::kBlocking, {10134136534195605385ULL, 0, 1472, 633852},
       11852545039399056882ULL},
  };
  for (const auto& c : cases) {
    AlgasConfig cfg = golden_config();
    cfg.host_sync = c.mode;
    AlgasEngine engine(world.ds, world.nsw, cfg);
    const auto rep = engine.run(bursty_arrivals(80, 20000.0));
    EXPECT_EQ(rep.summary.queries, 80u);
    expect_pin(rep, c.pin, c.full, host_sync_name(c.mode));
  }
}

TEST(EngineGolden, ShardedServingWithEvictions) {
  // Four shards behind bounded drop-oldest queues with deadlines tight
  // enough that both the queue shed path and the Expired eviction occur.
  const auto& world = algas::testing::tiny_world();
  ServingConfig cfg;
  cfg.sharded.base = golden_config();
  cfg.sharded.base.admission.capacity = 4;
  cfg.sharded.base.admission.policy = ShedPolicy::kDropOldest;
  cfg.sharded.shards = 4;
  cfg.sharded.build.degree = 16;
  cfg.sharded.build.ef_construction = 48;
  cfg.num_queries = 160;
  cfg.arrival.kind = sim::ArrivalKind::kPoisson;
  cfg.arrival.rate_qps = 2e5;
  cfg.arrival.seed = 42;
  cfg.deadline_us = 20.0;
  ServingEngine e(world.ds, cfg);
  const auto rep = e.run();
  const auto& s = rep.sharded.merged.summary;
  EXPECT_GT(s.served, 0u);
  EXPECT_GT(s.evicted, 0u);
  EXPECT_GT(s.shed_queue + s.shed_deadline, 0u);
  expect_pin(rep.sharded.merged, {4715921993004495209ULL, 5995, 16464, 489470},
             403679769621322535ULL, "4 shards");
  // The shards' own records: served, evicted and both shed dispositions,
  // with their slots, deadlines and priorities.
  EXPECT_EQ(full_fnv1a(rep.sharded.shard_records), 13651930609436175289ULL);
}

Dataset small_ds(std::size_t n) {
  SyntheticSpec spec;
  spec.name = "golden-mut";
  spec.num_base = n;
  spec.num_queries = 30;
  spec.dim = 8;
  spec.clusters = 8;
  spec.spread = 0.2;
  spec.seed = 99;
  return make_synthetic(spec);
}

BuildConfig small_build() {
  BuildConfig cfg;
  cfg.degree = 8;
  cfg.ef_construction = 24;
  cfg.insert_batch = 128;
  cfg.threads = 1;
  return cfg;
}

Dataset empty_like(const Dataset& src) {
  Dataset ds(src.name(), src.dim(), src.metric());
  ds.mutable_queries() = src.queries();
  return ds;
}

TEST(EngineGolden, MutableServeAfterDeletes) {
  const Dataset full = small_ds(400);
  MutableIndex idx(empty_like(full), small_build());
  idx.insert(full.base());
  for (NodeId v = 0; v < 400; v += 7) idx.remove(v);
  const auto rep = idx.serve(golden_config(), 30);
  EXPECT_EQ(rep.summary.queries, 30u);
  expect_pin(rep, {4546685888707673975ULL, 332, 812, 26034},
             7181246800584185015ULL, "mutable");
}

TEST(EngineGolden, FilteredRead) {
  const auto& world = algas::testing::tiny_world();
  NodeBitset bits(world.ds.num_base());
  for (NodeId v = 0; v < world.ds.num_base(); v += 10) bits.set(v);
  AlgasConfig cfg = golden_config();
  cfg.search.accept = AcceptPredicate(&bits);
  AlgasEngine engine(world.ds, world.nsw, cfg);
  const auto rep = engine.run(bursty_arrivals(40, 20000.0));
  expect_pin(rep, {14520174361405392342ULL, 9837, 1072, 243615},
             4738777336949353354ULL, "filtered");
}

TEST(EngineGolden, GraphSmallerThanCtaCount) {
  // Three rows under a plan of more CTAs per slot than rows: the surplus
  // CTAs flag Finish on their first Work step.
  const Dataset full = small_ds(400);
  MutableIndex idx(empty_like(full), small_build());
  idx.insert({full.base().data(), 3 * full.dim()});
  ASSERT_EQ(idx.published(), 3u);
  const auto rep = idx.serve(golden_config(), 20);
  ASSERT_GT(rep.plan.n_parallel, 3u);
  expect_pin(rep, {13642065685667525164ULL, 192, 552, 15312},
             14057169102456169948ULL, "3 rows");
}

TEST(EngineGolden, EqualTimeWakeAgainstCtaOrder) {
  // At t = 5736081.1090909075 ns CTAs 6 and 1 of slot 0 first see Work on
  // the same poll instant, pushed from the same instant, and c6 runs first:
  // their poll grids had merged by rounding, and where they last differed
  // c6's was earlier, so its poll was queued first at every shared instant.
  // Waking a slot's CTAs in index order changes this run's results.
  const auto& world = algas::testing::tiny_world();
  AlgasConfig cfg = golden_config();
  cfg.slots = 2;
  sim::ArrivalConfig acfg;
  acfg.rate_qps = 1000.0;
  acfg.seed = 4;
  const auto times = sim::ArrivalProcess(acfg).generate_ns(20);
  std::vector<PendingQuery> arrivals;
  for (std::size_t i = 0; i < times.size(); ++i) {
    arrivals.push_back({i, times[i]});
  }
  AlgasEngine engine(world.ds, world.cagra, cfg);
  const auto rep = engine.run(arrivals);
  expect_pin(rep, {14740029133816700353ULL, 1239, 536, 923885},
             13665982292011134317ULL, "equal-time wake");
}

TEST(EngineGolden, StaticBatchBaselines) {
  // CAGRA-style multi-CTA batches with the GPU merge, and the GANNS preset
  // (one CTA per query) under a private tracer, both over bursty arrivals so
  // batches wait on their last arrival.
  const auto& world = algas::testing::tiny_world();
  baselines::StaticConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.batch_size = 8;
  cfg.n_parallel = 4;
  const auto arrivals = bursty_arrivals(40, 20000.0);
  const auto cagra =
      baselines::StaticBatchEngine(world.ds, world.cagra, cfg).run(arrivals);
  EXPECT_EQ(cagra.summary.queries, 40u);
  EXPECT_EQ(full_fnv1a(cagra), 7379971399207061863ULL) << "static";
  EXPECT_EQ(cagra.pcie_transactions, 10u) << "static";

  sim::Tracer tracer;
  cfg.tracer = &tracer;
  const auto ganns = baselines::StaticBatchEngine(
                         world.ds, world.nsw, baselines::ganns_preset(cfg))
                         .run(arrivals);
  EXPECT_GT(ganns.trace_events, 0u);
  EXPECT_EQ(full_fnv1a(ganns), 3574409390816867662ULL) << "ganns";
  EXPECT_EQ(ganns.pcie_transactions, 10u) << "ganns";
}

TEST(EngineGolden, IvfBaseline) {
  const auto& world = algas::testing::tiny_world();
  baselines::IvfConfig cfg;
  cfg.topk = 10;
  cfg.nprobe = 4;
  cfg.batch_size = 8;
  baselines::IvfEngine engine(world.ds, cfg);
  const auto rep = engine.run_closed_loop(40);
  EXPECT_EQ(rep.summary.queries, 40u);
  EXPECT_EQ(full_fnv1a(rep), 15042612729239569141ULL) << "ivf";
  EXPECT_EQ(rep.pcie_transactions, 10u) << "ivf";
}

}  // namespace
}  // namespace algas::core
