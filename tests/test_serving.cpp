// The open-loop serving layer: arrival-process property tests, bounded
// admission, per-query deadlines, and the shed/evict state machine under
// overload. Companion to test_core.cpp (slot protocol) and
// test_sharded.cpp (scatter-gather) — this file covers the workload side.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "core/engine.hpp"
#include "core/query_manager.hpp"
#include "core/serving_engine.hpp"
#include "core/sharded_engine.hpp"
#include "simgpu/arrival.hpp"
#include "test_util.hpp"

namespace algas::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// ---------------- simgpu/arrival.hpp ----------------

sim::ArrivalConfig poisson_cfg(double rate_qps, std::uint64_t seed = 42) {
  sim::ArrivalConfig cfg;
  cfg.kind = sim::ArrivalKind::kPoisson;
  cfg.rate_qps = rate_qps;
  cfg.seed = seed;
  return cfg;
}

sim::ArrivalConfig bursty_cfg(double rate_qps, std::uint64_t seed = 42) {
  sim::ArrivalConfig cfg = poisson_cfg(rate_qps, seed);
  cfg.kind = sim::ArrivalKind::kBursty;
  return cfg;
}

TEST(ArrivalProcess, SeededTraceIsByteIdentical) {
  // The CI serving gate checksums arrival traces across machines and host
  // thread counts: a (config, seed) pair must replay the exact same trace,
  // bit for bit, with no tolerance.
  for (const auto& cfg : {poisson_cfg(5000.0), bursty_cfg(5000.0)}) {
    sim::ArrivalProcess a(cfg);
    sim::ArrivalProcess b(cfg);
    const auto ta = a.generate_ns(2000);
    const auto tb = b.generate_ns(2000);
    ASSERT_EQ(ta.size(), tb.size());
    for (std::size_t i = 0; i < ta.size(); ++i) {
      ASSERT_EQ(ta[i], tb[i]) << "trace diverged at arrival " << i;
    }
  }
}

TEST(ArrivalProcess, DifferentSeedsDiverge) {
  sim::ArrivalProcess a(poisson_cfg(5000.0, 1));
  sim::ArrivalProcess b(poisson_cfg(5000.0, 2));
  EXPECT_NE(a.generate_ns(64), b.generate_ns(64));
}

TEST(ArrivalProcess, GenerateMatchesRepeatedNext) {
  sim::ArrivalProcess batch(bursty_cfg(3000.0));
  sim::ArrivalProcess loop(bursty_cfg(3000.0));
  const auto ts = batch.generate_ns(256);
  for (std::size_t i = 0; i < ts.size(); ++i) {
    EXPECT_EQ(loop.next_arrival_ns(), ts[i]) << i;
  }
}

TEST(ArrivalProcess, ArrivalsNondecreasingAndNonnegative) {
  for (const auto& cfg : {poisson_cfg(20000.0), bursty_cfg(20000.0)}) {
    sim::ArrivalProcess p(cfg);
    double prev = 0.0;
    for (int i = 0; i < 5000; ++i) {
      const double t = p.next_arrival_ns();
      EXPECT_GE(t, prev);
      prev = t;
    }
  }
}

TEST(ArrivalProcess, PoissonEmpiricalMeanMatchesRate) {
  // Inter-arrival mean of an Exp(lambda) stream is 1/lambda. With n = 40000
  // samples the standard error is mean/sqrt(n) ~ 0.5%, so a 3% band is a
  // real distribution check, not a tautology.
  const double rate = 1000.0;  // -> mean gap 1e6 ns
  sim::ArrivalProcess p(poisson_cfg(rate));
  const std::size_t n = 40000;
  const double mean_gap_ns = p.generate_ns(n).back() / static_cast<double>(n);
  EXPECT_NEAR(mean_gap_ns, 1e9 / rate, 0.03 * 1e9 / rate);
}

TEST(ArrivalProcess, BurstyPhaseOccupancyMatchesDwellRatio) {
  // MMPP occupancy: long-run fraction of virtual time in the burst phase is
  // burst_dwell / (base_dwell + burst_dwell) (alternating renewal). The
  // defaults give 500 / 2500 = 0.2; run long enough for ~20k phase cycles.
  sim::ArrivalConfig cfg = bursty_cfg(2000.0);
  sim::ArrivalProcess p(cfg);
  p.generate_ns(200000);
  ASSERT_GT(p.elapsed_ns(), 0.0);
  const double occupancy = p.burst_time_ns() / p.elapsed_ns();
  EXPECT_NEAR(occupancy, cfg.expected_burst_fraction(), 0.02);
  EXPECT_DOUBLE_EQ(cfg.expected_burst_fraction(), 0.2);
}

TEST(ArrivalProcess, BurstyMeanRateSitsBetweenPhaseRates) {
  sim::ArrivalConfig cfg = bursty_cfg(2000.0);
  sim::ArrivalProcess p(cfg);
  const std::size_t n = 100000;
  const double span_s = p.generate_ns(n).back() / 1e9;
  const double mean_rate = static_cast<double>(n) / span_s;
  EXPECT_GT(mean_rate, cfg.rate_qps);
  EXPECT_LT(mean_rate, cfg.effective_burst_rate());
  // Sanity of the occupancy-weighted expectation: 0.8*2000 + 0.2*8000.
  EXPECT_NEAR(mean_rate, 3200.0, 0.05 * 3200.0);
}

TEST(ArrivalProcess, PoissonNeverEntersBurstPhase) {
  sim::ArrivalProcess p(poisson_cfg(1000.0));
  p.generate_ns(1000);
  EXPECT_FALSE(p.in_burst());
  EXPECT_DOUBLE_EQ(p.burst_time_ns(), 0.0);
}

TEST(ArrivalProcess, InvalidConfigThrows) {
  sim::ArrivalConfig zero_rate = poisson_cfg(0.0);
  EXPECT_THROW(sim::ArrivalProcess{zero_rate}, std::invalid_argument);
  sim::ArrivalConfig bad_dwell = bursty_cfg(1000.0);
  bad_dwell.base_dwell_us = 0.0;
  EXPECT_THROW(sim::ArrivalProcess{bad_dwell}, std::invalid_argument);
}

TEST(ArrivalConfig, BurstRateDefaultsToFourTimesBase) {
  sim::ArrivalConfig cfg = bursty_cfg(1500.0);
  EXPECT_DOUBLE_EQ(cfg.effective_burst_rate(), 6000.0);
  cfg.burst_rate_qps = 2000.0;
  EXPECT_DOUBLE_EQ(cfg.effective_burst_rate(), 2000.0);
}

// ---------------- query_manager.hpp: bounded admission ----------------

PendingQuery pq(std::size_t idx, double arrival, std::uint8_t priority = 0,
                double deadline = kInf) {
  PendingQuery q;
  q.query_index = idx;
  q.arrival_ns = arrival;
  q.priority = priority;
  q.deadline_ns = deadline;
  return q;
}

TEST(Admission, UnboundedDefaultNeverSheds) {
  QueryManager qm;
  const AdmissionConfig adm;  // capacity = kUnboundedQueue
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_FALSE(qm.admit(pq(i, static_cast<double>(i)), adm).has_value());
  }
  EXPECT_EQ(qm.pending(), 100u);
}

TEST(Admission, QueueExactlyAtCapacityAdmitsThenSheds) {
  // The boundary case: the admit that FILLS the queue succeeds; the next
  // one is the first to shed.
  QueryManager qm;
  AdmissionConfig adm;
  adm.capacity = 3;
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_FALSE(qm.admit(pq(i, 0.0), adm).has_value()) << i;
  }
  EXPECT_EQ(qm.pending(), 3u);
  const auto victim = qm.admit(pq(3, 0.0), adm);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->query_index, 3u);  // kRejectNew sheds the newcomer
  EXPECT_EQ(qm.pending(), 3u);
}

TEST(Admission, DropOldestEvictsOldestLowestClass) {
  QueryManager qm;
  AdmissionConfig adm;
  adm.capacity = 2;
  adm.policy = ShedPolicy::kDropOldest;
  qm.admit(pq(0, 0.0, /*priority=*/0), adm);
  qm.admit(pq(1, 1.0, /*priority=*/1), adm);
  // Full; a same-class newcomer makes room by dropping the oldest class-0.
  const auto victim = qm.admit(pq(2, 2.0, /*priority=*/1), adm);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->query_index, 0u);
  EXPECT_EQ(qm.pending(), 2u);
  // The survivors are q1 and q2.
  std::set<std::size_t> left;
  while (auto q = qm.pop_ready(10.0)) left.insert(q->query_index);
  EXPECT_EQ(left, (std::set<std::size_t>{1u, 2u}));
}

TEST(Admission, DropOldestProtectsHigherClasses) {
  // A full queue of higher-priority work never makes room for a lower
  // class: the policy falls back to rejecting the newcomer.
  QueryManager qm;
  AdmissionConfig adm;
  adm.capacity = 2;
  adm.policy = ShedPolicy::kDropOldest;
  qm.admit(pq(0, 0.0, /*priority=*/3), adm);
  qm.admit(pq(1, 1.0, /*priority=*/3), adm);
  const auto victim = qm.admit(pq(2, 2.0, /*priority=*/0), adm);
  ASSERT_TRUE(victim.has_value());
  EXPECT_EQ(victim->query_index, 2u);
  EXPECT_EQ(qm.pending(), 2u);
}

TEST(Admission, PopPrefersHighestArrivedClass) {
  QueryManager qm;
  qm.push(pq(0, 0.0, /*priority=*/0));
  qm.push(pq(1, 5.0, /*priority=*/3));
  qm.push(pq(2, 6.0, /*priority=*/0));
  // Before the high-priority arrival only q0 is eligible.
  auto q = qm.pop_ready(1.0);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->query_index, 0u);
  // Once both classes have arrived the class-3 entry pops first even
  // though the class-0 queue is older.
  q = qm.pop_ready(10.0);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->query_index, 1u);
  q = qm.pop_ready(10.0);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->query_index, 2u);
}

TEST(Admission, PriorityClampsIntoRange) {
  QueryManager qm;
  qm.push(pq(0, 0.0, /*priority=*/255));
  const auto q = qm.pop_ready(1.0);
  ASSERT_TRUE(q.has_value());
  EXPECT_LT(q->priority, kPriorityClasses);
}

// ---------------- engine.hpp: serving mode ----------------

AlgasConfig tiny_serving_config() {
  AlgasConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.search.beam_width = 2;
  cfg.search.offset_beam = 16;
  cfg.slots = 4;
  cfg.host_threads = 1;
  cfg.device = sim::DeviceProps::rtx_a6000();
  return cfg;
}

std::vector<PendingQuery> spaced_arrivals(std::size_t n, double gap_ns,
                                          double deadline_rel_ns = kInf) {
  std::vector<PendingQuery> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double arrival = static_cast<double>(i) * gap_ns;
    out.push_back(pq(i, arrival, 0, arrival + deadline_rel_ns));
  }
  return out;
}

/// Median service time of the closed-loop tiny world, measured once — the
/// yardstick the deadline tests scale against.
double tiny_p50_service_ns() {
  static const double p50 = [] {
    const auto& world = algas::testing::tiny_world();
    AlgasEngine e(world.ds, world.nsw, tiny_serving_config());
    return e.run_closed_loop(40).summary.p50_service_us * 1000.0;
  }();
  return p50;
}

TEST(EngineServing, BoundedAdmissionWithSlackMatchesUnboundedResults) {
  // A bounded queue that never fills and infinite deadlines must serve the
  // same queries with byte-identical RESULTS as the pre-serving open-loop
  // run: search output is a pure function of (query, graph), independent of
  // when a slot picked the query up. Virtual timing may differ by a poll
  // iteration — the AdmissionActor pushes at the arrival instant, and a
  // worker waking at that same instant can observe the queue one event
  // later than the pre-push path — but it must be deterministic: two
  // bounded runs agree on every timestamp.
  const auto& world = algas::testing::tiny_world();
  const auto arrivals = spaced_arrivals(50, 2000.0);

  AlgasEngine plain(world.ds, world.nsw, tiny_serving_config());
  const auto ref = plain.run(arrivals);

  AlgasConfig bounded_cfg = tiny_serving_config();
  bounded_cfg.admission.capacity = 1u << 20;
  AlgasEngine bounded(world.ds, world.nsw, bounded_cfg);
  const auto got = bounded.run(arrivals);
  AlgasEngine bounded2(world.ds, world.nsw, bounded_cfg);
  const auto again = bounded2.run(arrivals);

  ASSERT_EQ(got.collector.size(), ref.collector.size());
  ASSERT_EQ(again.collector.size(), got.collector.size());
  for (std::size_t i = 0; i < ref.collector.records().size(); ++i) {
    const auto& a = ref.collector.records()[i];
    const auto& b = got.collector.records()[i];
    const auto& c = again.collector.records()[i];
    ASSERT_EQ(a.query_index, b.query_index) << i;
    ASSERT_TRUE(b.served()) << i;
    ASSERT_EQ(a.results.size(), b.results.size()) << i;
    for (std::size_t k = 0; k < a.results.size(); ++k) {
      ASSERT_EQ(a.results[k].dist, b.results[k].dist);
      ASSERT_EQ(a.results[k].key, b.results[k].key);
    }
    // Bounded-vs-bounded is bit-identical including every timestamp.
    ASSERT_EQ(b.dispatch_ns, c.dispatch_ns) << i;
    ASSERT_EQ(b.done_ns, c.done_ns) << i;
  }
  EXPECT_EQ(got.summary.served, got.summary.queries);
  EXPECT_DOUBLE_EQ(got.recall, ref.recall);
}

TEST(EngineServing, DeadlineEqualToArrivalShedsEverything) {
  // deadline == arrival means the query is already late by the time any
  // host worker can look at it (popping costs host-loop time): every query
  // sheds at dispatch, nothing deadlocks, and the run drains cleanly with
  // one record per arrival.
  const auto& world = algas::testing::tiny_world();
  const auto arrivals = spaced_arrivals(30, 1000.0, /*deadline_rel=*/0.0);
  AlgasConfig cfg = tiny_serving_config();
  cfg.admission.capacity = 1u << 20;
  AlgasEngine e(world.ds, world.nsw, cfg);
  const auto rep = e.run(arrivals);
  EXPECT_EQ(rep.summary.queries, 30u);
  EXPECT_EQ(rep.summary.shed_deadline, 30u);
  EXPECT_EQ(rep.summary.served, 0u);
  EXPECT_DOUBLE_EQ(rep.summary.goodput_qps, 0.0);
  EXPECT_DOUBLE_EQ(rep.summary.shed_rate, 1.0);
  for (const auto& r : rep.collector.records()) {
    EXPECT_EQ(r.disposition, metrics::Disposition::kShedDeadline);
    EXPECT_TRUE(r.results.empty());
    EXPECT_EQ(r.slot, metrics::QueryRecord::kNoSlot);
  }
}

TEST(EngineServing, TinyQueueShedsBurstButServesSome) {
  // Everything arrives in one instant-burst against a capacity-2 queue:
  // admission control must shed most of the burst (kShedQueue) while the
  // slots drain what was admitted. Exactly one record per arrival either
  // way — the delivered-records invariant under overload.
  const auto& world = algas::testing::tiny_world();
  const auto arrivals = spaced_arrivals(40, 1.0);  // ~simultaneous
  AlgasConfig cfg = tiny_serving_config();
  cfg.admission.capacity = 2;
  AlgasEngine e(world.ds, world.nsw, cfg);
  const auto rep = e.run(arrivals);
  EXPECT_EQ(rep.summary.queries, 40u);
  EXPECT_GT(rep.summary.shed_queue, 0u);
  EXPECT_GT(rep.summary.served, 0u);
  EXPECT_EQ(rep.summary.served + rep.summary.shed_queue +
                rep.summary.shed_deadline + rep.summary.evicted,
            40u);
  std::set<std::size_t> seen;
  for (const auto& r : rep.collector.records()) {
    EXPECT_TRUE(seen.insert(r.query_index).second);
    if (r.disposition == metrics::Disposition::kShedQueue) {
      EXPECT_TRUE(r.results.empty());
      EXPECT_EQ(r.slot, metrics::QueryRecord::kNoSlot);
    }
  }
  EXPECT_EQ(seen.size(), 40u);
}

TEST(EngineServing, TightDeadlineEvictsFinishedWork) {
  // Deadline at half the median service time, arrivals spaced far apart:
  // every query dispatches (the deadline is still ahead at pop time) but
  // expires mid-flight, so the host evicts the Finish-ed slot instead of
  // fetching results. GPU-side work really happened (scored_points carries
  // over) but no results cross the channel.
  const auto& world = algas::testing::tiny_world();
  const double deadline_rel = 0.5 * tiny_p50_service_ns();
  ASSERT_GT(deadline_rel, 1000.0) << "tiny world service time collapsed; "
                                     "deadline would shed at dispatch";
  const auto arrivals =
      spaced_arrivals(20, 10.0 * tiny_p50_service_ns(), deadline_rel);
  AlgasConfig cfg = tiny_serving_config();
  cfg.admission.capacity = 1u << 20;
  AlgasEngine e(world.ds, world.nsw, cfg);
  const auto rep = e.run(arrivals);
  EXPECT_EQ(rep.summary.queries, 20u);
  EXPECT_GT(rep.summary.evicted, 0u);
  EXPECT_EQ(rep.summary.served, 0u);
  EXPECT_DOUBLE_EQ(rep.summary.goodput_qps, 0.0);
  for (const auto& r : rep.collector.records()) {
    if (r.disposition != metrics::Disposition::kEvicted) continue;
    EXPECT_TRUE(r.results.empty());
    EXPECT_GT(r.scored_points, 0u);
    EXPECT_GE(r.gpu_done_ns, r.dispatch_ns);
  }
}

TEST(EngineServing, DeadlineExpiringDuringFetchIsAServedMiss) {
  // The Finish -> Done decision runs BEFORE the fetch/transfer/merge costs
  // are charged, so a deadline can expire between completion detection and
  // delivery. Such a query still serves (the slot was already committed to
  // the fetch) but must carry its real deadline on the record and count as
  // a deadline miss — this is the K=1 goodput accounting the serving gate
  // measures, and it must agree with the K>1 MergeActor stamping.
  //
  // Construction: calibrate with infinite deadlines, then pin each query's
  // deadline an epsilon short of its calibrated done_ns. A deadline in the
  // detection->delivery window changes no scheduling decision (dispatch
  // and eviction checks both pass), so the timed run replays the
  // calibration byte-identically and the deadline lands in that window by
  // construction (the fetch path costs at least host_io_submit_ns = 1200ns
  // >> epsilon).
  const auto& world = algas::testing::tiny_world();
  const std::size_t n = 10;
  const auto calib_arrivals =
      spaced_arrivals(n, 10.0 * tiny_p50_service_ns());
  AlgasEngine calib(world.ds, world.nsw, tiny_serving_config());
  const auto ref = calib.run(calib_arrivals);
  ASSERT_EQ(ref.summary.served, n);

  std::vector<double> done_of(n, 0.0);
  for (const auto& r : ref.collector.records()) {
    done_of[r.query_index] = r.done_ns;
  }
  auto arrivals = calib_arrivals;
  for (auto& q : arrivals) {
    q.priority = 2;  // must round-trip onto the served record too
    q.deadline_ns = done_of[q.query_index] - 1.0;
    ASSERT_GT(q.deadline_ns, q.arrival_ns);
  }
  AlgasEngine e(world.ds, world.nsw, tiny_serving_config());
  const auto rep = e.run(arrivals);
  EXPECT_EQ(rep.summary.served, n);  // nothing shed, nothing evicted
  EXPECT_EQ(rep.summary.evicted, 0u);
  EXPECT_EQ(rep.summary.deadline_misses, n);
  EXPECT_DOUBLE_EQ(rep.summary.deadline_miss_rate, 1.0);
  EXPECT_DOUBLE_EQ(rep.summary.goodput_qps, 0.0);
  EXPECT_GT(rep.summary.throughput_qps, 0.0);
  for (const auto& r : rep.collector.records()) {
    ASSERT_TRUE(r.served());
    EXPECT_TRUE(std::isfinite(r.deadline_ns)) << "deadline not stamped";
    EXPECT_EQ(r.priority, 2);
    EXPECT_GT(r.done_ns, r.deadline_ns);
    EXPECT_FALSE(r.in_deadline());
    EXPECT_FALSE(r.results.empty());
  }
}

TEST(EngineServing, GenerousDeadlinesAllServedAndInDeadline) {
  const auto& world = algas::testing::tiny_world();
  const double deadline_rel = 50.0 * tiny_p50_service_ns();
  const auto arrivals = spaced_arrivals(30, 5000.0, deadline_rel);
  AlgasConfig cfg = tiny_serving_config();
  cfg.admission.capacity = 64;
  AlgasEngine e(world.ds, world.nsw, cfg);
  const auto rep = e.run(arrivals);
  EXPECT_EQ(rep.summary.served, 30u);
  EXPECT_EQ(rep.summary.deadline_misses, 0u);
  EXPECT_DOUBLE_EQ(rep.summary.goodput_qps, rep.summary.throughput_qps);
  EXPECT_GT(rep.recall, 0.8);
}

TEST(EngineServing, BlockingSyncServesBoundedWorkload) {
  // The serving path composes with every host-sync ablation, not just
  // mirrored polling.
  const auto& world = algas::testing::tiny_world();
  const auto arrivals = spaced_arrivals(20, 2000.0, 1e9);
  AlgasConfig cfg = tiny_serving_config();
  cfg.host_sync = HostSync::kBlocking;
  cfg.admission.capacity = 8;
  AlgasEngine e(world.ds, world.nsw, cfg);
  const auto rep = e.run(arrivals);
  EXPECT_EQ(rep.summary.queries, 20u);
  EXPECT_EQ(rep.summary.served + rep.summary.shed_queue +
                rep.summary.shed_deadline + rep.summary.evicted,
            20u);
}

TEST(EngineServing, MultiHostOverloadDrainsCleanly) {
  // Two host workers against a capacity-2 queue and an instant burst: the
  // run must terminate with every arrival accounted for (the specific
  // shed/serve split legitimately depends on worker interleaving, but the
  // accounting identity does not).
  const auto& world = algas::testing::tiny_world();
  const auto arrivals = spaced_arrivals(40, 1.0);
  AlgasConfig cfg = tiny_serving_config();
  cfg.host_threads = 2;
  cfg.admission.capacity = 2;
  AlgasEngine e(world.ds, world.nsw, cfg);
  const auto rep = e.run(arrivals);
  EXPECT_EQ(rep.summary.queries, 40u);
  EXPECT_EQ(rep.summary.served + rep.summary.shed_queue +
                rep.summary.shed_deadline + rep.summary.evicted,
            40u);
  EXPECT_GT(rep.summary.served, 0u);
}

// ---------------- serving_engine.hpp ----------------

ServingConfig tiny_serving_engine_config() {
  ServingConfig cfg;
  cfg.sharded.base = tiny_serving_config();
  cfg.sharded.base.admission.capacity = 8;
  cfg.sharded.shards = 1;
  cfg.sharded.build.degree = 16;
  cfg.sharded.build.ef_construction = 48;
  cfg.num_queries = 40;
  return cfg;
}

TEST(ServingEngine, PlanWorkloadIsDeterministicAndStamped) {
  const auto& world = algas::testing::tiny_world();
  ServingConfig cfg = tiny_serving_engine_config();
  cfg.arrival = bursty_cfg(20000.0);
  cfg.deadline_us = 150.0;
  cfg.high_priority_fraction = 0.5;
  ServingEngine e(world.ds, cfg);
  const auto a = e.plan_workload();
  const auto b = e.plan_workload();
  ASSERT_EQ(a.size(), 40u);
  std::size_t high = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].query_index, i);
    ASSERT_EQ(a[i].arrival_ns, b[i].arrival_ns);
    ASSERT_EQ(a[i].deadline_ns, b[i].deadline_ns);
    ASSERT_EQ(a[i].priority, b[i].priority);
    EXPECT_DOUBLE_EQ(a[i].deadline_ns, a[i].arrival_ns + 150.0 * 1000.0);
    if (a[i].priority == kPriorityClasses - 1) ++high;
  }
  // Seeded coin at p = 0.5 over 40 draws: both classes must appear.
  EXPECT_GT(high, 0u);
  EXPECT_LT(high, 40u);
}

TEST(ServingEngine, ZeroDeadlineMeansNoDeadline) {
  const auto& world = algas::testing::tiny_world();
  ServingConfig cfg = tiny_serving_engine_config();
  cfg.deadline_us = 0.0;
  ServingEngine e(world.ds, cfg);
  for (const auto& q : e.plan_workload()) {
    EXPECT_TRUE(std::isinf(q.deadline_ns));
  }
}

TEST(ServingEngine, UnderloadServesEverything) {
  const auto& world = algas::testing::tiny_world();
  ServingConfig cfg = tiny_serving_engine_config();
  cfg.arrival = poisson_cfg(2000.0);  // gaps >> tiny-world service time
  cfg.deadline_us = 10000.0;
  ServingEngine e(world.ds, cfg);
  const auto rep = e.run();
  const auto& s = rep.sharded.merged.summary;
  EXPECT_EQ(s.queries, 40u);
  EXPECT_DOUBLE_EQ(s.shed_rate, 0.0);
  EXPECT_DOUBLE_EQ(s.deadline_miss_rate, 0.0);
  EXPECT_GT(s.goodput_qps, 0.0);
  EXPECT_GT(rep.offered_qps, 0.0);
  EXPECT_GT(rep.sharded.merged.recall, 0.8);
  EXPECT_GT(s.p999_latency_us, 0.0);
  EXPECT_GE(s.p999_latency_us, s.p99_latency_us);
}

TEST(ServingEngine, OverloadDegradesGracefullyNotToZero) {
  // 2x-saturation shape: a huge offered rate against a capacity-2 queue
  // must shed, but goodput stays positive — overload degrades, it does
  // not cliff to zero.
  const auto& world = algas::testing::tiny_world();
  ServingConfig cfg = tiny_serving_engine_config();
  cfg.sharded.base.admission.capacity = 2;
  cfg.arrival = poisson_cfg(2e6);
  cfg.deadline_us = 10000.0;
  ServingEngine e(world.ds, cfg);
  const auto rep = e.run();
  const auto& s = rep.sharded.merged.summary;
  EXPECT_EQ(s.queries, 40u);
  EXPECT_GT(s.shed_rate, 0.0);
  EXPECT_GT(s.goodput_qps, 0.0);
  EXPECT_EQ(s.served + s.shed_queue + s.shed_deadline + s.evicted, 40u);
}

// ---------------- sharded serving ----------------

TEST(ShardedServing, SaturatedShardShedsWhileOthersServe) {
  // K = 2 with selective fanout: flood the shard that owns one routing
  // region with back-to-back arrivals (tiny queue -> it must shed) while
  // the other shard's queries arrive at leisure. The run drains, every
  // arrival gets a record, and the relaxed shard serves everything.
  const auto& world = algas::testing::tiny_world();
  ShardedConfig cfg;
  cfg.base = tiny_serving_config();
  cfg.base.admission.capacity = 2;
  cfg.shards = 2;
  cfg.fanout = 1;
  cfg.build.degree = 16;
  cfg.build.ef_construction = 48;
  ShardedEngine e(world.ds, cfg);

  // Partition the first 60 dataset queries by routed shard.
  std::vector<std::size_t> to0, to1;
  for (std::size_t i = 0; i < 60; ++i) {
    (e.route(i)[0] == 0 ? to0 : to1).push_back(i);
  }
  ASSERT_GT(to0.size(), 4u) << "router sent (almost) nothing to shard 0";
  ASSERT_GT(to1.size(), 1u) << "router sent (almost) nothing to shard 1";

  // Flood shard 0 at t=0 (1ns apart), trickle shard 1 afterwards. Arrival
  // order must be nondecreasing, so the flood comes first.
  std::vector<PendingQuery> arrivals;
  double t = 0.0;
  for (std::size_t idx : to0) arrivals.push_back(pq(idx, t += 1.0));
  for (std::size_t idx : to1) arrivals.push_back(pq(idx, t += 100000.0));

  const auto rep = e.run(arrivals);
  const auto& s = rep.merged.summary;
  EXPECT_EQ(s.queries, arrivals.size());
  EXPECT_EQ(rep.merged.collector.size(), arrivals.size());
  EXPECT_GT(s.shed_queue, 0u);
  EXPECT_GT(s.served, to1.size() - 1);  // at least the relaxed shard's load
  // The relaxed shard's queries all arrive alone against an empty queue.
  std::set<std::size_t> relaxed(to1.begin(), to1.end());
  for (const auto& r : rep.merged.collector.records()) {
    if (relaxed.count(r.query_index)) {
      EXPECT_EQ(r.disposition, metrics::Disposition::kServed)
          << "query " << r.query_index;
      EXPECT_FALSE(r.results.empty());
    }
  }
}

TEST(ShardedServing, MergeWaitsForTheLatestShardCompletion) {
  // Overloaded K = 2 with deadlines: a query can be served by one shard and
  // evicted by the other, and the evicted record's short host tail can be
  // delivered after a served record that finishes later. The cross-shard
  // merge is host work on the gathered runs, so it must start no earlier
  // than the latest shard completion on the query's route.
  const auto& world = algas::testing::tiny_world();
  ServingConfig cfg = tiny_serving_engine_config();
  cfg.sharded.shards = 2;
  cfg.sharded.base.admission.capacity = 4;
  cfg.sharded.base.admission.policy = ShedPolicy::kDropOldest;
  cfg.num_queries = 200;
  cfg.arrival = poisson_cfg(2e5);
  cfg.deadline_us = 20.0;
  ServingEngine e(world.ds, cfg);
  const auto rep = e.run();
  const auto& s = rep.sharded.merged.summary;
  ASSERT_GT(s.served, 0u);
  ASSERT_GT(s.evicted, 0u);

  std::vector<double> last_shard_done(world.ds.num_queries(), 0.0);
  for (const auto& r : rep.sharded.shard_records.records()) {
    last_shard_done[r.query_index] =
        std::max(last_shard_done[r.query_index], r.done_ns);
  }
  ASSERT_EQ(rep.sharded.merged.collector.size(), 200u);
  for (const auto& r : rep.sharded.merged.collector.records()) {
    EXPECT_GE(r.done_ns, last_shard_done[r.query_index])
        << "query " << r.query_index << " merged before a shard finished";
  }
}

}  // namespace
}  // namespace algas::core
