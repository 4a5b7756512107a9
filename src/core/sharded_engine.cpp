#include "core/sharded_engine.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "metrics/recall.hpp"
#include "search/topk_merge.hpp"
#include "simgpu/channel.hpp"
#include "simgpu/simulation.hpp"
#include "simgpu/sim_group.hpp"
#include "simgpu/trace.hpp"

namespace algas::core {

namespace {

/// Seed of the per-shard k-means routers (selective fanout).
constexpr std::uint64_t kRouterSeed = 11;

/// Scatter-side state of one in-flight query: which shards owe a run, the
/// runs received so far (indexed by the shard's position in the route, so
/// the concatenation order is shard-ascending regardless of completion
/// order), and the timing/work aggregates the merged record reports.
struct GatherState {
  std::vector<std::size_t> route;  ///< shards probed, ascending
  std::size_t received = 0;
  PendingQuery query;  ///< the arrival, as scattered to every routed shard
  SimTime dispatch_ns = std::numeric_limits<SimTime>::infinity();  // min
  SimTime gpu_done_ns = 0.0;                                       // max
  SimTime done_ns = 0.0;  ///< latest shard completion: when the merge may run
  /// Best outcome among the probed shards (min Disposition ordinal): one
  /// shard serving is enough for the merged query to serve — shards that
  /// shed or evicted just contribute an empty run. Starts at the worst
  /// ordinal and min-accumulates as shard records land.
  metrics::Disposition disposition = metrics::Disposition::kEvicted;
  QueryWork work;
  std::vector<std::vector<KV>> runs;  ///< one slot per routed shard
};

/// The serial host merge thread. Queries become ready when their last shard
/// run lands; the actor merges ONE query per busy window, charging
/// CostModel::host_topk_merge_ns(runs, k) and back-pressuring the rest —
/// cross-shard merging is host work, not free glue. The ready queue orders
/// by (ready time, push sequence); pushes happen in deterministic
/// simulation order, so the merge order — and therefore the final
/// collector — is reproducible bit for bit.
class MergeActor final : public sim::Actor {
 public:
  MergeActor(const sim::CostModel& cm, std::size_t topk,
             std::vector<GatherState>& gathers, metrics::Collector& out)
      : cm_(cm), topk_(topk), gathers_(gathers), out_(out) {}

  void set_tracer(sim::Tracer* t, int pid, int tid) {
    trace_ = t;
    trace_pid_ = pid;
    trace_tid_ = tid;
  }

  void push_ready(std::size_t query, SimTime when) {
    ready_.push(Ready{when, seq_++, query});
  }

  void step(sim::Simulation& sim) override {
    if (ready_.empty()) return;
    // An early wake (a query became ready mid-merge) just re-arms the
    // timer: the merge thread is serial, busy until busy_until_.
    if (sim.now() < busy_until_) {
      sim.schedule(this, busy_until_);
      return;
    }
    const Ready top = ready_.top();
    if (top.ready_ns > sim.now()) {
      sim.schedule(this, top.ready_ns);
      return;
    }
    ready_.pop();

    GatherState& g = gathers_[top.query];
    const std::size_t n_runs = g.runs.size();
    std::vector<KV> concat(n_runs * topk_, KV::empty());
    for (std::size_t r = 0; r < n_runs; ++r) {
      std::copy(g.runs[r].begin(), g.runs[r].end(),
                concat.begin() + static_cast<std::ptrdiff_t>(r * topk_));
    }
    const double elapsed = cm_.host_topk_merge_ns(n_runs, topk_);

    std::vector<KV> results;
    if (g.disposition == metrics::Disposition::kServed) {
      // Shards that shed/evicted left their run slot empty (KV::empty
      // padding); the merge tolerates that, so one serving shard suffices.
      // Runs carry global ids and were already filtered per shard — the
      // merge itself needs no further predicate.
      results = search::merge_sorted_runs(concat, n_runs, topk_, topk_,
                                          search::AcceptPredicate{});
    }
    // `slot` is repurposed: shard runs merged (== fanout).
    out_.add(make_query_record(g.query, n_runs, g.dispatch_ns, g.gpu_done_ns,
                               sim.now() + elapsed, g.disposition, g.work,
                               std::move(results)));

    if (trace_ != nullptr) {
      sim::TraceArgs args;
      args.add("query", static_cast<std::uint64_t>(top.query));
      args.add("runs", static_cast<std::uint64_t>(n_runs));
      trace_->complete(trace_pid_, trace_tid_,
                       "merge q" + std::to_string(top.query), sim.now(),
                       elapsed, std::move(args), "merge");
    }

    busy_until_ = sim.now() + elapsed;
    busy_ns_ += elapsed;
    ++merges_;
    g.runs.clear();
    g.runs.shrink_to_fit();
    if (!ready_.empty()) sim.schedule(this, busy_until_);
  }

  const char* name() const override { return "shard-merge"; }

  double busy_ns() const { return busy_ns_; }
  std::size_t merges() const { return merges_; }

 private:
  struct Ready {
    SimTime ready_ns;
    std::uint64_t seq;
    std::size_t query;
    bool operator>(const Ready& o) const {
      if (ready_ns != o.ready_ns) return ready_ns > o.ready_ns;
      return seq > o.seq;
    }
  };

  const sim::CostModel& cm_;
  std::size_t topk_;
  std::vector<GatherState>& gathers_;
  metrics::Collector& out_;
  std::priority_queue<Ready, std::vector<Ready>, std::greater<Ready>> ready_;
  std::uint64_t seq_ = 0;
  SimTime busy_until_ = 0.0;
  double busy_ns_ = 0.0;
  std::size_t merges_ = 0;
  sim::Tracer* trace_ = nullptr;
  int trace_pid_ = 0;
  int trace_tid_ = 0;
};

}  // namespace

ShardedEngine::ShardedEngine(const Dataset& ds, ShardedConfig cfg)
    : ds_(ds), cfg_(std::move(cfg)), part_(ds.num_base(), cfg_.shards) {
  if (cfg_.base.search.accept.has_tombstones()) {
    throw std::invalid_argument(
        "ShardedEngine: tombstones carry global ids and cannot filter "
        "shard-local searches; sharded serving requires an immutable view");
  }
  const std::size_t k = part_.shards();
  selective_ = cfg_.fanout >= 1 && cfg_.fanout < k;
  if (cfg_.base.search.accept.has_filter()) {
    // Precompute accepted-row counts per shard: route() consults them to
    // fall back to full fanout when every affinity-selected shard is
    // filter-empty.
    shard_accepted_.resize(k);
    for (std::size_t s = 0; s < k; ++s) {
      const auto r = part_.range(s);
      shard_accepted_[s] =
          cfg_.base.search.accept.accepted_in_range(r.begin, r.end);
    }
  }

  shard_ds_.reserve(k);
  graphs_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    shard_ds_.push_back(make_shard_dataset(ds_, part_, s));
    graphs_.push_back(
        build_graph(cfg_.graph_kind, shard_ds_[s], cfg_.build).graph);
  }
  // Engines after the dataset/graph vectors are final: AlgasEngine holds
  // references into them.
  engines_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    AlgasConfig shard_cfg = cfg_.base;
    if (k > 1 && cfg_.scale_candidate_len) {
      // Each shard searches 1/K of the base set, so ~1/K of the candidate
      // depth keeps the merged union's quality; normalize_config re-clamps
      // to a power of two >= topk and >= the graph degree.
      shard_cfg.search.candidate_len = search::scaled_candidate_len(
          cfg_.base.search.candidate_len, cfg_.base.search.topk, k);
    }
    if (shard_cfg.search.accept.has_filter()) {
      // The filter bitset is indexed by global id; shard s sees local ids,
      // so give it an offset view at its contiguous range start.
      shard_cfg.search.accept =
          cfg_.base.search.accept.with_offset(part_.range(s).begin);
    }
    if (k > 1 && shard_cfg.checker != nullptr) {
      // One checker cannot watch K interleaved runs (per-run reset, single
      // drain hook) — substitute a private instance per shard.
      shard_checks_.push_back(std::make_unique<sim::SimCheck>());
      shard_cfg.checker = shard_checks_.back().get();
    }
    engines_.push_back(std::make_unique<AlgasEngine>(
        shard_ds_[s], graphs_[s], std::move(shard_cfg)));
  }
  if (selective_) {
    baselines::IvfBuildConfig rcfg;
    rcfg.nlist = cfg_.router_centroids;
    rcfg.seed = kRouterSeed;
    routers_.reserve(k);
    for (std::size_t s = 0; s < k; ++s) {
      routers_.push_back(baselines::IvfIndex::build(shard_ds_[s], rcfg));
    }
  }
}

std::vector<std::size_t> ShardedEngine::route(std::size_t query_index) const {
  const std::size_t k = part_.shards();
  std::vector<std::size_t> out;
  if (!selective_) {
    out.resize(k);
    for (std::size_t s = 0; s < k; ++s) out[s] = s;
    return out;
  }
  // Shard affinity = min distance over the shard's router centroids; the
  // (affinity, shard) pair sort makes equal affinities resolve by shard id.
  std::vector<std::pair<float, std::size_t>> aff(k);
  for (std::size_t s = 0; s < k; ++s) {
    const auto dists = routers_[s].centroid_distances(ds_.query(query_index));
    float best = kInfDist;
    for (const float d : dists) best = std::min(best, d);
    aff[s] = {best, s};
  }
  std::sort(aff.begin(), aff.end());
  out.reserve(cfg_.fanout);
  for (std::size_t i = 0; i < cfg_.fanout; ++i) out.push_back(aff[i].second);
  std::sort(out.begin(), out.end());
  if (!shard_accepted_.empty()) {
    // Filter-aware fallback: centroid affinity is computed on vectors, not
    // attributes, so a selective route can land exclusively on shards the
    // filter empties out. If no selected shard holds an accepted row while
    // some other shard does, scatter to all — a guaranteed-empty answer is
    // worse than losing the fanout saving for this query.
    std::size_t selected_accepted = 0;
    for (const std::size_t s : out) selected_accepted += shard_accepted_[s];
    if (selected_accepted == 0) {
      std::size_t total_accepted = 0;
      for (const std::size_t c : shard_accepted_) total_accepted += c;
      if (total_accepted > 0) {
        out.resize(k);
        for (std::size_t s = 0; s < k; ++s) out[s] = s;
      }
    }
  }
  return out;
}

ShardedReport ShardedEngine::run_closed_loop(std::size_t num_queries) {
  return run(closed_loop_arrivals(std::min(num_queries, ds_.num_queries())));
}

ShardedReport ShardedEngine::run(const std::vector<PendingQuery>& arrivals) {
  const std::size_t k = part_.shards();

  if (k == 1) {
    // Degenerate single-shard path: the plain engine, untouched — no bus,
    // no gather, no label suffix. This is the K=1 byte-identity guarantee.
    ShardedReport rep;
    rep.merged = engines_[0]->run(arrivals);
    // The shard dataset dropped the ground truth (global ids are only
    // meaningful here, where shard0 IS the full range) — rescore recall
    // against the original dataset.
    rep.merged.recall = metrics::mean_served_recall(
        ds_, rep.merged.collector, cfg_.base.search.topk);
    rep.shards.push_back(rep.merged);
    rep.shard_records.merge(rep.merged.collector);
    rep.mean_fanout = 1.0;
    return rep;
  }

  // Routes + gather slots, keyed by query index (hence the uniqueness
  // requirement: two in-flight copies of one query would collide).
  std::vector<GatherState> gathers(ds_.num_queries());
  std::vector<std::vector<PendingQuery>> shard_arrivals(k);
  std::size_t routed_total = 0;
  for (const PendingQuery& a : arrivals) {
    if (a.query_index >= ds_.num_queries()) {
      throw std::invalid_argument("ShardedEngine: query index out of range");
    }
    GatherState& g = gathers[a.query_index];
    if (!g.route.empty()) {
      throw std::invalid_argument(
          "ShardedEngine: duplicate query index " +
          std::to_string(a.query_index) + " in arrivals");
    }
    g.route = route(a.query_index);
    g.query = a;
    g.runs.resize(g.route.size());
    routed_total += g.route.size();
    for (const std::size_t s : g.route) shard_arrivals[s].push_back(a);
  }

  const RunTrace trace = RunTrace::resolve(cfg_.base.tracer);
  sim::Tracer* const tracer = trace.tracer;
  int trace_pid = 0, bus_tid = 0, merge_tid = 0;
  if (tracer != nullptr) {
    trace_pid = tracer->begin_process(
        "algas-sharded:" + std::to_string(k) + "x" +
        std::to_string(selective_ ? cfg_.fanout : k));
    bus_tid = tracer->lane(trace_pid, "host bus");
    merge_tid = tracer->lane(trace_pid, "host merge");
  }

  sim::HostBus bus(cfg_.base.cost);
  if (tracer != nullptr) bus.set_tracer(tracer, trace_pid, bus_tid);

  sim::Simulation host_sim;
  if (tracer != nullptr) host_sim.set_tracer(tracer);
  metrics::Collector merged_collector;
  MergeActor merger(cfg_.base.cost, cfg_.base.search.topk, gathers,
                    merged_collector);
  if (tracer != nullptr) merger.set_tracer(tracer, trace_pid, merge_tid);

  std::vector<metrics::Collector> shard_collectors(k);
  std::vector<std::unique_ptr<EngineRun>> runs;
  runs.reserve(k);
  sim::SimulationGroup group;
  for (std::size_t s = 0; s < k; ++s) {
    RunAttach attach;
    attach.host_bus = &bus;
    attach.label_suffix = ":shard" + std::to_string(s);
    attach.deliver = [this, s, &gathers, &shard_collectors, &host_sim,
                      &merger](metrics::QueryRecord&& rec) {
      GatherState& g = gathers[rec.query_index];
      // Local -> global: one offset add per entry, monotone within the
      // shard, so the run stays sorted by (distance, id).
      for (KV& kv : rec.results) {
        kv = KV::make(kv.dist, part_.to_global(s, kv.id()));
      }
      g.dispatch_ns = std::min(g.dispatch_ns, rec.dispatch_ns);
      g.gpu_done_ns = std::max(g.gpu_done_ns, rec.gpu_done_ns);
      if (rec.disposition < g.disposition) g.disposition = rec.disposition;
      g.work += QueryWork{rec.steps, rec.rounds, rec.scored_points,
                          rec.gpu_cost};
      const auto it = std::find(g.route.begin(), g.route.end(), s);
      const auto ordinal =
          static_cast<std::size_t>(std::distance(g.route.begin(), it));
      // Records land in delivery order, not completion order: an evicted
      // shard's short host tail can be delivered after a served shard's
      // longer one, so the merge waits for the latest completion.
      g.done_ns = std::max(g.done_ns, rec.done_ns);
      g.runs[ordinal] = rec.results;  // keep a copy in the diagnostics view
      const std::size_t query = rec.query_index;
      shard_collectors[s].add(std::move(rec));
      if (++g.received == g.route.size()) {
        merger.push_ready(query, g.done_ns);
        host_sim.schedule(&merger, g.done_ns);
      }
    };
    runs.push_back(std::make_unique<EngineRun>(*engines_[s],
                                               shard_arrivals[s],
                                               std::move(attach)));
    group.add(&runs[s]->simulation());
  }
  group.add(&host_sim);
  group.run();

  if (merged_collector.size() != arrivals.size()) {
    throw std::logic_error(
        "ShardedEngine: merged " + std::to_string(merged_collector.size()) +
        " of " + std::to_string(arrivals.size()) + " queries");
  }

  ShardedReport rep;
  rep.shards.reserve(k);
  EngineReport& m = rep.merged;
  for (std::size_t s = 0; s < k; ++s) {
    EngineReport r = runs[s]->finish();
    m.pcie_transactions += r.pcie_transactions;
    m.pcie_state_transactions += r.pcie_state_transactions;
    m.pcie_state_poll_transactions += r.pcie_state_poll_transactions;
    m.pcie_state_write_transactions += r.pcie_state_write_transactions;
    m.pcie_bytes += r.pcie_bytes;
    m.host_polls += r.host_polls;
    m.device_polls += r.device_polls;
    m.interrupts += r.interrupts;
    m.host_worker_steps += r.host_worker_steps;
    m.host_busy_ns += r.host_busy_ns;
    m.cta_busy_ns += r.cta_busy_ns;
    m.cta_count += r.cta_count;
    m.sim_events += r.sim_events;
    m.sim_stale_events += r.sim_stale_events;
    m.simcheck_checks += r.simcheck_checks;
    rep.shards.push_back(std::move(r));
    rep.shard_records.merge(shard_collectors[s]);
  }
  m.sim_events += host_sim.events_processed();
  m.sim_stale_events += host_sim.stale_events();
  m.host_busy_ns += merger.busy_ns();

  m.plan = engines_[0]->plan();
  // PCIe totals are the shards' sums above, so no channel is passed.
  finish_report(m, std::move(merged_collector), ds_, cfg_.base.search.topk,
                nullptr, trace);

  rep.bus_transactions = bus.transactions();
  rep.bus_bytes = bus.bytes();
  rep.bus_utilization = bus.utilization(m.summary.span_ns);
  rep.merge_busy_ns = merger.busy_ns();
  rep.merges = merger.merges();
  rep.mean_fanout = arrivals.empty()
                        ? 0.0
                        : static_cast<double>(routed_total) /
                              static_cast<double>(arrivals.size());
  return rep;
}

}  // namespace algas::core
