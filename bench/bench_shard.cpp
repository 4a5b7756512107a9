// bench_shard — scatter-gather scaling across simulated device shards.
//
// Sweeps shard count x slots x fan-out over the first two bench datasets
// and reports the modeled serving numbers: recall@10, service latency,
// queries/s, shared-host-bus occupancy and the serial merge-thread load.
// The headline claim this bench gates is that sharding the base set across
// K devices raises modeled throughput monotonically at fixed slot count —
// each shard searches a smaller graph while K searches run concurrently,
// and the host-side k-way merge + bus contention it buys stays cheap.
//
// CI gates three things off the JSON (scripts/check_gate.py on
// bench/shard_baseline.json):
//   * recall: the full-fanout variant must match the baseline exactly
//     (deterministic chain), the selective variant may trail the same-run
//     full recall by a pinned epsilon (--exact full --eps selective=...).
//   * determinism: the bench runs twice with ALGAS_SHARD_HOSTS=1 and =4;
//     the per-variant results_checksum (bench::results_checksum over the
//     merged per-query results) must be byte-identical — host thread
//     count must never leak into merged results.
//   * wall clock: sharded_distance_evals_per_s has a floor (the sharded
//     serving path is a real host hot loop).
//
// Knobs (environment, same semantics as the other benches):
//   ALGAS_SCALE        dataset size multiplier (CI gate uses 0.05)
//   ALGAS_QUERIES      queries per configuration (CI: 40)
//   ALGAS_DATASETS     first two names are swept (default sift,gist)
//   ALGAS_SHARD_HOSTS  host worker threads per shard engine (default 1)
//   ALGAS_SHARD_OUT    output JSON path (default "BENCH_shard.json")
#include <chrono>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "common/env.hpp"
#include "core/sharded_engine.hpp"
#include "metrics/table.hpp"

using namespace algas;

namespace {

constexpr std::size_t kTopk = 10;
constexpr std::size_t kCandidateLen = 1024;

core::ShardedConfig sharded_config(std::size_t shards, std::size_t slots,
                                   std::size_t fanout,
                                   std::size_t host_threads) {
  core::ShardedConfig cfg;
  cfg.base = bench::algas_config(slots, kCandidateLen, kTopk);
  cfg.base.host_threads = host_threads;
  cfg.shards = shards;
  cfg.fanout = fanout;
  cfg.build = bench::bench_build_config();
  return cfg;
}

struct Row {
  std::string dataset;
  std::size_t shards, slots, fanout;
  core::ShardedReport rep;
  double wall_s = 0.0;
};

double seconds_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}

}  // namespace

int main() {
  bench::print_header(
      "shard",
      "scatter-gather scaling: shards x slots x fan-out, host-side k-way "
      "merge priced against a shared host bus");

  const RuntimeOptions opts = RuntimeOptions::from_env();
  const std::size_t host_threads = opts.shard_hosts;

  auto names = bench::selected_datasets();
  if (names.size() > 2) names.resize(2);  // shard scaling needs two datasets

  // The sweep: shard scaling at fixed slots (the monotonicity gate), a
  // slot halving at K=4, and a selective fan-out point.
  struct Config {
    std::size_t shards, slots, fanout;
  };
  const std::vector<Config> sweep = {
      {1, 16, 0}, {2, 16, 0}, {4, 16, 0}, {4, 8, 0}, {4, 16, 2},
  };

  std::vector<Row> rows;
  for (const auto& name : names) {
    const Dataset& ds = bench::dataset(name);
    const std::size_t nq = bench::query_budget(ds, 100);
    for (const auto& c : sweep) {
      core::ShardedEngine engine(
          ds, sharded_config(c.shards, c.slots, c.fanout, host_threads));
      const auto t0 = std::chrono::steady_clock::now();
      Row row{name, c.shards, c.slots, c.fanout,
              engine.run_closed_loop(nq), 0.0};
      row.wall_s = seconds_since(t0);
      rows.push_back(std::move(row));
    }
  }

  metrics::TsvTable table({"dataset", "shards", "slots", "fanout",
                           "recall_at_10", "mean_service_us",
                           "p99_service_us", "qps", "bus_busy_pct",
                           "merge_busy_us"});
  for (const auto& r : rows) {
    table.row()
        .cell(r.dataset)
        .cell(r.shards)
        .cell(r.slots)
        .cell(r.fanout)
        .cell(r.rep.merged.recall, 4)
        .cell(r.rep.merged.summary.mean_service_us, 1)
        .cell(r.rep.merged.summary.p99_service_us, 1)
        .cell(r.rep.merged.summary.throughput_qps, 0)
        .cell(100.0 * r.rep.bus_utilization, 1)
        .cell(r.rep.merge_busy_ns / 1e3, 1);
  }
  table.print(std::cout);

  // Shard-scaling check: at slots=16, full fan-out, modeled queries/s must
  // rise monotonically 1 -> 2 -> 4 shards on every swept dataset.
  struct Scaling {
    std::string dataset;
    std::vector<double> qps;
    bool monotonic = true;
  };
  std::vector<Scaling> scaling;
  for (const auto& name : names) {
    Scaling s{name, {}, true};
    for (const std::size_t k : {1u, 2u, 4u}) {
      for (const auto& r : rows) {
        if (r.dataset == name && r.shards == k && r.slots == 16 &&
            r.fanout == 0) {
          s.qps.push_back(r.rep.merged.summary.throughput_qps);
        }
      }
    }
    for (std::size_t i = 1; i < s.qps.size(); ++i) {
      if (s.qps[i] <= s.qps[i - 1]) s.monotonic = false;
    }
    std::printf("# scaling %s slots=16: qps %.0f -> %.0f -> %.0f %s\n",
                name.c_str(), s.qps[0], s.qps[1], s.qps[2],
                s.monotonic ? "(monotonic)" : "(NOT monotonic)");
    scaling.push_back(std::move(s));
  }

  // Gate dataset (first name): the full-fanout K=4 point doubles as the
  // recall/determinism variant and the wall-clock measurement; the
  // selective point is the eps-gated variant.
  const Row* full = nullptr;
  const Row* selective = nullptr;
  for (const auto& r : rows) {
    if (r.dataset != names.front() || r.slots != 16) continue;
    if (r.shards == 4 && r.fanout == 0) full = &r;
    if (r.shards == 4 && r.fanout == 2) selective = &r;
  }
  if (full == nullptr || selective == nullptr) {
    throw std::logic_error("gate configurations missing from sweep");
  }
  double full_scored = 0.0;
  for (const auto& rec : full->rep.merged.collector.records()) {
    full_scored += static_cast<double>(rec.scored_points);
  }
  const double evals_per_s = full_scored / full->wall_s;

  const Dataset& gate_ds = bench::dataset(names.front());
  const std::size_t nq = bench::query_budget(gate_ds, 100);
  bench::JsonWriter json(opts.shard_out);
  json.field("bench", "bench_shard")
      .field("dataset", names.front())
      .field("n_base", gate_ds.num_base())
      .field("dim", gate_ds.dim())
      .field("queries", nq)
      .field("topk", kTopk)
      .field("candidate_len", kCandidateLen)
      .field("shards", std::size_t{4})
      .field("shard_hosts", host_threads)
      .field("sharded_distance_evals_per_s", evals_per_s)
      .object("variants");
  const auto variant = [&json](const char* key, const Row& row) {
    const std::string checksum =
        bench::hex64(bench::results_checksum(row.rep.merged.collector));
    json.object(key)
        .field("recall_at_10", row.rep.merged.recall)
        .field("mean_latency_us", row.rep.merged.summary.mean_service_us)
        .field("results_checksum", checksum)
        .close();
  };
  variant("full", *full);
  variant("selective", *selective);
  json.close().array("scaling");
  for (const auto& s : scaling) {
    json.object()
        .field("dataset", s.dataset)
        .field("slots", std::size_t{16})
        .array("qps");
    for (const double q : s.qps) json.field({}, q);
    json.close().field("monotonic", s.monotonic).close();
  }
  json.close().finish();
  return 0;
}
