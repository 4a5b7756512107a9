// Online low-latency serving — the scenario the paper's introduction
// motivates: queries arrive as a Poisson stream and end-to-end latency
// (queueing included) is what users feel. Compares ALGAS's dynamic
// batching against a CAGRA-style static batcher at the same arrival rate:
// the static batcher must *wait to fill a batch*, dynamic slots start
// immediately.
#include <cstdio>
#include <vector>

#include "baselines/static_engine.hpp"
#include "core/engine.hpp"
#include "dataset/ground_truth.hpp"
#include "dataset/synthetic.hpp"
#include "graph/builder.hpp"
#include "simgpu/arrival.hpp"

using namespace algas;

namespace {

/// `n` arrivals of a seeded Poisson stream at `rate_qps`, cycling through
/// the dataset's `num_queries` queries.
std::vector<core::PendingQuery> poisson_arrivals(std::size_t n,
                                                 double rate_qps,
                                                 std::size_t num_queries) {
  sim::ArrivalConfig cfg;
  cfg.kind = sim::ArrivalKind::kPoisson;
  cfg.rate_qps = rate_qps;
  cfg.seed = 99;
  sim::ArrivalProcess process(cfg);
  std::vector<core::PendingQuery> arrivals;
  arrivals.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    arrivals.push_back({i % num_queries, process.next_arrival_ns()});
  }
  return arrivals;
}

}  // namespace

int main() {
  SyntheticSpec spec = sift_like_spec();
  spec.num_base = 4000;
  spec.num_queries = 256;
  Dataset ds = make_synthetic(spec);
  compute_ground_truth(ds, 16);
  const Graph graph = build_graph(GraphKind::kCagra, ds, BuildConfig{}).graph;

  std::printf("online serving on %s\n\n", ds.describe().c_str());
  std::printf("%10s %14s | %9s %9s %9s | %9s %9s %9s\n", "rate", "", "dyn p50",
              "dyn p95", "dyn p99", "stat p50", "stat p95", "stat p99");

  for (double rate : {20000.0, 50000.0, 100000.0}) {
    const auto arrivals = poisson_arrivals(400, rate, ds.num_queries());

    core::AlgasConfig dcfg;
    dcfg.search.topk = 10;
    dcfg.search.candidate_len = 128;
    dcfg.slots = 16;
    core::AlgasEngine dynamic(ds, graph, dcfg);
    const auto rd = dynamic.run(arrivals);

    baselines::StaticConfig scfg;
    scfg.search.topk = 10;
    scfg.search.candidate_len = 128;
    scfg.batch_size = 16;
    scfg.n_parallel = 4;
    baselines::StaticBatchEngine static_engine(ds, graph, scfg);
    const auto rs = static_engine.run(arrivals);

    // End-to-end latency (arrival -> result), the online-serving metric.
    std::printf("%7.0f/s %14s | %8.1fus %8.1fus %8.1fus | %8.1fus %8.1fus %8.1fus\n",
                rate, "", rd.summary.p50_latency_us, rd.summary.p95_latency_us,
                rd.summary.p99_latency_us, rs.summary.p50_latency_us,
                rs.summary.p95_latency_us, rs.summary.p99_latency_us);
  }

  std::printf(
      "\nstatic batching waits to fill each batch, so its tail latency "
      "explodes at low arrival rates;\ndynamic slots dispatch on arrival.\n");
  return 0;
}
