// Fig 18 — host-side parallel processing (§V-B) and the state-copy
// optimization (§V-A): throughput with host threads in {1, 2, 4}, with and
// without GDRCopy-style local state mirrors, at batch 32 where a single
// host thread struggles. Low-dimensional datasets (SIFT) benefit most.
#include <iostream>

#include "bench_common.hpp"
#include "core/engine.hpp"

using namespace algas;

int main() {
  bench::print_header("fig18_host_parallel",
                      "Fig 18: host threads x state mirroring");

  metrics::TsvTable table({"dataset", "host_threads", "state_mirroring",
                           "recall", "mean_latency_us", "throughput_qps",
                           "state_poll_txns"});

  constexpr std::size_t kBatch = 32;
  constexpr std::size_t kList = 128;

  for (const auto& name : bench::selected_datasets()) {
    const Dataset& ds = bench::dataset(name);
    const Graph& g = bench::graph(name, GraphKind::kCagra);
    const std::size_t nq = bench::query_budget(ds, 200);

    for (std::size_t hosts : {1, 2, 4}) {
      for (bool mirrored : {false, true}) {
        auto cfg = bench::algas_config(kBatch, kList, 16, 2);
        cfg.host_threads = hosts;
        cfg.host_sync = mirrored ? core::HostSync::kPollMirrored
                                 : core::HostSync::kPollNaive;
        core::AlgasEngine engine(ds, g, cfg);
        const auto rep = engine.run_closed_loop(nq);
        table.row()
            .cell(name)
            .cell(hosts)
            .cell(std::string(mirrored ? "on" : "off"))
            .cell(rep.recall, 4)
            .cell(rep.summary.mean_service_us, 1)
            .cell(rep.summary.throughput_qps, 0)
            .cell(rep.pcie_state_poll_transactions);
      }
    }
  }

  std::cout << "# expected: more host threads help, mirroring helps, "
               "low-dim datasets gain most\n";
  table.print(std::cout);
  return 0;
}
