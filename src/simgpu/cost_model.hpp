// Virtual-time cost model for the simulated GPU.
//
// Every operation an engine performs (distance round, bitonic sort stage,
// state poll, PCIe transaction, kernel launch, host merge) charges virtual
// nanoseconds computed here. The *functional* work still executes in real
// floats; only the clock is modeled.
//
// Calibration: constants are set so that a SIFT-like query (dim 128, degree
// 32, candidate list 128) lands in the hundreds-of-microseconds regime the
// paper's figures occupy, with a compute:sort split matching Fig 3's
// 19.9%–33.9% sorting share under greedy extend. EXPERIMENTS.md records the
// measured split.
#pragma once

#include <cmath>
#include <cstddef>

#include "common/types.hpp"

namespace algas::sim {

struct CostModel {
  // --- Device-side search work (per CTA, 1 warp = 32 lanes) -------------
  /// Fixed cost of scoring one neighbor (index math, global-memory issue).
  double dist_base_ns = 20.0;
  /// Per ceil(dim/warp) chunk of fused multiply-add work for one neighbor.
  double dist_chunk_ns = 3.4;
  /// Gathering one neighbor id from the adjacency list.
  double gather_per_neighbor_ns = 1.6;
  /// One visited-bitmap test-and-set (shared across CTAs -> L2 atomic).
  double bitmap_check_ns = 2.2;
  /// One element-wise compare/exchange processed by the warp during a
  /// bitonic stage (per 32-element wavefront).
  double sort_wavefront_ns = 6.0;
  /// Selecting the best unvisited candidate (scan of candidate list).
  double select_per_wavefront_ns = 4.0;

  // --- Device-side cross-CTA merge (CAGRA-style baseline) ---------------
  /// Per-element cost of the on-GPU divide-and-conquer TopK merge. Global
  /// memory traffic makes this far slower than shared-memory sorting; the
  /// divide-and-conquer halving also idles half the lanes per round (§III-B).
  double gpu_merge_per_elem_ns = 9.0;
  /// Fixed cross-CTA synchronization cost per merge round (grid sync /
  /// global barrier).
  double gpu_merge_round_ns = 950.0;

  // --- Host <-> device channel ("PCIe") ---------------------------------
  /// One-way transaction latency, experienced by the issuer. The link
  /// itself is pipelined: latency does NOT serialize transactions.
  double pcie_latency_ns = 600.0;
  /// Per-transaction link occupancy (header/arbitration) — the quantity
  /// that actually bounds the transaction *rate* on a shared link.
  double pcie_txn_overhead_ns = 40.0;
  /// Effective bandwidth, bytes per nanosecond (22 GB/s ~= PCIe 4 x16 eff.).
  double pcie_bytes_per_ns = 22.0;
  /// Aggregate host-side bandwidth shared by every device link (bytes per
  /// nanosecond). Models the root-complex / memory-bus ceiling a sharded
  /// deployment hits: each shard owns a full 22 GB/s link, but their DMA
  /// traffic converges on one host, so past ~3 concurrent shards the
  /// per-link bandwidth no longer adds up (64 / 22 ≈ 2.9).
  double host_bus_bytes_per_ns = 64.0;
  /// Host-bus arbitration overhead per data-plane transaction.
  double host_bus_txn_overhead_ns = 20.0;
  /// Polling a state that lives across the channel (naive mode, §V-A).
  double poll_remote_ns = 600.0;
  /// Polling a local state mirror (optimized mode, §V-A).
  double poll_local_ns = 25.0;
  /// Write-through of one state change to the remote mirror.
  double state_write_ns = 600.0;
  /// Device->host completion interrupt delivery (driver + syscall wake) in
  /// blocking mode (§V-A discusses blocking as the polling alternative).
  double interrupt_latency_ns = 4000.0;
  /// Host-side cost of handling one wake-up in blocking mode.
  double blocking_wake_ns = 800.0;

  // --- Host-side work ----------------------------------------------------
  /// Heap setup per sorted run in the host TopK merge (§IV-B step 4).
  double host_merge_init_per_run_ns = 60.0;
  /// One heap pop+push while extracting merged results.
  double host_merge_pop_ns = 25.0;
  /// Host thread bookkeeping per scheduling iteration.
  double host_loop_ns = 120.0;
  /// Preparing one query for dispatch (metadata, slot fill, stream submit).
  double host_dispatch_ns = 900.0;
  /// Submitting + reaping the per-slot result read on the host IO stream
  /// (§V-B: "private IO streams ... retrieves results sequentially through
  /// the stream"). Paid once per completed query.
  double host_io_submit_ns = 1200.0;
  /// Shedding one expired query at the queue head (deadline bookkeeping +
  /// caller notification). Paid by a host worker per query it drops at
  /// dispatch time instead of filling a slot.
  double host_shed_ns = 150.0;
  /// Evicting one finished-past-deadline slot: marking the states Expired
  /// is charged through StateSync like any transition; this is the
  /// bookkeeping of discarding the result block WITHOUT the fetch/merge
  /// the Done path would have paid.
  double host_evict_ns = 200.0;

  // --- Per-query CTA lifecycle -------------------------------------------
  /// Fixed CTA start-of-query cost (loading the query into shared memory,
  /// resetting cursors).
  double cta_start_ns = 350.0;
  /// Clearing one 64-bit word of this CTA's share of the visited bitmap.
  double bitmap_clear_per_word_ns = 0.04;
  /// Writing one candidate-list entry to the slot's global result block.
  double result_write_per_entry_ns = 0.6;

  // --- Kernel lifecycle ---------------------------------------------------
  /// Launch + teardown of one kernel (driver, scheduling). Paid per batch by
  /// the static baselines; paid once by the persistent kernel.
  double kernel_launch_ns = 9000.0;
  /// Device-side poll interval of a persistent-kernel CTA waiting for Work.
  double cta_poll_interval_ns = 180.0;
  /// Host poll interval while waiting on slot states.
  double host_poll_interval_ns = 250.0;

  // --- Derived helpers ----------------------------------------------------

  /// Distance evaluation of `n_points` candidates of dimension `dim` by one
  /// warp: lanes split the dimension (Algorithm 1 lines 10-13) and shuffle-
  /// reduce, so cost scales with ceil(dim/warp) per point. `elem_bytes` is
  /// the stored element width (4 = f32, 2 = f16, 1 = int8): a warp chunk
  /// moves warp * 4 bytes of row data, so narrower storage packs more
  /// dimensions per chunk — the memory-bandwidth win quantized rows buy.
  /// For f32 this reduces exactly to the historical ceil(dim/warp).
  double distance_round_ns(std::size_t dim, std::size_t n_points,
                           std::size_t warp = 32,
                           std::size_t elem_bytes = sizeof(float)) const {
    const double chunks = static_cast<double>(
        ceil_div(dim * elem_bytes, warp * sizeof(float)));
    return static_cast<double>(n_points) *
           (dist_base_ns + dist_chunk_ns * chunks);
  }

  /// Full bitonic sort of n elements (n a power of two) by one warp:
  /// k(k+1)/2 stages, each touching n/2 pairs in wavefronts of `warp`.
  double bitonic_sort_ns(std::size_t n, std::size_t warp = 32) const {
    if (n <= 1) return 0.0;
    const double k = std::log2(static_cast<double>(n));
    const double stages = k * (k + 1.0) / 2.0;
    const double wavefronts = static_cast<double>(ceil_div(n / 2, warp));
    return stages * wavefronts * sort_wavefront_ns;
  }

  /// Bitonic merge of two sorted runs totalling n elements: log2(n) stages.
  double bitonic_merge_ns(std::size_t n, std::size_t warp = 32) const {
    if (n <= 1) return 0.0;
    const double stages = std::log2(static_cast<double>(n));
    const double wavefronts = static_cast<double>(ceil_div(n / 2, warp));
    return stages * wavefronts * sort_wavefront_ns;
  }

  /// Scan of the candidate list for the best unvisited entry.
  double select_ns(std::size_t list_len, std::size_t warp = 32) const {
    return static_cast<double>(ceil_div(list_len, warp)) *
           select_per_wavefront_ns;
  }

  /// On-GPU divide-and-conquer merge of `runs` sorted runs of length `len`
  /// (the Multi-CTA TopK merge ALGAS eliminates). ceil(log2(runs)) rounds;
  /// each round processes all surviving elements through global memory while
  /// the other half of the lanes idle.
  double gpu_topk_merge_ns(std::size_t runs, std::size_t len) const {
    if (runs <= 1) return 0.0;
    double total = 0.0;
    std::size_t active = runs;
    while (active > 1) {
      total += gpu_merge_round_ns +
               static_cast<double>(active * len) * gpu_merge_per_elem_ns;
      active = (active + 1) / 2;
    }
    return total;
  }

  /// Host-side merge of `runs` sorted runs into the k best: the bounded
  /// priority queue touches each run head once plus ~k pops — it never
  /// scans the full lists (unlike the GPU divide-and-conquer merge).
  double host_topk_merge_ns(std::size_t runs, std::size_t k) const {
    if (runs == 0) return 0.0;
    const double logr = std::log2(static_cast<double>(runs) + 1.0);
    return host_merge_init_per_run_ns * static_cast<double>(runs) +
           host_merge_pop_ns * static_cast<double>(k) * logr;
  }

  /// Link occupancy of one transaction (what serializes on the channel).
  double transfer_occupancy_ns(std::size_t bytes) const {
    return pcie_txn_overhead_ns +
           static_cast<double>(bytes) / pcie_bytes_per_ns;
  }

  /// Host-bus occupancy of one data-plane transaction (what serializes on
  /// the shared host side when several shard links converge on one host).
  double host_bus_occupancy_ns(std::size_t bytes) const {
    return host_bus_txn_overhead_ns +
           static_cast<double>(bytes) / host_bus_bytes_per_ns;
  }
};

}  // namespace algas::sim
