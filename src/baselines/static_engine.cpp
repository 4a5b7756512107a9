#include "baselines/static_engine.hpp"

#include <algorithm>
#include <stdexcept>

#include "core/tuner.hpp"
#include "search/multi_cta.hpp"
#include "simgpu/channel.hpp"
#include "simgpu/trace.hpp"
#include "simgpu/wave_schedule.hpp"

namespace algas::baselines {

StaticConfig ganns_preset(StaticConfig cfg) {
  cfg.search.beam_width = 1;  // strictly greedy maintenance, no beam extend
  cfg.search.full_sort_maintenance = true;  // heavier per-round upkeep
  cfg.n_parallel = 1;  // no multi-CTA implementation
  cfg.merge = MergeMode::kNone;
  cfg.trace_label = "ganns";
  return cfg;
}

StaticBatchEngine::StaticBatchEngine(const Dataset& ds, const Graph& g,
                                     StaticConfig cfg)
    : ds_(ds), g_(g), cfg_(std::move(cfg)) {
  cfg_.search = search::normalize_config(cfg_.search, g.degree());
  if (cfg_.batch_size == 0) {
    throw std::invalid_argument("batch_size must be >= 1");
  }

  sim::SharedMemoryLayout layout;
  layout.candidate_entries = cfg_.search.candidate_len;
  layout.expand_entries =
      next_pow2(std::max<std::size_t>(1, cfg_.search.beam_width) *
                g.degree());
  layout.dim = ds.dim();
  layout.elem_bytes = ds.elem_bytes();
  const std::size_t reserved = core::auto_reserved_bytes(ds.dim());
  capacity_ = sim::device_capacity(cfg_.device, layout, reserved);
  if (capacity_ == 0) {
    throw std::invalid_argument(
        "search configuration exceeds device shared memory");
  }

  if (cfg_.n_parallel != 0) {
    n_parallel_ = cfg_.n_parallel;
  } else {
    // Fill the device across the batch, capped at 16 CTAs per query
    // (CAGRA's multi-CTA practical ceiling).
    n_parallel_ = std::clamp<std::size_t>(capacity_ / cfg_.batch_size, 1, 16);
  }
  if (cfg_.merge == MergeMode::kNone && n_parallel_ > 1) {
    throw std::invalid_argument("multi-CTA search requires a merge mode");
  }
}

core::EngineReport StaticBatchEngine::run_closed_loop(
    std::size_t num_queries) {
  return run(core::closed_loop_arrivals(
      std::min(num_queries, ds_.num_queries())));
}

core::EngineReport StaticBatchEngine::run(
    const std::vector<core::PendingQuery>& arrivals) {
  const sim::CostModel& cm = cfg_.cost;
  sim::Channel channel(cm);
  metrics::Collector collector;

  // SimTrace wiring mirrors the ALGAS engine: explicit tracer, else the
  // ALGAS_TRACE default, else untraced. Lane names match ALGAS ("slot <b>")
  // so the dynamic and static timelines compare side by side in Perfetto.
  const core::RunTrace trace = core::RunTrace::resolve(cfg_.tracer);
  sim::Tracer* const tracer = trace.tracer;
  int tpid = 0;
  int batch_tid = 0;
  std::vector<int> slot_tid(cfg_.batch_size, 0);
  if (tracer) {
    tpid = tracer->begin_process(cfg_.trace_label);
    const int link_tid = tracer->lane(tpid, "pcie link");
    batch_tid = tracer->lane(tpid, "batch");
    for (std::size_t b = 0; b < cfg_.batch_size; ++b) {
      slot_tid[b] = tracer->lane(tpid, "slot " + std::to_string(b));
    }
    channel.set_tracer(tracer, tpid, link_tid);
  }

  double clock = 0.0;  // device free time (kernels serialize)
  std::size_t cursor_q = 0;
  while (cursor_q < arrivals.size()) {
    const std::size_t batch_n =
        std::min(cfg_.batch_size, arrivals.size() - cursor_q);
    const auto batch =
        std::span<const core::PendingQuery>(arrivals).subspan(cursor_q,
                                                              batch_n);
    cursor_q += batch_n;

    // Static batching waits for the whole batch to accumulate.
    double batch_ready = clock;
    for (const auto& q : batch) {
      batch_ready = std::max(batch_ready, q.arrival_ns);
    }

    double cursor = batch_ready + cm.kernel_launch_ns;
    cursor += channel.transfer(cursor, batch_n * ds_.dim() * ds_.elem_bytes(),
                               sim::Xfer::kBulk);
    const double kernel_start = cursor;

    // Functional searches + per-CTA durations for the wave schedule.
    std::vector<sim::CtaTask> tasks;
    tasks.reserve(batch_n * n_parallel_);
    std::vector<double> merge_ns(batch_n, 0.0);
    std::vector<search::MultiCtaResult> results;
    results.reserve(batch_n);
    for (std::size_t b = 0; b < batch_n; ++b) {
      auto res = search::multi_cta_search(
          ds_, g_, cm, cfg_.search, n_parallel_,
          ds_.query(batch[b].query_index), batch[b].query_index, cfg_.seed);
      for (std::size_t t = 0; t < res.per_cta_ns.size(); ++t) {
        tasks.push_back({b, res.per_cta_ns[t]});
      }
      switch (cfg_.merge) {
        case MergeMode::kGpuDivideConquer:
          merge_ns[b] = cm.gpu_topk_merge_ns(n_parallel_, res.run_len);
          break;
        case MergeMode::kHost:
          // Charged on the host below, after the result transfer.
          break;
        case MergeMode::kNone:
          break;
      }
      results.push_back(std::move(res));
    }

    const sim::BatchTiming timing =
        sim::wave_schedule(tasks, batch_n, capacity_, merge_ns);
    collector.add_batch_idle(timing.idle_ns, timing.active_ns);
    const double gpu_end = kernel_start + timing.gpu_end_ns;

    // Bulk result transfer: CAGRA ships merged TopK; host-merge mode ships
    // every CTA's candidate list.
    const std::size_t result_bytes =
        cfg_.merge == MergeMode::kHost
            ? batch_n * n_parallel_ * results.front().run_len *
                  sim::kListEntryBytes
            : batch_n * cfg_.search.topk * sim::kListEntryBytes;
    double done = gpu_end + channel.transfer(gpu_end, result_bytes,
                                             sim::Xfer::kBulk);
    if (cfg_.merge == MergeMode::kHost) {
      done += static_cast<double>(batch_n) *
              cm.host_topk_merge_ns(n_parallel_, cfg_.search.topk);
    }
    done += cm.host_dispatch_ns;  // batch completion bookkeeping

    if (tracer) {
      const std::size_t batch_index = (cursor_q - batch_n) / cfg_.batch_size;
      sim::TraceArgs bargs;
      bargs.add("queries", static_cast<std::uint64_t>(batch_n));
      bargs.add("idle_ns", timing.idle_ns);
      bargs.add("active_ns", timing.active_ns);
      tracer->complete(tpid, batch_tid, "batch " + std::to_string(batch_index),
                       batch_ready, done - batch_ready, std::move(bargs),
                       "batch");
      for (std::size_t b = 0; b < batch_n; ++b) {
        const double own_end = kernel_start + timing.query_final[b];
        sim::TraceArgs qargs;
        qargs.add("query", static_cast<std::uint64_t>(batch[b].query_index));
        tracer->complete(tpid, slot_tid[b],
                         "q" + std::to_string(batch[b].query_index),
                         kernel_start, own_end - kernel_start,
                         std::move(qargs), "cta");
        // The §III-A query bubble: finished, but barriered on the batch.
        if (done > own_end) {
          sim::TraceArgs wargs;
          wargs.add("wait_ns", done - own_end);
          tracer->complete(tpid, slot_tid[b], "bubble", own_end,
                           done - own_end, std::move(wargs), "bubble");
        }
      }
      tracer->counter(tpid, "delivered", done,
                      static_cast<double>(cursor_q));
    }

    for (std::size_t b = 0; b < batch_n; ++b) {
      metrics::QueryRecord rec;
      rec.query_index = batch[b].query_index;
      rec.slot = (cursor_q - batch_n) / cfg_.batch_size;  // batch index
      rec.arrival_ns = batch[b].arrival_ns;
      rec.dispatch_ns = batch_ready;
      rec.done_ns = done;  // batch barrier: everyone waits for the slowest
      rec.steps = results[b].per_cta_total.expanded_points;
      rec.rounds = results[b].per_cta_total.rounds;
      rec.gpu_cost = results[b].per_cta_total.cost;
      rec.results = std::move(results[b].topk);
      collector.add(std::move(rec));
    }
    clock = done;
  }

  core::EngineReport rep;
  rep.plan.ok = true;
  rep.plan.n_parallel = n_parallel_;
  rep.plan.total_ctas = n_parallel_ * cfg_.batch_size;
  rep.plan.threads_per_block = cfg_.device.warp_size;
  rep.plan.reason = "static baseline (capacity " + std::to_string(capacity_) +
                    " blocks)";
  core::finish_report(rep, std::move(collector), ds_, cfg_.search.topk,
                      &channel, trace);
  return rep;
}

}  // namespace algas::baselines
