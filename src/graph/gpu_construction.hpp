// Virtual-time model of GANNS-style batched graph construction on the
// simulated GPU [Yu et al., ICDE'22].
//
// The paper's indexes are "NSW-GANNS" graphs: GANNS's contribution is
// constructing them on the GPU by inserting points in large batches — every
// point of a batch searches the already-built prefix concurrently (one CTA
// per insertion), then the batch's links are applied. The batched builder
// itself lives in nsw_builder.cpp (it is the one NSW builder, host-
// parallelized the same way); this module provides its per-insertion cost
// model, which the builder wave-schedules onto the device's CTA capacity
// (simgpu/wave_schedule.hpp): the functional output is the NSW graph, and
// the build *time* is a virtual-time measurement of the batched schedule
// on the device — reproducing GANNS's construction-speedup claim in-model.
#pragma once

#include "graph/builder.hpp"

namespace algas {

/// Modeled cost of one insertion whose search scored `scored` points:
/// distance work plus the candidate-list maintenance that accompanies it.
double construction_insert_cost_ns(const BuildConfig& cfg, std::size_t dim,
                                   std::size_t scored);

}  // namespace algas
