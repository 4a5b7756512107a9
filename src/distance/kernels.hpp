// Batched distance kernels — the host-side mirror of one warp's coalesced
// distance round (§IV-B step 3): score a whole gathered expand list against
// one query in a single call.
//
// f32 results are BITWISE-IDENTICAL to calling distance() once per point:
// each point keeps its own accumulator walking dimensions in the scalar
// order (no reassociation, no fast-math). The speedup comes from everything
// *around* the float chain — one metric dispatch per batch instead of per
// point, hoisting the query norm out of the cosine loop, software prefetch
// of upcoming base rows, and instruction-level parallelism across points
// (each point's chain is serial, but 4 independent chains keep the FP
// pipeline full — the CPU analogue of the warp's lanes working 4 neighbors).
//
// The f16/int8 variants keep the same 4-wide ILP structure but dequantize
// each element in-register (half widening / scale * q) before it enters the
// accumulator chain, so a quantized batch result is bitwise-equal to
// decoding the row into floats and running the f32 kernel on it — the
// property the VectorStore tests pin. Quantized results are NOT bitwise-
// equal to f32 scoring of the original rows; that gap is what the recall
// gate (bench/recall_gate + scripts/check_gate.py) bounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "common/types.hpp"
#include "distance/distance.hpp"

namespace algas {

/// Score base rows `ids` (rows of the row-major `base` matrix, `dim` floats
/// each) against `query`, writing distance(m, query, row) into `out[k]` for
/// `ids[k]`. `out.size()` must be >= `ids.size()`; duplicate ids are fine.
///
/// `base_norms` is an optional per-row L2-norm table (norm(row_i) at index
/// i) used only by the cosine metric; empty recomputes norms per call,
/// exactly like the scalar kernel. A table entry must equal norm(row)
/// bitwise for the batched cosine to stay bitwise-identical — Dataset's
/// cached table guarantees this by construction.
void distance_batch(Metric m, std::span<const float> query, const float* base,
                    std::size_t dim, std::span<const NodeId> ids,
                    std::span<float> out,
                    std::span<const float> base_norms = {});

/// Contiguous variant: score rows [first, first + count), writing out[k]
/// for row first + k. Used by the exhaustive scans (ground truth, IVF
/// coarse/list scans, medoid) where the id list is a range.
void distance_batch_range(Metric m, std::span<const float> query,
                          const float* base, std::size_t dim,
                          std::size_t first, std::size_t count,
                          std::span<float> out,
                          std::span<const float> base_norms = {});

/// f16 rows: `base` holds binary16 bits, widened per element in-register.
/// For cosine, `base_norms` entries must be norms of the DECODED rows.
void distance_batch_f16(Metric m, std::span<const float> query,
                        const std::uint16_t* base, std::size_t dim,
                        std::span<const NodeId> ids, std::span<float> out,
                        std::span<const float> base_norms = {});

void distance_batch_range_f16(Metric m, std::span<const float> query,
                              const std::uint16_t* base, std::size_t dim,
                              std::size_t first, std::size_t count,
                              std::span<float> out,
                              std::span<const float> base_norms = {});

/// int8 rows: element j of row i dequantizes as row_scales[i] * base[i*dim+j]
/// inside the accumulator loop. For cosine, `base_norms` entries must be
/// norms of the DECODED rows.
void distance_batch_i8(Metric m, std::span<const float> query,
                       const std::int8_t* base, const float* row_scales,
                       std::size_t dim, std::span<const NodeId> ids,
                       std::span<float> out,
                       std::span<const float> base_norms = {});

void distance_batch_range_i8(Metric m, std::span<const float> query,
                             const std::int8_t* base, const float* row_scales,
                             std::size_t dim, std::size_t first,
                             std::size_t count, std::span<float> out,
                             std::span<const float> base_norms = {});

}  // namespace algas
