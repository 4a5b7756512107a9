// Vector-file IO.
//
// fvecs/ivecs are the TEXMEX formats the paper's datasets ship in
// (http://corpus-texmex.irisa.fr/): each row is [int32 dim][dim elements].
// The `.abin` format is this repo's cache format: a small header followed by
// the raw payload, used to persist datasets / ground truth between bench
// runs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "dataset/dataset.hpp"

namespace algas {

/// Read an fvecs file. Returns row-major floats; `dim_out` receives the
/// (uniform) row dimension. Throws std::runtime_error on malformed input
/// (every reader here is bounded; DESIGN.md "On-disk formats").
std::vector<float> read_fvecs(const std::string& path, std::size_t& dim_out);

/// Read an ivecs file (same layout, int32 payload).
std::vector<std::int32_t> read_ivecs(const std::string& path,
                                     std::size_t& dim_out);

void write_fvecs(const std::string& path, const std::vector<float>& data,
                 std::size_t dim);
void write_ivecs(const std::string& path,
                 const std::vector<std::int32_t>& data, std::size_t dim);

/// Serialize a whole Dataset (base, queries, ground truth) to `path`.
void save_dataset(const Dataset& ds, const std::string& path);

/// Load a Dataset written by save_dataset. Throws std::runtime_error on
/// any defect, an out-of-range ground-truth id included.
Dataset load_dataset(const std::string& path);

/// Assemble a Dataset from the TEXMEX file triple the paper's corpora ship
/// as: base fvecs + query fvecs + ground-truth ivecs (row q = ascending
/// nearest base ids for query q). `gt_path` may be empty (no ground truth;
/// compute_ground_truth() can attach one later). Cosine datasets are
/// normalized on load so inner-product search applies.
Dataset load_texmex(const std::string& name, const std::string& base_path,
                    const std::string& query_path, const std::string& gt_path,
                    Metric metric);

bool file_exists(const std::string& path);

}  // namespace algas
