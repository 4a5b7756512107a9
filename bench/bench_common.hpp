// Shared harness support for the per-figure bench binaries.
//
// Every bench prints TSV to stdout: "#"-prefixed metadata lines, then a
// header row, then one row per plotted point. Environment knobs are read
// through RuntimeOptions::from_env() (see common/env.hpp for the full list
// and precedence rule): ALGAS_SCALE, ALGAS_QUERIES, ALGAS_DATASETS,
// ALGAS_CACHE_DIR, ALGAS_STORAGE, ALGAS_BUILD_THREADS.
#pragma once

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "dataset/dataset.hpp"
#include "graph/builder.hpp"
#include "metrics/collector.hpp"
#include "metrics/table.hpp"

namespace algas::bench {

/// Graph build parameters every bench shares (so disk caches are reused).
BuildConfig bench_build_config();

/// Dataset names selected via ALGAS_DATASETS (validated).
std::vector<std::string> selected_datasets();

/// Base-row storage codec selected via ALGAS_STORAGE (validated).
StorageCodec storage_codec();

/// Load (cache-backed) the named bench dataset; kept in-process.
const Dataset& dataset(const std::string& name);

/// Load or build (cache-backed) a graph for the named dataset.
const Graph& graph(const std::string& name, GraphKind kind);

/// min(ALGAS_QUERIES override, dataset queries, fallback).
std::size_t query_budget(const Dataset& ds, std::size_t fallback);

/// n queries all arriving at t=0 (closed loop).
std::vector<core::PendingQuery> closed_loop(std::size_t n);

/// Standard metadata header: bench name, dataset line, scale.
void print_header(const std::string& bench, const std::string& what);

/// Standard engine configurations used across the comparison benches so
/// every figure compares identical search work. n_parallel defaults to 4
/// CTAs per query (the small-batch sweet spot); beam extend is on for
/// ALGAS (width 4, offset 24) and off for the baselines, as in the paper.
core::AlgasConfig algas_config(std::size_t batch, std::size_t candidate_len,
                               std::size_t topk = 16,
                               std::size_t n_parallel = 4,
                               std::size_t beam_width = 4);


/// Format helper: microseconds with 1 decimal.
std::string us(double v);

/// FNV-1a 64 over the little-endian bytes of 64-bit words: the fingerprint
/// behind every checksum a gated bench reports.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v);
  void mix_double(double d);
};

/// 16 lowercase hex digits, the form every checksum takes in a report.
std::string hex64(std::uint64_t v);

/// Fingerprint of every record's results in query-index order (the
/// collector keeps completion order, which may vary with host threads):
/// query index, disposition and result count, then each id and the bits of
/// its distance. A served/shed flip or a truncated list cannot cancel out.
std::uint64_t results_checksum(const metrics::Collector& c);

/// The JSON report every gated bench writes: nested objects and arrays, one
/// member per line, doubles in fixed notation with 10 decimals (the
/// precision the baselines pin recalls at). Members of an array take an
/// empty key. finish() appends `"end": true`, closes the root object and
/// writes the file, so a truncated report never parses.
class JsonWriter {
 public:
  explicit JsonWriter(std::string path);

  JsonWriter& field(std::string_view key, std::string_view v);
  JsonWriter& field(std::string_view key, const char* v) {
    return field(key, std::string_view(v));
  }
  JsonWriter& field(std::string_view key, double v);
  JsonWriter& field(std::string_view key, bool v);
  JsonWriter& field(std::string_view key, std::size_t v);
  JsonWriter& object(std::string_view key = {});
  JsonWriter& array(std::string_view key);
  /// Closes the innermost open object or array.
  JsonWriter& close();
  void finish();

 private:
  void member(std::string_view key);
  JsonWriter& open(std::string_view key, char bracket);

  std::string path_;
  std::ostringstream out_;
  std::vector<char> closers_;  ///< closing bracket of each open container
  bool first_ = true;          ///< no member yet in the innermost container
};

}  // namespace algas::bench
