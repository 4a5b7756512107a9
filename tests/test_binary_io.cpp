// The bounded reader (common/binary_io.hpp) and a seeded mutation harness
// over every on-disk format: .agr graphs, ALGASMX1 snapshots, .abin
// datasets with and without the ALGASAT1 trailer, and fvecs/ivecs. Every
// mutant must either load or throw std::runtime_error — never another
// exception type, an out-of-memory allocation, or (under the sanitizer
// build) a memory error.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/binary_io.hpp"
#include "common/rng.hpp"
#include "core/mutable_index.hpp"
#include "dataset/ground_truth.hpp"
#include "dataset/io.hpp"
#include "dataset/synthetic.hpp"
#include "graph/builder.hpp"

namespace algas {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::string runtime_error_of(const std::function<void()>& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

// ---------------- the reader itself ----------------

TEST(BinaryReader, FailuresNameFileAndField) {
  const std::string path = temp_path("algas_reader.bin");
  spit(path, {'A', 'B', 'C'});
  const std::string truncated = runtime_error_of([&] {
    BinaryReader in(path);
    in.pod<std::uint64_t>("widget count");
  });
  EXPECT_NE(truncated.find(path), std::string::npos) << truncated;
  EXPECT_NE(truncated.find("widget count"), std::string::npos) << truncated;

  const std::string trailing = runtime_error_of([&] {
    BinaryReader in(path);
    in.pod<char>("first byte");
    in.finish();
  });
  EXPECT_NE(trailing.find("2 trailing bytes"), std::string::npos) << trailing;
  EXPECT_NE(runtime_error_of([] { BinaryReader in("/nonexistent/x.bin"); }),
            "");
  std::remove(path.c_str());
}

TEST(BinaryReader, CountsAreBoundedBeforeAllocation) {
  const std::string path = temp_path("algas_reader_counts.bin");
  spit(path, std::vector<char>(16, '\0'));
  BinaryReader in(path);
  EXPECT_THROW(in.array<std::uint32_t>(5, "five ids"), std::runtime_error);
  EXPECT_THROW(in.array<std::uint32_t>(~0ULL, "all ones"), std::runtime_error);
  EXPECT_EQ(in.array<std::uint32_t>(4, "fits").size(), 4u);
  EXPECT_EQ(in.left(), 0u);
  EXPECT_NO_THROW(in.finish());
  std::remove(path.c_str());
}

// ---------------- mutation harness ----------------

/// One pristine file of a format, the byte offsets of its length, count
/// and size fields, and how to load it.
struct Subject {
  std::string name;
  std::vector<char> bytes;
  std::vector<std::size_t> u64_fields;
  std::vector<std::size_t> u32_fields;  // u32 / int32 sizes and ids
  std::function<void(const std::string&)> load;
};

template <typename T>
void put(std::vector<char>& bytes, std::size_t at, T v) {
  ASSERT_LE(at + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + at, &v, sizeof(T));
}

/// Loads `bytes` as `s`; anything but success or std::runtime_error fails.
/// Returns whether the mutant loaded.
bool loads_or_rejects(const Subject& s, const std::vector<char>& bytes,
                      const std::string& mutation) {
  const std::string path = temp_path("algas_mutant_" + s.name);
  spit(path, bytes);
  try {
    s.load(path);
    return true;
  } catch (const std::runtime_error&) {
    return false;
  } catch (const std::exception& e) {
    ADD_FAILURE() << s.name << " " << mutation << ": wrong exception type: "
                  << e.what();
  } catch (...) {
    ADD_FAILURE() << s.name << " " << mutation << ": non-std exception";
  }
  return false;
}

/// Bit flips (seeded sample), truncation at every byte, and every size
/// field forced to 2^32, 2^40, 2^63 and all-ones (u64) or 2^31-1, 2^31 and
/// 2^32-1 (u32).
void mutate(const Subject& s, std::uint64_t seed) {
  SCOPED_TRACE(s.name);
  ASSERT_TRUE(loads_or_rejects(s, s.bytes, "pristine"));
  for (std::size_t len = 0; len < s.bytes.size(); ++len) {
    loads_or_rejects(s, {s.bytes.begin(), s.bytes.begin() + len},
                     "truncated to " + std::to_string(len));
  }
  auto appended = s.bytes;
  appended.push_back('\0');
  EXPECT_FALSE(loads_or_rejects(s, appended, "trailing byte"));

  Rng rng(seed);
  constexpr int kFlips = 1024;
  for (int i = 0; i < kFlips; ++i) {
    const std::size_t bit = rng.next_below(s.bytes.size() * 8);
    auto flipped = s.bytes;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    loads_or_rejects(s, flipped, "bit " + std::to_string(bit) + " flipped");
  }

  // An inflated size field must be rejected, not allocated.
  const auto force = [&s](std::size_t at, auto v) {
    auto bad = s.bytes;
    put(bad, at, v);
    EXPECT_FALSE(loads_or_rejects(
        s, bad, "offset " + std::to_string(at) + " = " + std::to_string(v)));
  };
  for (const std::size_t at : s.u64_fields) {
    for (const std::uint64_t v : {1ULL << 32, 1ULL << 40, 1ULL << 63, ~0ULL}) {
      force(at, v);
    }
  }
  for (const std::size_t at : s.u32_fields) {
    for (const std::uint32_t v : {0x7fffffffU, 0x80000000U, 0xffffffffU}) {
      force(at, v);
    }
  }
  std::remove(temp_path("algas_mutant_" + s.name).c_str());
}

BuildConfig harness_cfg() {
  BuildConfig cfg;
  cfg.degree = 4;
  cfg.ef_construction = 8;
  cfg.threads = 1;
  return cfg;
}

/// 24 base rows x 4 dims, 4 queries, gt depth 3, with attributes.
Dataset harness_dataset() {
  SyntheticSpec spec;
  spec.name = "mut";
  spec.num_base = 24;
  spec.num_queries = 4;
  spec.dim = 4;
  Dataset ds = make_synthetic(spec);
  compute_ground_truth(ds, 3);
  return ds;
}

/// Each subject gets its own file names: ctest runs the tests in parallel.
Subject save_and_read(std::string name,
                      const std::function<void(const std::string&)>& save) {
  Subject s;
  s.name = std::move(name);
  const std::string path = temp_path("algas_pristine_" + s.name);
  save(path);
  s.bytes = slurp(path);
  std::remove(path.c_str());
  return s;
}

// Layout offsets below follow DESIGN.md "On-disk formats".

TEST(FormatMutation, Graph) {
  const Dataset ds = harness_dataset();
  const Graph g = build_graph(GraphKind::kNsw, ds, harness_cfg()).graph;
  Subject s = save_and_read("agr", [&](const std::string& p) { g.save(p); });
  ASSERT_EQ(s.bytes.size(), 28 + 24 * 4 * sizeof(NodeId));
  s.u64_fields = {8, 16};  // node count, degree
  s.u32_fields = {24};     // entry point
  s.load = [](const std::string& p) { Graph::load(p); };
  mutate(s, 1);
}

TEST(FormatMutation, MutableIndexSnapshot) {
  const Dataset full = harness_dataset();
  Dataset empty(full.name(), full.dim(), full.metric());
  empty.mutable_queries() = full.queries();
  core::MutableIndex idx(std::move(empty), harness_cfg());
  idx.insert(full.base());
  idx.remove(2);
  idx.remove(17);
  Subject s = save_and_read("amx", [&](const std::string& p) { idx.save(p); });
  const std::size_t graph_at = 16;  // magic + epoch
  const std::size_t tombstones_at = graph_at + 28 + 24 * 4 * sizeof(NodeId);
  ASSERT_EQ(s.bytes.size(), tombstones_at + 8 + 2 * sizeof(NodeId));
  s.u64_fields = {graph_at + 8, graph_at + 16, tombstones_at};
  s.u32_fields = {graph_at + 24};
  const Dataset& paired = idx.dataset();
  s.load = [&paired](const std::string& p) {
    core::MutableIndex::load(p, paired, harness_cfg());
  };
  mutate(s, 2);
}

/// Offsets of every u64 size field of a saved `ds` (see save_dataset).
std::vector<std::size_t> dataset_fields(const Dataset& ds) {
  const std::size_t name_at = 8;
  const std::size_t dim_at = name_at + 8 + ds.name().size();
  const std::size_t gt_k_at = dim_at + 8 + 4;
  const std::size_t base_at = gt_k_at + 8;
  const std::size_t queries_at = base_at + 8 + ds.base().size() * 4;
  const std::size_t gt_at = queries_at + 8 + ds.queries().size() * 4;
  std::vector<std::size_t> fields = {name_at, dim_at,     gt_k_at,
                                     base_at, queries_at, gt_at};
  if (ds.has_attributes()) {
    const std::size_t cats_at =
        gt_at + 8 + ds.ground_truth_flat().size() * sizeof(NodeId) + 8;
    fields.push_back(cats_at);
    fields.push_back(cats_at + 8 + ds.num_base() * 4);
  }
  return fields;
}

void mutate_dataset(Dataset ds, const std::string& name, std::uint64_t seed) {
  Subject s = save_and_read(
      name, [&](const std::string& p) { save_dataset(ds, p); });
  s.u64_fields = dataset_fields(ds);
  s.load = [](const std::string& p) { load_dataset(p); };
  mutate(s, seed);
}

TEST(FormatMutation, DatasetWithAttributeTrailer) {
  const Dataset ds = harness_dataset();
  ASSERT_TRUE(ds.has_attributes());
  mutate_dataset(ds, "abin_attr", 3);
}

TEST(FormatMutation, DatasetWithoutAttributeTrailer) {
  Dataset ds = harness_dataset();
  ds.clear_attributes();
  mutate_dataset(ds, "abin_bare", 4);
}

template <typename T>
void mutate_xvecs(const std::vector<T>& data, std::size_t dim,
                  const std::string& name, std::uint64_t seed,
                  void (*write)(const std::string&, const std::vector<T>&,
                                std::size_t),
                  std::vector<T> (*read)(const std::string&, std::size_t&)) {
  Subject s =
      save_and_read(name, [&](const std::string& p) { write(p, data, dim); });
  for (std::size_t at = 0; at < s.bytes.size(); at += 4 + dim * sizeof(T)) {
    s.u32_fields.push_back(at);  // every row's int32 dimension
  }
  s.load = [read](const std::string& p) {
    std::size_t d = 0;
    read(p, d);
  };
  mutate(s, seed);
}

TEST(FormatMutation, Fvecs) {
  const Dataset ds = harness_dataset();
  mutate_xvecs<float>(ds.base(), ds.dim(), "fvecs", 5, write_fvecs, read_fvecs);
}

TEST(FormatMutation, Ivecs) {
  const Dataset ds = harness_dataset();
  const std::vector<std::int32_t> gt(ds.ground_truth_flat().begin(),
                                     ds.ground_truth_flat().end());
  mutate_xvecs<std::int32_t>(gt, ds.gt_k(), "ivecs", 6, write_ivecs,
                             read_ivecs);
}

}  // namespace
}  // namespace algas
