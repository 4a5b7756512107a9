#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "dataset/dataset.hpp"
#include "dataset/ground_truth.hpp"
#include "dataset/io.hpp"
#include "dataset/registry.hpp"
#include "dataset/synthetic.hpp"
#include "distance/distance.hpp"

namespace algas {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Overwrite sizeof(T) bytes at `offset` of an existing file with `v`.
template <typename T>
void patch_file(const std::string& path, std::size_t offset, T v) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(&v), sizeof(v));
  ASSERT_TRUE(f.good());
}

// ---------------- synthetic.hpp ----------------

TEST(Synthetic, ShapesMatchSpec) {
  SyntheticSpec spec;
  spec.num_base = 500;
  spec.num_queries = 40;
  spec.dim = 24;
  const Dataset ds = make_synthetic(spec);
  EXPECT_EQ(ds.num_base(), 500u);
  EXPECT_EQ(ds.num_queries(), 40u);
  EXPECT_EQ(ds.dim(), 24u);
  EXPECT_EQ(ds.base().size(), 500u * 24);
}

TEST(Synthetic, Deterministic) {
  SyntheticSpec spec;
  spec.num_base = 100;
  spec.dim = 8;
  const Dataset a = make_synthetic(spec);
  const Dataset b = make_synthetic(spec);
  EXPECT_EQ(a.base(), b.base());
  spec.seed += 1;
  const Dataset c = make_synthetic(spec);
  EXPECT_NE(a.base(), c.base());
}

TEST(Synthetic, CosineVectorsNormalized) {
  SyntheticSpec spec = glove_like_spec();
  spec.num_base = 200;
  spec.num_queries = 20;
  const Dataset ds = make_synthetic(spec);
  for (std::size_t i = 0; i < ds.num_base(); ++i) {
    EXPECT_NEAR(norm(ds.base_vector(i)), 1.0f, 1e-4f);
  }
  for (std::size_t i = 0; i < ds.num_queries(); ++i) {
    EXPECT_NEAR(norm(ds.query(i)), 1.0f, 1e-4f);
  }
}

TEST(Synthetic, TableIIISpecsMatchPaper) {
  EXPECT_EQ(sift_like_spec().dim, 128u);
  EXPECT_EQ(sift_like_spec().metric, Metric::kL2);
  EXPECT_EQ(gist_like_spec().dim, 960u);
  EXPECT_EQ(gist_like_spec().metric, Metric::kL2);
  EXPECT_EQ(glove_like_spec().dim, 200u);
  EXPECT_EQ(glove_like_spec().metric, Metric::kCosine);
  EXPECT_EQ(nytimes_like_spec().dim, 256u);
  EXPECT_EQ(nytimes_like_spec().metric, Metric::kCosine);
}

TEST(Synthetic, ClusteredIsNotUniform) {
  // Points drawn from a mixture must be denser near their centers than a
  // uniform draw: mean pairwise distance should be clearly below uniform's.
  SyntheticSpec spec;
  spec.num_base = 400;
  spec.dim = 16;
  spec.clusters = 8;
  spec.spread = 0.02;
  spec.background_fraction = 0.0;  // isolate the mixture's effect
  const Dataset ds = make_synthetic(spec);
  double within = 0.0;
  int pairs = 0;
  for (std::size_t i = 0; i + 1 < 100; ++i) {
    within += l2_sq(ds.base_vector(i), ds.base_vector(i + 1));
    ++pairs;
  }
  // Uniform in [0,1]^16 has expected pair distance^2 = 16/6 ~= 2.67.
  EXPECT_LT(within / pairs, 2.3);
}

// ---------------- ground_truth.hpp ----------------

TEST(GroundTruth, ExactOnTinyData) {
  Dataset ds("tiny", 2, Metric::kL2);
  // Base points on a line: 0, 1, 2, 3, 4 along x.
  for (float x : {0.0f, 1.0f, 2.0f, 3.0f, 4.0f}) {
    ds.mutable_base().push_back(x);
    ds.mutable_base().push_back(0.0f);
  }
  ds.mutable_queries() = {2.2f, 0.0f};
  compute_ground_truth(ds, 3);
  const auto gt = ds.ground_truth(0);
  EXPECT_EQ(gt[0], 2u);
  EXPECT_EQ(gt[1], 3u);
  EXPECT_EQ(gt[2], 1u);
}

TEST(GroundTruth, AscendingByDistance) {
  SyntheticSpec spec;
  spec.num_base = 300;
  spec.num_queries = 10;
  spec.dim = 8;
  Dataset ds = make_synthetic(spec);
  compute_ground_truth(ds, 10);
  for (std::size_t q = 0; q < ds.num_queries(); ++q) {
    const auto gt = ds.ground_truth(q);
    for (std::size_t i = 1; i < gt.size(); ++i) {
      EXPECT_LE(ds.query_distance(q, gt[i - 1]),
                ds.query_distance(q, gt[i]));
    }
  }
}

TEST(GroundTruth, KClampedToBaseSize) {
  SyntheticSpec spec;
  spec.num_base = 5;
  spec.num_queries = 2;
  spec.dim = 4;
  Dataset ds = make_synthetic(spec);
  compute_ground_truth(ds, 100);
  EXPECT_EQ(ds.gt_k(), 5u);
}

// ---------------- io.hpp ----------------

TEST(Io, FvecsRoundTrip) {
  const std::string path = temp_path("algas_test.fvecs");
  const std::vector<float> data{1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  write_fvecs(path, data, 3);
  std::size_t dim = 0;
  const auto read = read_fvecs(path, dim);
  EXPECT_EQ(dim, 3u);
  EXPECT_EQ(read, data);
  std::remove(path.c_str());
}

TEST(Io, IvecsRoundTrip) {
  const std::string path = temp_path("algas_test.ivecs");
  const std::vector<std::int32_t> data{9, 8, 7, 6};
  write_ivecs(path, data, 2);
  std::size_t dim = 0;
  const auto read = read_ivecs(path, dim);
  EXPECT_EQ(dim, 2u);
  EXPECT_EQ(read, data);
  std::remove(path.c_str());
}

TEST(Io, RejectsBadWrites) {
  EXPECT_THROW(write_fvecs(temp_path("x.fvecs"), {1.0f, 2.0f, 3.0f}, 2),
               std::invalid_argument);
  std::size_t dim = 0;
  EXPECT_THROW(read_fvecs("/nonexistent/nope.fvecs", dim),
               std::runtime_error);
}

TEST(Io, DatasetRoundTripWithGroundTruth) {
  SyntheticSpec spec;
  spec.num_base = 64;
  spec.num_queries = 8;
  spec.dim = 12;
  spec.metric = Metric::kCosine;
  spec.name = "roundtrip";
  Dataset ds = make_synthetic(spec);
  compute_ground_truth(ds, 5);

  const std::string path = temp_path("algas_test.abin");
  save_dataset(ds, path);
  const Dataset loaded = load_dataset(path);
  EXPECT_EQ(loaded.name(), "roundtrip");
  EXPECT_EQ(loaded.dim(), 12u);
  EXPECT_EQ(loaded.metric(), Metric::kCosine);
  EXPECT_EQ(loaded.base(), ds.base());
  EXPECT_EQ(loaded.queries(), ds.queries());
  EXPECT_EQ(loaded.gt_k(), 5u);
  EXPECT_EQ(loaded.ground_truth_flat(), ds.ground_truth_flat());
  std::remove(path.c_str());
}

TEST(Io, TexmexTripleLoads) {
  const std::string base_p = temp_path("algas_base.fvecs");
  const std::string query_p = temp_path("algas_query.fvecs");
  const std::string gt_p = temp_path("algas_gt.ivecs");
  // 4 base vectors in 2-d, 2 queries, gt depth 2.
  write_fvecs(base_p, {1.0f, 0.0f, 0.0f, 2.0f, 3.0f, 0.0f, 0.0f, 4.0f}, 2);
  write_fvecs(query_p, {1.1f, 0.0f, 0.0f, 3.9f}, 2);
  write_ivecs(gt_p, {0, 2, 3, 1}, 2);

  const Dataset ds =
      load_texmex("texmex-test", base_p, query_p, gt_p, Metric::kCosine);
  EXPECT_EQ(ds.num_base(), 4u);
  EXPECT_EQ(ds.num_queries(), 2u);
  EXPECT_EQ(ds.dim(), 2u);
  EXPECT_EQ(ds.gt_k(), 2u);
  EXPECT_EQ(ds.ground_truth(0)[0], 0u);
  EXPECT_EQ(ds.ground_truth(1)[0], 3u);
  // Cosine load normalizes.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(norm(ds.base_vector(i)), 1.0f, 1e-5f);
  }
  std::remove(base_p.c_str());
  std::remove(query_p.c_str());
  std::remove(gt_p.c_str());
}

TEST(Io, TexmexRejectsMismatch) {
  const std::string base_p = temp_path("algas_base2.fvecs");
  const std::string query_p = temp_path("algas_query2.fvecs");
  write_fvecs(base_p, {1.0f, 2.0f}, 2);
  write_fvecs(query_p, {1.0f, 2.0f, 3.0f}, 3);
  EXPECT_THROW(load_texmex("bad", base_p, query_p, "", Metric::kL2),
               std::runtime_error);
  std::remove(base_p.c_str());
  std::remove(query_p.c_str());
}

TEST(Io, TexmexGtOutOfRangeRejected) {
  const std::string base_p = temp_path("algas_base3.fvecs");
  const std::string query_p = temp_path("algas_query3.fvecs");
  const std::string gt_p = temp_path("algas_gt3.ivecs");
  write_fvecs(base_p, {1.0f, 0.0f}, 2);
  write_fvecs(query_p, {1.0f, 0.0f}, 2);
  write_ivecs(gt_p, {5}, 1);  // id 5 out of range for 1 base vector
  EXPECT_THROW(load_texmex("bad", base_p, query_p, gt_p, Metric::kL2),
               std::runtime_error);
  std::remove(base_p.c_str());
  std::remove(query_p.c_str());
  std::remove(gt_p.c_str());
}

/// A saved attribute-free dataset (64 x 12 rows, 8 queries, gt depth 5) and
/// the byte offsets of its header fields: magic, name length, name, dim,
/// metric, gt_k, then the length-prefixed base payload.
struct SavedDataset {
  std::string path;
  std::size_t dim_at = 0, metric_at = 0, gt_k_at = 0, base_len_at = 0;
};

SavedDataset save_small_dataset(const std::string& file) {
  SyntheticSpec spec;
  spec.num_base = 64;
  spec.num_queries = 8;
  spec.dim = 12;
  spec.name = "hardening";
  Dataset ds = make_synthetic(spec);
  ds.clear_attributes();  // no trailer: its size check cannot catch a bad dim
  compute_ground_truth(ds, 5);
  SavedDataset s;
  s.path = temp_path(file);
  save_dataset(ds, s.path);
  s.dim_at = 8 + 8 + spec.name.size();
  s.metric_at = s.dim_at + 8;
  s.gt_k_at = s.metric_at + 4;
  s.base_len_at = s.gt_k_at + 8;
  return s;
}

TEST(Io, DatasetRejectsUnknownMetric) {
  const SavedDataset s = save_small_dataset("algas_metric.abin");
  ASSERT_NO_THROW(load_dataset(s.path));
  patch_file(s.path, s.metric_at, std::uint32_t{9});
  EXPECT_THROW(load_dataset(s.path), std::runtime_error);
  std::remove(s.path.c_str());
}

TEST(Io, DatasetRejectsLengthPastEndOfFileBeforeAllocating) {
  // 2^40 floats would be 4 TiB: the length must be checked against the
  // bytes left, not handed to the allocator (std::bad_alloc).
  const SavedDataset s = save_small_dataset("algas_len.abin");
  patch_file(s.path, s.base_len_at, std::uint64_t{1} << 40);
  EXPECT_THROW(load_dataset(s.path), std::runtime_error);
  std::remove(s.path.c_str());
}

TEST(Io, DatasetRejectsPayloadThatIsNotWholeRows) {
  const SavedDataset s = save_small_dataset("algas_shape.abin");
  patch_file(s.path, s.dim_at, std::uint64_t{7});  // 768 floats % 7 != 0
  EXPECT_THROW(load_dataset(s.path), std::runtime_error);
  patch_file(s.path, s.dim_at, std::uint64_t{12});
  ASSERT_NO_THROW(load_dataset(s.path));
  patch_file(s.path, s.gt_k_at, std::uint64_t{6});  // 40 ids != 8 x 6
  EXPECT_THROW(load_dataset(s.path), std::runtime_error);
  std::remove(s.path.c_str());
}

TEST(Io, DatasetRejectsGroundTruthIdOutOfRange) {
  const SavedDataset s = save_small_dataset("algas_gt_id.abin");
  ASSERT_NO_THROW(load_dataset(s.path));
  // Past the base (64 x 12) and query (8 x 12) payloads and the gt count.
  const std::size_t gt_at =
      s.base_len_at + 8 + 64 * 12 * 4 + 8 + 8 * 12 * 4 + 8;
  patch_file(s.path, gt_at + 3 * sizeof(NodeId), NodeId{64});  // = num_base
  EXPECT_THROW(load_dataset(s.path), std::runtime_error);
  patch_file(s.path, gt_at + 3 * sizeof(NodeId), kInvalidNode);
  EXPECT_THROW(load_dataset(s.path), std::runtime_error);
  std::remove(s.path.c_str());
}

TEST(Io, DatasetRejectsAttributeTrailerOfWrongLength) {
  // A well-formed trailer with one (category, timestamp) pair too few for
  // the 64 base rows: a file defect, rejected by the reader before the
  // payload is allocated rather than by Dataset::set_attributes.
  const SavedDataset s = save_small_dataset("algas_attr_len.abin");
  {
    std::ofstream out(s.path, std::ios::binary | std::ios::app);
    const std::uint64_t count = 63;
    const std::vector<std::uint32_t> values(count, 1);
    out.write("ALGASAT1", 8);
    for (int column = 0; column < 2; ++column) {
      out.write(reinterpret_cast<const char*>(&count), sizeof(count));
      out.write(reinterpret_cast<const char*>(values.data()),
                static_cast<std::streamsize>(count * sizeof(std::uint32_t)));
    }
  }
  EXPECT_THROW(load_dataset(s.path), std::runtime_error);
  std::remove(s.path.c_str());
}

TEST(Io, XvecsRejectsRowPastEndOfFileBeforeAllocating) {
  const std::string path = temp_path("algas_long_row.fvecs");
  write_fvecs(path, {1.0f, 2.0f}, 2);
  patch_file(path, 0, std::int32_t{1} << 24);  // declares a 64 MiB row
  std::size_t dim = 0;
  try {
    read_fvecs(path, dim);
    ADD_FAILURE() << "a row longer than the file was accepted";
  } catch (const std::runtime_error& e) {
    // "exceeds": rejected from the header, not after resizing to 2^24
    // floats and failing the read ("truncated row").
    EXPECT_NE(std::string(e.what()).find("exceeds"), std::string::npos)
        << e.what();
  }
  std::remove(path.c_str());
}

TEST(Io, RejectsWrongMagic) {
  const std::string path = temp_path("algas_bad.abin");
  write_fvecs(path, {1.0f, 2.0f}, 2);
  EXPECT_THROW(load_dataset(path), std::runtime_error);
  std::remove(path.c_str());
}

// ---------------- registry.hpp ----------------

TEST(Registry, NamesAndUnknown) {
  const auto names = bench_dataset_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "sift");
  EXPECT_THROW(
      load_bench_dataset_sized("not-a-dataset", 10, 2, 1, false),
      std::invalid_argument);
}

TEST(Registry, SizedLoadWithoutCache) {
  const Dataset ds = load_bench_dataset_sized("nytimes", 300, 10, 8, false);
  EXPECT_EQ(ds.num_base(), 300u);
  EXPECT_EQ(ds.num_queries(), 10u);
  EXPECT_EQ(ds.dim(), 256u);
  EXPECT_EQ(ds.metric(), Metric::kCosine);
  EXPECT_EQ(ds.gt_k(), 8u);
}

TEST(Dataset, DescribeMentionsKeyFacts) {
  const Dataset ds = load_bench_dataset_sized("sift", 100, 4, 2, false);
  const std::string d = ds.describe();
  EXPECT_NE(d.find("n=100"), std::string::npos);
  EXPECT_NE(d.find("d=128"), std::string::npos);
  EXPECT_NE(d.find("L2"), std::string::npos);
}

// ---------------- streaming appends ----------------

/// Two-cluster toy rows so appended vectors are distinguishable.
Dataset two_part_ds(Metric metric, std::size_t head, std::size_t tail,
                    std::vector<float>* tail_rows) {
  SyntheticSpec spec;
  spec.name = "append";
  spec.num_base = head + tail;
  spec.num_queries = 4;
  spec.dim = 8;
  spec.metric = metric;
  spec.seed = 77;
  const Dataset full = make_synthetic(spec);
  tail_rows->assign(full.base().begin() +
                        static_cast<std::ptrdiff_t>(head * full.dim()),
                    full.base().end());
  Dataset ds(full.name(), full.dim(), full.metric());
  ds.mutable_queries() = full.queries();
  ds.append_base({full.base().data(), head * full.dim()});
  return ds;
}

TEST(DatasetAppend, ExtendsNormCacheBitIdentically) {
  // The norm cache must be extended per-row at append time (the exclusive
  // half of the insert epoch hand-off), never lazily rebuilt by a later
  // concurrent reader — and extension must equal a from-scratch build.
  std::vector<float> tail;
  Dataset ds = two_part_ds(Metric::kCosine, 60, 40, &tail);
  const auto before = ds.base_norms();  // built at the publish point
  ASSERT_EQ(before.size(), 60u);
  ds.append_base(tail);
  const auto after = ds.base_norms();
  ASSERT_EQ(after.size(), 100u);

  Dataset oneshot("oneshot", ds.dim(), ds.metric());
  std::vector<float> all(ds.base());
  oneshot.append_base(all);
  const auto reference = oneshot.base_norms();
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(after[i], reference[i]) << "norm " << i;
  }
}

TEST(DatasetAppend, ReencodesQuantizedStoreEagerly) {
  std::vector<float> tail;
  Dataset ds = two_part_ds(Metric::kL2, 50, 30, &tail);
  ds.set_storage(StorageCodec::kInt8);
  (void)ds.vector_store();  // encode the head
  ds.append_base(tail);
  // Scores over appended rows must match a dataset quantized in one shot.
  Dataset oneshot("oneshot", ds.dim(), ds.metric());
  std::vector<float> all(ds.base());
  oneshot.append_base(all);
  oneshot.set_storage(StorageCodec::kInt8);
  const auto q = ds.query(0);
  for (NodeId v = 0; v < 80; ++v) {
    EXPECT_EQ(ds.score(q, v), oneshot.score(q, v)) << "row " << v;
  }
}

TEST(DatasetAppend, DropsStaleGroundTruthAndValidatesShape) {
  std::vector<float> tail;
  Dataset ds = two_part_ds(Metric::kL2, 40, 20, &tail);
  compute_ground_truth(ds, 4);
  ASSERT_TRUE(ds.has_ground_truth());
  ds.append_base(tail);
  EXPECT_FALSE(ds.has_ground_truth());  // exact only for the old row set
  EXPECT_EQ(ds.num_base(), 60u);

  EXPECT_THROW(ds.append_base({tail.data(), 3}), std::invalid_argument);
  Dataset dimless;
  EXPECT_THROW(dimless.append_base(tail), std::invalid_argument);
}

}  // namespace
}  // namespace algas
