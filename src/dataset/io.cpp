#include "dataset/io.hpp"

#include <cstdint>
#include <span>
#include <stdexcept>
#include <sys/stat.h>

#include "common/binary_io.hpp"

namespace algas {

namespace {

template <typename T>
std::vector<T> read_xvecs(const std::string& path, std::size_t& dim_out) {
  BinaryReader in(path);
  std::vector<T> rows;
  dim_out = 0;
  while (in.left() > 0) {
    const auto dim = in.pod<std::int32_t>("row dimension");
    const auto width = static_cast<std::size_t>(dim);
    if (dim <= 0 || (dim_out != 0 && dim_out != width)) {
      in.fail("row dimension", std::to_string(dim) + " is not positive or " +
                                   "differs from the first row's");
    }
    dim_out = width;
    in.append(rows, width, "row");
  }
  return rows;
}

template <typename T>
void write_xvecs(const std::string& path, const std::vector<T>& data,
                 std::size_t dim) {
  if (dim == 0 || dim > std::size_t{INT32_MAX} || data.size() % dim != 0) {
    throw std::invalid_argument("dim must be in [1, 2^31) and divide the data");
  }
  BinaryWriter out(path);
  for (std::size_t r = 0; r < data.size(); r += dim) {
    out.pod(static_cast<std::int32_t>(dim));
    out.array(std::span<const T>(data.data() + r, dim));
  }
  out.finish();
}

constexpr Magic kMagic = {'A', 'L', 'G', 'A', 'S', 'D', 'S', '1'};
/// Optional attribute trailer after the ground-truth vec. Attribute-free
/// datasets write nothing (their files stay byte-identical to the
/// pre-attribute format), and the loader treats clean EOF here as "no
/// attributes" — so old cache files keep loading.
constexpr Magic kAttrMagic = {'A', 'L', 'G', 'A', 'S', 'A', 'T', '1'};

/// A u64-counted array whose count `fits` accepts (it must agree with the
/// header), checked before the payload is read.
template <typename T, typename Fits>
std::vector<T> read_counted(BinaryReader& in, const char* field, Fits fits) {
  const auto count = in.pod<std::uint64_t>(field);
  if (!fits(count)) {
    in.fail(field, std::to_string(count) + " elements disagree with header");
  }
  return in.array<T>(count, field);
}

}  // namespace

std::vector<float> read_fvecs(const std::string& path, std::size_t& dim_out) {
  return read_xvecs<float>(path, dim_out);
}

std::vector<std::int32_t> read_ivecs(const std::string& path,
                                     std::size_t& dim_out) {
  return read_xvecs<std::int32_t>(path, dim_out);
}

void write_fvecs(const std::string& path, const std::vector<float>& data,
                 std::size_t dim) {
  write_xvecs(path, data, dim);
}

void write_ivecs(const std::string& path,
                 const std::vector<std::int32_t>& data, std::size_t dim) {
  write_xvecs(path, data, dim);
}

void save_dataset(const Dataset& ds, const std::string& path) {
  BinaryWriter out(path);
  out.magic(kMagic);
  out.counted(ds.name());
  out.pod(static_cast<std::uint64_t>(ds.dim()));
  out.pod(static_cast<std::uint32_t>(ds.metric()));
  out.pod(static_cast<std::uint64_t>(ds.gt_k()));
  out.counted(ds.base());
  out.counted(ds.queries());
  out.counted(ds.ground_truth_flat());
  if (ds.has_attributes()) {
    out.magic(kAttrMagic);
    out.counted(ds.categories());
    out.counted(ds.timestamps());
  }
  out.finish();
}

Dataset load_dataset(const std::string& path) {
  BinaryReader in(path);
  in.expect_magic(kMagic, "dataset magic");
  const auto name = in.array<char>(in.pod<std::uint64_t>("name"), "name");
  const auto dim = in.pod<std::uint64_t>("dimension");
  const auto metric = in.pod<std::uint32_t>("metric");
  const auto gt_k = in.pod<std::uint64_t>("ground-truth k");
  if (metric > static_cast<std::uint32_t>(Metric::kCosine)) {
    in.fail("metric", "unknown metric " + std::to_string(metric));
  }
  if (dim == 0) in.fail("dimension", "zero");

  Dataset ds(std::string(name.begin(), name.end()), dim,
             static_cast<Metric>(metric));
  const auto whole_rows = [dim](std::uint64_t n) { return n % dim == 0; };
  ds.mutable_base() = read_counted<float>(in, "base rows", whole_rows);
  ds.mutable_queries() = read_counted<float>(in, "query rows", whole_rows);
  const std::uint64_t queries = ds.num_queries();
  if (gt_k != 0 && queries > ~std::uint64_t{0} / gt_k) {
    in.fail("ground-truth k", std::to_string(gt_k) + " overflows");
  }
  auto gt = read_counted<NodeId>(in, "ground-truth ids", [&](std::uint64_t n) {
    return n == queries * gt_k;
  });
  for (const NodeId id : gt) {
    if (id >= ds.num_base()) {
      in.fail("ground-truth ids", "id " + std::to_string(id) +
                                      " out of range for " +
                                      std::to_string(ds.num_base()) + " rows");
    }
  }
  if (gt_k > 0) ds.set_ground_truth(std::move(gt), gt_k);
  if (in.left() != 0) {
    in.expect_magic(kAttrMagic, "attribute trailer");
    const auto per_row = [&](std::uint64_t n) { return n == ds.num_base(); };
    auto cats = read_counted<std::uint32_t>(in, "categories", per_row);
    auto ts = read_counted<std::uint32_t>(in, "timestamps", per_row);
    ds.set_attributes(std::move(cats), std::move(ts));
  }
  in.finish();
  return ds;
}

Dataset load_texmex(const std::string& name, const std::string& base_path,
                    const std::string& query_path, const std::string& gt_path,
                    Metric metric) {
  std::size_t base_dim = 0, query_dim = 0;
  auto base = read_fvecs(base_path, base_dim);
  auto queries = read_fvecs(query_path, query_dim);
  if (base_dim != query_dim) {
    throw std::runtime_error("base/query dimension mismatch: " +
                             std::to_string(base_dim) + " vs " +
                             std::to_string(query_dim));
  }

  Dataset ds(name, base_dim, metric);
  if (metric == Metric::kCosine || metric == Metric::kInnerProduct) {
    for (std::size_t i = 0; i + base_dim <= base.size(); i += base_dim) {
      normalize({base.data() + i, base_dim});
    }
    for (std::size_t i = 0; i + base_dim <= queries.size(); i += base_dim) {
      normalize({queries.data() + i, base_dim});
    }
  }
  ds.mutable_base() = std::move(base);
  ds.mutable_queries() = std::move(queries);

  if (!gt_path.empty()) {
    std::size_t gt_k = 0;
    const auto gt_raw = read_ivecs(gt_path, gt_k);
    std::vector<NodeId> gt(gt_raw.size());
    for (std::size_t i = 0; i < gt_raw.size(); ++i) {
      if (gt_raw[i] < 0 ||
          static_cast<std::size_t>(gt_raw[i]) >= ds.num_base()) {
        throw std::runtime_error("ground-truth id out of range in " + gt_path);
      }
      gt[i] = static_cast<NodeId>(gt_raw[i]);
    }
    if (gt.size() != ds.num_queries() * gt_k) {
      throw std::runtime_error("ground-truth row count mismatch in " +
                               gt_path);
    }
    ds.set_ground_truth(std::move(gt), gt_k);
  }
  return ds;
}

bool file_exists(const std::string& path) {
  struct stat st{};
  return ::stat(path.c_str(), &st) == 0;
}

}  // namespace algas
