#include "dataset/io.hpp"

#include <cstring>
#include <fstream>
#include <stdexcept>
#include <sys/stat.h>

namespace algas {

namespace {

/// Bytes between the read position and the end of the stream: every
/// length a file declares is checked against it before anything is
/// allocated, so a corrupt header cannot ask for gigabytes.
std::uint64_t bytes_left(std::istream& in) {
  const auto pos = in.tellg();
  in.seekg(0, std::ios::end);
  const auto end = in.tellg();
  in.seekg(pos);
  if (pos < 0 || end < pos) throw std::runtime_error("unseekable input");
  return static_cast<std::uint64_t>(end - pos);
}

template <typename T>
std::vector<T> read_xvecs(const std::string& path, std::size_t& dim_out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);

  std::vector<T> rows;
  dim_out = 0;
  std::int32_t dim = 0;
  std::uint64_t left = bytes_left(in);
  while (in.read(reinterpret_cast<char*>(&dim), sizeof(dim))) {
    left -= sizeof(dim);
    if (dim <= 0) throw std::runtime_error("bad row dimension in " + path);
    if (dim_out == 0) {
      dim_out = static_cast<std::size_t>(dim);
    } else if (dim_out != static_cast<std::size_t>(dim)) {
      throw std::runtime_error("ragged rows in " + path);
    }
    const std::uint64_t row_bytes = sizeof(T) * static_cast<std::uint64_t>(dim);
    if (row_bytes > left) {
      throw std::runtime_error("row of " + std::to_string(dim) +
                               " elements exceeds the bytes left in " + path);
    }
    const std::size_t old = rows.size();
    rows.resize(old + static_cast<std::size_t>(dim));
    if (!in.read(reinterpret_cast<char*>(rows.data() + old),
                 static_cast<std::streamsize>(row_bytes))) {
      throw std::runtime_error("truncated row in " + path);
    }
    left -= row_bytes;
  }
  return rows;
}

template <typename T>
void write_xvecs(const std::string& path, const std::vector<T>& data,
                 std::size_t dim) {
  if (dim == 0 || data.size() % dim != 0) {
    throw std::invalid_argument("data size not a multiple of dim");
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path + " for write");
  const auto d32 = static_cast<std::int32_t>(dim);
  const std::size_t rows = data.size() / dim;
  for (std::size_t r = 0; r < rows; ++r) {
    out.write(reinterpret_cast<const char*>(&d32), sizeof(d32));
    out.write(reinterpret_cast<const char*>(data.data() + r * dim),
              static_cast<std::streamsize>(sizeof(T) * dim));
  }
  if (!out) throw std::runtime_error("short write to " + path);
}

constexpr char kMagic[8] = {'A', 'L', 'G', 'A', 'S', 'D', 'S', '1'};
/// Optional attribute trailer after the ground-truth vec. Attribute-free
/// datasets write nothing (their files stay byte-identical to the
/// pre-attribute format), and the loader treats clean EOF here as "no
/// attributes" — so old cache files keep loading.
constexpr char kAttrMagic[8] = {'A', 'L', 'G', 'A', 'S', 'A', 'T', '1'};

template <typename T>
void write_pod(std::ofstream& out, const T& v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
void read_pod(std::ifstream& in, T& v) {
  if (!in.read(reinterpret_cast<char*>(&v), sizeof(T))) {
    throw std::runtime_error("truncated dataset file");
  }
}

template <typename T>
void write_vec(std::ofstream& out, const std::vector<T>& v) {
  write_pod(out, static_cast<std::uint64_t>(v.size()));
  out.write(reinterpret_cast<const char*>(v.data()),
            static_cast<std::streamsize>(v.size() * sizeof(T)));
}

template <typename T>
std::vector<T> read_vec(std::ifstream& in) {
  std::uint64_t n = 0;
  read_pod(in, n);
  if (n > bytes_left(in) / sizeof(T)) {
    throw std::runtime_error("dataset payload of " + std::to_string(n) +
                             " elements exceeds the file size");
  }
  std::vector<T> v(n);
  if (n > 0 &&
      !in.read(reinterpret_cast<char*>(v.data()),
               static_cast<std::streamsize>(n * sizeof(T)))) {
    throw std::runtime_error("truncated dataset payload");
  }
  return v;
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
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path + " for write");
  out.write(kMagic, sizeof(kMagic));
  const std::uint64_t name_len = ds.name().size();
  write_pod(out, name_len);
  out.write(ds.name().data(), static_cast<std::streamsize>(name_len));
  write_pod(out, static_cast<std::uint64_t>(ds.dim()));
  write_pod(out, static_cast<std::uint32_t>(ds.metric()));
  write_pod(out, static_cast<std::uint64_t>(ds.gt_k()));
  write_vec(out, ds.base());
  write_vec(out, ds.queries());
  write_vec(out, ds.ground_truth_flat());
  if (ds.has_attributes()) {
    out.write(kAttrMagic, sizeof(kAttrMagic));
    write_vec(out, ds.categories());
    write_vec(out, ds.timestamps());
  }
  if (!out) throw std::runtime_error("short write to " + path);
}

Dataset load_dataset(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  char magic[8];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("not an ALGAS dataset file: " + path);
  }
  std::uint64_t name_len = 0;
  read_pod(in, name_len);
  if (name_len > bytes_left(in)) {
    throw std::runtime_error("dataset name exceeds the file size: " + path);
  }
  std::string name(name_len, '\0');
  if (!in.read(name.data(), static_cast<std::streamsize>(name_len))) {
    throw std::runtime_error("truncated dataset name");
  }
  std::uint64_t dim = 0;
  std::uint32_t metric = 0;
  std::uint64_t gt_k = 0;
  read_pod(in, dim);
  read_pod(in, metric);
  read_pod(in, gt_k);
  if (metric > static_cast<std::uint32_t>(Metric::kCosine)) {
    throw std::runtime_error("unknown metric " + std::to_string(metric) +
                             " in dataset file: " + path);
  }
  if (dim == 0) throw std::runtime_error("zero dimension in " + path);

  Dataset ds(name, dim, static_cast<Metric>(metric));
  ds.mutable_base() = read_vec<float>(in);
  ds.mutable_queries() = read_vec<float>(in);
  if (ds.base().size() % dim != 0 || ds.queries().size() % dim != 0) {
    throw std::runtime_error("base or query payload is not whole rows of dim " +
                             std::to_string(dim) + " in " + path);
  }
  auto gt = read_vec<NodeId>(in);
  if (gt.size() != ds.num_queries() * gt_k) {
    throw std::runtime_error("ground truth is not " + std::to_string(gt_k) +
                             " ids per query in " + path);
  }
  if (gt_k > 0) ds.set_ground_truth(std::move(gt), gt_k);
  char attr_magic[8];
  if (in.read(attr_magic, sizeof(attr_magic))) {
    if (std::memcmp(attr_magic, kAttrMagic, sizeof(kAttrMagic)) != 0) {
      throw std::runtime_error("unknown trailer in dataset file: " + path);
    }
    auto cats = read_vec<std::uint32_t>(in);
    auto ts = read_vec<std::uint32_t>(in);
    ds.set_attributes(std::move(cats), std::move(ts));
  } else if (in.gcount() != 0) {
    // A partial 1-7 byte read is corruption, not an absent trailer.
    throw std::runtime_error("truncated trailer in dataset file: " + path);
  }
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
