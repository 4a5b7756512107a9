// Bounded binary IO shared by every on-disk format (DESIGN.md "On-disk
// formats"): `.agr` graphs, `ALGASMX1` snapshots, `.abin` datasets and
// TEXMEX fvecs/ivecs. Each format's field list appears once in its writer
// and once in its reader; the checks live here. The reader takes the file
// size once, at open, checks every element count against the bytes left
// BEFORE it allocates, and requires a clean end of file. Every failure is
// a std::runtime_error "<path>: <field>: <what>".
#pragma once

#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

namespace algas {

/// Eight-byte tag that opens a file or an optional section.
using Magic = char[8];

class BinaryReader {
 public:
  explicit BinaryReader(const std::string& path)
      : path_(path), in_(path, std::ios::binary | std::ios::ate) {
    if (!in_) throw std::runtime_error("cannot open " + path);
    const auto end = in_.tellg();
    if (end < 0) fail("file size", "unseekable input");
    size_ = static_cast<std::uint64_t>(end);
    in_.seekg(0);
  }

  /// Bytes between the read position and the end of the file.
  std::uint64_t left() const { return size_ - pos_; }

  [[noreturn]] void fail(const std::string& field,
                         const std::string& what) const {
    throw std::runtime_error(path_ + ": " + field + ": " + what);
  }

  template <typename T>
  T pod(const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    T v{};
    read(&v, sizeof(T), field);
    return v;
  }

  void expect_magic(const Magic& magic, const char* field) {
    char got[sizeof(Magic)] = {};
    read(got, sizeof(got), field);
    if (std::memcmp(got, magic, sizeof(Magic)) != 0) {
      fail(field, "expected " + std::string(magic, sizeof(Magic)));
    }
  }

  /// Append `count` elements to `out`; the count is bounded by the bytes
  /// left before the vector grows.
  template <typename T>
  void append(std::vector<T>& out, std::uint64_t count, const char* field) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (count > left() / sizeof(T)) {
      fail(field, "size of " + std::to_string(count) + " x " +
                      std::to_string(sizeof(T)) + " bytes exceeds the " +
                      std::to_string(left()) + " bytes left");
    }
    const std::size_t old = out.size();
    out.resize(old + static_cast<std::size_t>(count));
    read(out.data() + old, count * sizeof(T), field);
  }

  template <typename T>
  std::vector<T> array(std::uint64_t count, const char* field) {
    std::vector<T> v;
    append(v, count, field);
    return v;
  }

  /// Trailing bytes are corruption.
  void finish() const {
    if (left() != 0) {
      fail("end of file", std::to_string(left()) + " trailing bytes");
    }
  }

 private:
  void read(void* dst, std::uint64_t bytes, const char* field) {
    if (bytes > left()) {
      fail(field, "truncated (" + std::to_string(bytes) + " bytes needed, " +
                      std::to_string(left()) + " left)");
    }
    if (bytes == 0) return;
    if (!in_.read(static_cast<char*>(dst),
                  static_cast<std::streamsize>(bytes))) {
      fail(field, "read error");
    }
    pos_ += bytes;
  }

  std::string path_;
  std::ifstream in_;
  std::uint64_t size_ = 0;
  std::uint64_t pos_ = 0;
};

class BinaryWriter {
 public:
  /// Creates or truncates `path`.
  explicit BinaryWriter(const std::string& path)
      : path_(path), out_(path, std::ios::binary | std::ios::trunc) {
    if (!out_) throw std::runtime_error("cannot open " + path + " for write");
  }

  void magic(const Magic& magic) { write(magic, sizeof(Magic)); }

  template <typename T>
  void pod(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    write(&v, sizeof(T));
  }

  /// The elements of a contiguous range (vector, string, span), raw.
  template <typename Range>
  void array(const Range& r) {
    write(std::data(r), std::size(r) * sizeof(*std::data(r)));
  }

  /// A u64 element count, then the elements.
  template <typename Range>
  void counted(const Range& r) {
    pod(static_cast<std::uint64_t>(std::size(r)));
    array(r);
  }

  /// Close the file; a failed write anywhere throws here.
  void finish() {
    out_.close();
    if (!out_) throw std::runtime_error("short write to " + path_);
  }

 private:
  void write(const void* src, std::size_t bytes) {
    if (bytes != 0) {
      out_.write(static_cast<const char*>(src),
                 static_cast<std::streamsize>(bytes));
    }
  }

  std::string path_;
  std::ofstream out_;
};

}  // namespace algas
