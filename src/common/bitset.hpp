// Fixed-size bitset used as the per-query visited table (§IV-B step ①:
// "Each CTA initializes a part of the visited table, implemented as a
// bitmap"). The simulation is single-threaded so no atomics are needed;
// test_and_set mirrors the GPU's atomicOr semantics functionally.
#pragma once

#include <cstdint>
#include <vector>

#include "common/types.hpp"

namespace algas {

class Bitset {
 public:
  Bitset() = default;
  explicit Bitset(std::size_t bits)
      : bits_(bits), words_((bits + 63) / 64, 0) {}

  void resize(std::size_t bits) {
    bits_ = bits;
    words_.assign((bits + 63) / 64, 0);
  }

  std::size_t size() const { return bits_; }

  bool test(std::size_t i) const {
    return (words_[i >> 6] >> (i & 63)) & 1ULL;
  }

  void set(std::size_t i) { words_[i >> 6] |= (1ULL << (i & 63)); }

  void reset(std::size_t i) { words_[i >> 6] &= ~(1ULL << (i & 63)); }

  /// Set bit i; returns the previous value. Mirrors GPU atomicOr + test.
  bool test_and_set(std::size_t i) {
    const std::uint64_t mask = 1ULL << (i & 63);
    std::uint64_t& w = words_[i >> 6];
    const bool was = (w & mask) != 0;
    w |= mask;
    return was;
  }

  void clear() {
    for (auto& w : words_) w = 0;
  }

  std::size_t count() const {
    std::size_t total = 0;
    for (auto w : words_) {
      total += static_cast<std::size_t>(__builtin_popcountll(w));
    }
    return total;
  }

  /// Bytes of backing storage — used by the shared-memory accountant.
  std::size_t byte_size() const {
    return words_.size() * sizeof(std::uint64_t);
  }

 private:
  std::size_t bits_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace algas
