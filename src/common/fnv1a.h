#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>

/// \file fnv1a.h
/// 64-bit FNV-1a, the hash behind every content hash and cache key. Unlike
/// std::hash its values are the same on every platform and run, so they can
/// be stored in files (`graph_hash`) and key byte-identical results.
/// MixWord folds a 64-bit word per step, the Mix*Bytes methods one byte per
/// step; the two give different values, and each hash keeps its fold.

namespace spidermine {

class Fnv1a {
 public:
  static constexpr uint64_t kOffsetBasis = 0xcbf29ce484222325ULL;
  static constexpr uint64_t kPrime = 0x100000001b3ULL;

  Fnv1a() = default;
  /// Starts from \p basis instead of the standard offset basis.
  explicit Fnv1a(uint64_t basis) : hash_(basis) {}

  void MixWord(uint64_t word) { hash_ = (hash_ ^ word) * kPrime; }

  /// Folds \p size bytes at \p data, in memory order.
  void MixBytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; ++i) hash_ = (hash_ ^ p[i]) * kPrime;
  }

  /// Folds the bytes of \p value in memory order.
  template <typename T>
  void MixValueBytes(T value) {
    static_assert(std::is_trivially_copyable_v<T>);
    MixBytes(&value, sizeof(value));
  }

  /// Folds the eight bytes of \p value, least significant first.
  void MixU64Bytes(uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ = (hash_ ^ ((value >> (8 * i)) & 0xFF)) * kPrime;
    }
  }

  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = kOffsetBasis;
};

}  // namespace spidermine
