#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

/// \file stamp_set.h
/// A reusable set of small non-negative ids (graph vertices, spider ids)
/// for hot loops that empty and refill a set many times.

namespace spidermine {

/// A set of non-negative ids as per-id stamps: an id is in the set iff its
/// stamp equals the current epoch, so Clear() is O(1) and the storage is
/// reused. Clear() before the first use.
class StampSet {
 public:
  /// Empties the set.
  void Clear() {
    if (++epoch_ == 0) {  // wrapped: old stamps could read as current
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  bool Contains(int32_t id) const {
    const auto i = static_cast<size_t>(id);
    return i < stamp_.size() && stamp_[i] == epoch_;
  }

  /// Adds \p id; returns true iff it was not in the set.
  bool Insert(int32_t id) {
    const auto i = static_cast<size_t>(id);
    if (i >= stamp_.size()) stamp_.resize(i + 1, 0);
    if (stamp_[i] == epoch_) return false;
    stamp_[i] = epoch_;
    return true;
  }

 private:
  std::vector<uint32_t> stamp_;
  uint32_t epoch_ = 0;
};

}  // namespace spidermine
