#pragma once

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "pattern/dfs_code.h"
#include "pattern/pattern.h"
#include "pattern/vf2.h"

/// \file iso_index.h
/// The isomorphism-class index every pattern dedup goes through (growth's
/// lineage, round, union-grouping and merge-fold lookups; the session's
/// result dedup; through IsoSet, the baselines, the complete miner and the
/// ball miner), so changing how classes are decided is a change here only.
/// Entries are positions, added in increasing order, in a caller-owned
/// container whose elements have a `pattern` member. A key miss certifies a
/// new class; a key hit is confirmed with VF2, so a lookup returns the
/// first isomorphic entry in admission order.

namespace spidermine {

/// Dedup work. A lookup from position 0 that finds no entry under its key
/// counts one `skipped` (no VF2 ran); each VF2 test counts one `run`. A
/// lookup resumed from first_idx > 0 (the merge fold finishing a pair
/// worker's snapshot lookup) counts only its VF2 tests, so the split lookup
/// counts once.
struct IsoChecks {
  int64_t skipped = 0;
  int64_t run = 0;
};

class IsoIndex {
 public:
  /// The class key (a WL fingerprint): equal for isomorphic patterns, never
  /// 0, so callers may cache it with 0 meaning "not yet computed".
  static uint64_t Key(const Pattern& pattern) {
    return PatternIsoHash(pattern);
  }

  /// Records position \p idx (above every earlier one) under \p key.
  void Add(uint64_t key, int64_t idx) { buckets_[key].push_back(idx); }

  /// The first position at or after \p first_idx whose pattern
  /// (`entries[idx].pattern`) is isomorphic to \p probe, or -1; \p key must
  /// be Key(probe). On a hit a non-null \p map gets the vertex map from that
  /// pattern to the probe ((*map)[u] = the probe vertex entry vertex u maps
  /// to), so an embedding e of the probe is one of the entry as
  /// u -> e[(*map)[u]]. Read-only: concurrent lookups are safe while
  /// nothing is added.
  template <typename Entries>
  int64_t Find(uint64_t key, const Pattern& probe, int64_t first_idx,
               const Entries& entries, std::vector<VertexId>* map,
               IsoChecks* checks) const {
    const auto bucket = buckets_.find(key);
    if (bucket == buckets_.end()) {
      if (first_idx == 0) ++checks->skipped;
      return -1;
    }
    const std::vector<int64_t>& positions = bucket->second;
    for (auto it = std::lower_bound(positions.begin(), positions.end(),
                                    first_idx);
         it != positions.end(); ++it) {
      ++checks->run;
      auto found =
          FindIsomorphism(entries[static_cast<size_t>(*it)].pattern, probe);
      if (found.has_value()) {
        if (map != nullptr) *map = std::move(*found);
        return *it;
      }
    }
    return -1;
  }

 private:
  /// Key -> positions, in admission order.
  std::unordered_map<uint64_t, std::vector<int64_t>> buckets_;
};

/// A set of patterns up to isomorphism, for miners that keep no entry
/// container of their own: it owns the inserted patterns, an IsoIndex over
/// them and the IsoChecks of its lookups.
class IsoSet {
 public:
  /// True iff no pattern isomorphic to \p pattern was inserted before; only
  /// then is \p pattern kept.
  bool Insert(const Pattern& pattern) {
    const uint64_t key = IsoIndex::Key(pattern);
    if (index_.Find(key, pattern, 0, entries_, nullptr, &checks_) >= 0) {
      return false;
    }
    index_.Add(key, static_cast<int64_t>(entries_.size()));
    entries_.push_back({pattern});
    return true;
  }

  const IsoChecks& checks() const { return checks_; }

 private:
  struct Entry {
    Pattern pattern;
  };
  std::vector<Entry> entries_;
  IsoIndex index_;
  IsoChecks checks_;
};

}  // namespace spidermine
