#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
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
/// first isomorphic entry in admission order. Storage is flat: the entries
/// in admission order, chained per key, plus one open-addressed key table,
/// so adding an entry allocates only when a buffer doubles.

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
  void Add(uint64_t key, int64_t idx) {
    if (2 * (used_ + 1) > slots_.size()) Grow();
    Slot& slot = slots_[SlotOf(key)];
    const auto entry = static_cast<int32_t>(entries_.size());
    entries_.push_back({idx, -1});
    if (slot.key == 0) {
      slot = {key, entry, entry};
      ++used_;
    } else {
      entries_[static_cast<size_t>(slot.last)].next = entry;
      slot.last = entry;
    }
  }

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
    const Slot* slot = slots_.empty() ? nullptr : &slots_[SlotOf(key)];
    if (slot == nullptr || slot->key == 0) {
      if (first_idx == 0) ++checks->skipped;
      return -1;
    }
    for (int32_t e = slot->first; e >= 0;
         e = entries_[static_cast<size_t>(e)].next) {
      const int64_t idx = entries_[static_cast<size_t>(e)].position;
      if (idx < first_idx) continue;
      ++checks->run;
      auto found =
          FindIsomorphism(entries[static_cast<size_t>(idx)].pattern, probe);
      if (found.has_value()) {
        if (map != nullptr) *map = std::move(*found);
        return idx;
      }
    }
    return -1;
  }

 private:
  /// One key of the open-addressed table: its first and last entry.
  struct Slot {
    uint64_t key = 0;  // 0 = empty
    int32_t first = -1;
    int32_t last = -1;
  };

  /// The slot holding \p key, or the empty slot where it would go
  /// (linear probing; the table is never more than half full).
  size_t SlotOf(uint64_t key) const {
    const size_t mask = slots_.size() - 1;
    size_t s = static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> 32) & mask;
    while (slots_[s].key != 0 && slots_[s].key != key) s = (s + 1) & mask;
    return s;
  }

  /// Doubles the table (16 slots at first) and re-seats every key.
  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    for (const Slot& slot : old) {
      if (slot.key != 0) slots_[SlotOf(slot.key)] = slot;
    }
  }

  /// One added position, and the next entry under the same key (-1 =
  /// none), so a key's entries chain in admission order.
  struct Entry {
    int64_t position;
    int32_t next;
  };

  std::vector<Entry> entries_;  // in admission order
  std::vector<Slot> slots_;     // power-of-two size
  size_t used_ = 0;             // occupied slots
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
