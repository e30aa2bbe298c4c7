#pragma once

#include <cassert>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "pattern/pattern.h"
#include "spider/spider.h"

/// \file spider_store.h
/// Flat, arena-backed columnar storage for the mined r=1 spider set (stars):
/// the canonical Stage I representation. A star is fully determined by its
/// head label plus the sorted multiset of (edge label, leaf label) pairs, so
/// the store keeps exactly that — one contiguous leaf pool and one
/// contiguous anchor pool, with per-spider offset spans — instead of a
/// `std::vector<Spider>` of individually heap-allocated patterns and anchor
/// vectors. Per-spider overhead is constant (a few
/// integers), iteration is cache-linear, and shard outputs concatenate with
/// four bulk copies. The legacy `Spider` record remains the interchange type
/// for general-radius ball spiders and can be materialized on demand.
///
/// Two storage modes share one read interface:
///   - OWNING (default): the six columns live in the store's own vectors;
///     Append/AppendPrefix/set_closed mutate them. This is what mining
///     produces.
///   - BORROWED: the columns are non-owning spans over memory someone else
///     keeps alive — in practice the mmap'd `.sm2` Stage I artifact
///     (spider/spider_store_mmap.h), so a serving replica adopts a
///     multi-GB store with zero copies and zero per-spider work. A
///     borrowed store is immutable: every mutating call asserts.
/// Every read accessor dispatches to the active columns, so the growth
/// engine, index build and serialization never care which mode they see.

namespace spidermine {

/// A star leaf as stored: the connecting edge's label plus the leaf vertex
/// label. For edge-unlabeled graphs the edge label is always 0.
using SpiderLeafKey = std::pair<EdgeLabelId, LabelId>;

/// Columnar container of mined stars. Ids are dense [0, size()) in the
/// canonical mined order; spans stay valid until the next mutating call
/// (owning mode) or for the lifetime of the mapped memory (borrowed mode).
class SpiderStore {
 public:
  SpiderStore() = default;

  /// Builds a non-owning store over externally managed columns (the
  /// zero-copy mmap path). The caller guarantees: the memory outlives the
  /// store and every span handed out from it; `leaf_offsets` and
  /// `anchor_offsets` have `head_labels.size() + 1` non-decreasing entries
  /// starting at 0 and ending at the respective pool size; leaves within a
  /// spider are sorted and anchors strictly ascending (the `.sm2` reader
  /// checks the offset invariants before calling this; pool content is
  /// guarded by section CRCs). `closed` is either one flag per spider or
  /// empty (a `.sm2p` partial, whose store must not be asked closed()).
  static SpiderStore Borrowed(std::span<const LabelId> head_labels,
                              std::span<const uint8_t> closed,
                              std::span<const int64_t> leaf_offsets,
                              std::span<const SpiderLeafKey> leaf_pool,
                              std::span<const int64_t> anchor_offsets,
                              std::span<const VertexId> anchor_pool);

  /// True when the columns are borrowed spans (mmap mode); such a store is
  /// read-only.
  bool is_borrowed() const { return borrowed_; }

  /// Number of spiders stored.
  int64_t size() const {
    return static_cast<int64_t>(head_labels_col().size());
  }
  bool empty() const { return head_labels_col().empty(); }

  /// Head label of spider \p id.
  LabelId head_label(int32_t id) const { return head_labels_col()[id]; }

  /// Sorted (edge label, leaf label) pairs of spider \p id — the same
  /// multiset `Spider::LeafKeys()` returns, without materialization.
  std::span<const SpiderLeafKey> leaves(int32_t id) const {
    std::span<const int64_t> offsets = leaf_offsets_col();
    return leaf_pool_col().subspan(
        static_cast<size_t>(offsets[id]),
        static_cast<size_t>(offsets[id + 1] - offsets[id]));
  }

  /// Sorted anchor vertices (head images) of spider \p id.
  std::span<const VertexId> anchors(int32_t id) const {
    std::span<const int64_t> offsets = anchor_offsets_col();
    return anchor_pool_col().subspan(
        static_cast<size_t>(offsets[id]),
        static_cast<size_t>(offsets[id + 1] - offsets[id]));
  }

  /// Support of spider \p id = number of distinct anchors.
  int64_t support(int32_t id) const {
    std::span<const int64_t> offsets = anchor_offsets_col();
    return offsets[id + 1] - offsets[id];
  }

  /// Closedness flag (no super-spider with the identical anchor set).
  bool closed(int32_t id) const { return closed_col()[id] != 0; }
  void set_closed(int32_t id, bool closed) {
    assert(!borrowed_ && "cannot mutate a borrowed (mmap'd) SpiderStore");
    closed_[id] = closed ? 1 : 0;
  }

  /// True iff \p vertex anchors spider \p id (binary search).
  bool IsAnchoredAt(int32_t id, VertexId vertex) const;

  /// Id of the star (\p head, sorted \p leaves), or -1 when it is not
  /// stored. A binary search over the canonical order mining and the
  /// partial merge produce: head label, then the leaf vector
  /// lexicographically, prefixes first.
  int32_t Find(LabelId head, std::span<const SpiderLeafKey> leaves) const;

  /// Vertex count of the star pattern: 1 + number of leaves.
  int32_t NumVerticesOf(int32_t id) const {
    std::span<const int64_t> offsets = leaf_offsets_col();
    return 1 + static_cast<int32_t>(offsets[id + 1] - offsets[id]);
  }

  /// Total leaf entries across all spiders.
  int64_t TotalLeaves() const {
    return static_cast<int64_t>(leaf_pool_col().size());
  }

  /// Total anchor incidences across all spiders.
  int64_t TotalAnchors() const {
    return static_cast<int64_t>(anchor_pool_col().size());
  }

  /// Footprint of the pools and columns, in bytes. Owning mode reports
  /// heap capacity (the O(B) Stage I memory bound is measured against
  /// this); borrowed mode reports the mapped extent — bytes referenced,
  /// shared through page cache rather than allocated.
  int64_t HeapBytes() const;

  // ---- Whole-column views (serialization and the `.sm2` writer). ----
  std::span<const LabelId> head_labels() const { return head_labels_col(); }
  std::span<const uint8_t> closed_flags() const { return closed_col(); }
  std::span<const int64_t> leaf_offsets() const { return leaf_offsets_col(); }
  std::span<const SpiderLeafKey> leaf_pool() const { return leaf_pool_col(); }
  std::span<const int64_t> anchor_offsets() const {
    return anchor_offsets_col();
  }
  std::span<const VertexId> anchor_pool() const { return anchor_pool_col(); }

  /// Appends a spider; returns its id. \p leaves must be sorted
  /// non-decreasingly and \p anchors ascending. Owning mode only.
  int32_t Append(LabelId head_label, std::span<const SpiderLeafKey> leaves,
                 std::span<const VertexId> anchors, bool closed = true);

  /// Bulk-appends the first \p count spiders of \p other in order (the
  /// admitted prefix of a shard). \p count is clamped to other.size().
  /// Owning mode only (\p other may be either mode).
  void AppendPrefix(const SpiderStore& other, int64_t count);

  /// Pre-sizes the pools (optional; Append works regardless).
  void Reserve(int64_t num_spiders, int64_t total_leaves,
               int64_t total_anchors);

  /// Reconstructs the star pattern of spider \p id (vertex 0 = head).
  Pattern PatternOf(int32_t id) const;

  /// Materializes the legacy Spider record (pattern, anchors, support,
  /// closed flag) for spider \p id.
  Spider Materialize(int32_t id) const;

  /// Materializes every spider, in id order.
  std::vector<Spider> MaterializeAll() const;

  /// Builds a store from star-shaped Spider records (every edge incident to
  /// vertex 0), e.g. a star miner result or hand-built test fixtures.
  static SpiderStore FromSpiders(const std::vector<Spider>& spiders);

 private:
  // Active-column dispatch: borrowed spans when borrowed_, else views over
  // the owned vectors. One predictable branch per accessor.
  std::span<const LabelId> head_labels_col() const {
    return borrowed_ ? b_head_labels_
                     : std::span<const LabelId>(head_labels_);
  }
  std::span<const uint8_t> closed_col() const {
    return borrowed_ ? b_closed_ : std::span<const uint8_t>(closed_);
  }
  std::span<const int64_t> leaf_offsets_col() const {
    return borrowed_ ? b_leaf_offsets_
                     : std::span<const int64_t>(leaf_offsets_);
  }
  std::span<const SpiderLeafKey> leaf_pool_col() const {
    return borrowed_ ? b_leaf_pool_
                     : std::span<const SpiderLeafKey>(leaf_pool_);
  }
  std::span<const int64_t> anchor_offsets_col() const {
    return borrowed_ ? b_anchor_offsets_
                     : std::span<const int64_t>(anchor_offsets_);
  }
  std::span<const VertexId> anchor_pool_col() const {
    return borrowed_ ? b_anchor_pool_
                     : std::span<const VertexId>(anchor_pool_);
  }

  // Owning columns (unused in borrowed mode).
  std::vector<LabelId> head_labels_;        // size n
  std::vector<uint8_t> closed_;             // size n
  std::vector<int64_t> leaf_offsets_{0};    // size n+1
  std::vector<SpiderLeafKey> leaf_pool_;    // contiguous leaf arena
  std::vector<int64_t> anchor_offsets_{0};  // size n+1
  std::vector<VertexId> anchor_pool_;       // contiguous anchor arena

  // Borrowed columns (mmap mode; empty otherwise).
  bool borrowed_ = false;
  std::span<const LabelId> b_head_labels_;
  std::span<const uint8_t> b_closed_;
  std::span<const int64_t> b_leaf_offsets_;
  std::span<const SpiderLeafKey> b_leaf_pool_;
  std::span<const int64_t> b_anchor_offsets_;
  std::span<const VertexId> b_anchor_pool_;
};

/// Closure's VF2 start roots (Vf2Options::start_roots): the anchors of the
/// star that pattern vertex \p v and its pattern neighbours form, or
/// nullopt when \p store does not hold it (more leaves than
/// max_star_leaves, support below the floor, a truncated store). The star
/// is v's label plus the sorted (edge label, neighbour label) keys of its
/// pattern edges; under \p homomorphic each key once, since a homomorphism
/// may send equal-key neighbours to one graph vertex. A stored star's
/// anchor list is every vertex of that label with at least that many
/// distinct neighbours per key, so it holds v's image in every embedding
/// and is an ascending subsequence of the label's vertices.
std::optional<std::span<const VertexId>> StarRoots(const SpiderStore& store,
                                                   const Pattern& pattern,
                                                   VertexId v,
                                                   bool homomorphic);

}  // namespace spidermine
