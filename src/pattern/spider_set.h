#pragma once

#include <cstdint>
#include <vector>

#include "pattern/pattern.h"

/// \file spider_set.h
/// The spider-set representation S[P] of a pattern (paper Sec. 4.2.2):
/// the multiset of the canonicalized r-neighborhood spiders of every vertex
/// of P, with the head vertex marked. Theorem 2: P isomorphic to Q implies
/// S[P] == S[Q]; the contrapositive lets a filter skip most pairwise
/// isomorphism tests (spider-set pruning). The growth engine filters with
/// the cheaper PatternIsoHash (dfs_code.h) instead; this representation
/// reproduces the paper's pruning-power figure (bench_spiderset_pruning).
///
/// Equal spider-sets do NOT imply isomorphism (the paper's Figure 3(II)
/// counterexample at r=1 is reproduced in the tests); callers must confirm
/// collisions with vf2.h::ArePatternsIsomorphic.

namespace spidermine {

/// The multiset S[P], stored as sorted 64-bit hashes of the canonical codes
/// of the per-vertex r-neighborhood spiders.
///
/// Hashing keeps the filter sound: identical canonical codes always hash
/// identically, so isomorphic patterns always compare equal; a (vanishingly
/// unlikely) hash collision can only cause a redundant exact check, never a
/// wrongly skipped one.
class SpiderSetRepr {
 public:
  SpiderSetRepr() = default;

  /// Computes S[P] with spider radius \p r >= 1 from scratch.
  static SpiderSetRepr Compute(const Pattern& pattern, int32_t r);

  /// Multiset equality.
  bool operator==(const SpiderSetRepr& other) const {
    return combined_ == other.combined_ && codes_ == other.codes_;
  }

  /// A single 64-bit digest for hash-bucketing patterns.
  uint64_t digest() const { return combined_; }

  /// Number of spiders in the multiset (= |V(P)|).
  size_t size() const { return codes_.size(); }

  /// Sorted per-vertex spider code hashes.
  const std::vector<uint64_t>& codes() const { return codes_; }

 private:
  std::vector<uint64_t> codes_;  // sorted multiset
  uint64_t combined_ = 0;
};

/// The r-neighborhood spider of \p center inside \p pattern: the subgraph of
/// P induced on the vertices within distance r of center, with the head
/// distinguishable (its label is tagged). Exposed for tests and for the
/// pruning-power bench.
Pattern NeighborhoodSpider(const Pattern& pattern, VertexId center, int32_t r);

}  // namespace spidermine
