#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pattern/pattern.h"

/// \file dfs_code.h
/// gSpan-style minimum DFS code canonicalization for patterns. Two patterns
/// are isomorphic iff their minimum DFS codes are equal. The search is
/// exact and unbounded (exponential on large symmetric patterns), so no
/// miner keys on it: every pattern dedup goes through iso_index.h, which
/// keys on the cheaper PatternIsoHash below and confirms with VF2.

namespace spidermine {

/// One entry of a DFS code: an edge between DFS discovery ids \p from and
/// \p to with their vertex labels and the edge's own label (gSpan's 5-tuple
/// <i, j, l_i, l_ij, l_j>; edge labels default to 0 for unlabeled graphs).
/// Forward edges have to == max-id-so-far+1; backward edges have to < from.
struct DfsEdge {
  int32_t from = 0;
  int32_t to = 0;
  LabelId from_label = 0;
  LabelId to_label = 0;
  EdgeLabelId edge_label = 0;

  bool IsForward() const { return to > from; }
  bool operator==(const DfsEdge&) const = default;
};

/// A DFS code: edge sequence plus the root label (needed to make the code
/// of a single-vertex pattern well defined).
struct DfsCode {
  LabelId root_label = -1;
  std::vector<DfsEdge> edges;

  bool operator==(const DfsCode&) const = default;
};

/// Total order on DFS edges per gSpan (backward-before-forward from the
/// rightmost vertex, deeper forward extensions first, then labels).
/// Returns <0, 0 or >0.
int CompareDfsEdges(const DfsEdge& a, const DfsEdge& b);

/// Lexicographic comparison of codes under CompareDfsEdges; a proper prefix
/// compares less than its extensions. Root labels break ties first.
int CompareDfsCodes(const DfsCode& a, const DfsCode& b);

/// Computes the minimum DFS code of \p pattern. Requires a connected,
/// non-empty pattern (callers in this library only canonicalize connected
/// patterns; disconnected input is reported via the is_connected flag by
/// returning an empty code with root_label = -2).
DfsCode MinimumDfsCode(const Pattern& pattern);

/// Weisfeiler-Leman color-refinement fingerprint (3 rounds): equal for
/// isomorphic patterns, deterministic, but weaker than a canonical form
/// (non-isomorphic patterns may collide). PatternIsoHash hashes its bytes.
std::string WlRefinementString(const Pattern& pattern);

/// Serializes a code to a compact string usable as a hash/map key.
std::string DfsCodeToString(const DfsCode& code);

/// 64-bit isomorphism-invariant fingerprint: FNV-1a over the bytes of
/// WlRefinementString, folded without building the string. Isomorphic
/// patterns always hash equal, so a hash mismatch certifies non-isomorphism
/// and IsoIndex skips the exact VF2 test; equal hashes still require VF2
/// confirmation.
/// Never returns 0, so callers can use 0 as a "not yet computed" sentinel.
uint64_t PatternIsoHash(const Pattern& pattern);

/// Rebuilds a pattern from a DFS code (inverse of MinimumDfsCode up to
/// isomorphism).
Pattern PatternFromDfsCode(const DfsCode& code);

}  // namespace spidermine
