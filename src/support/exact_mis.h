#pragma once

#include <cstdint>

#include "common/result.h"
#include "pattern/embedding.h"
#include "pattern/pattern.h"
#include "support/support_measure.h"

/// \file exact_mis.h
/// Exact overlap-aware support: the true maximum independent set of the
/// embedding conflict graph (conflict = shared vertex or shared edge),
/// computed by branch and bound. This is the measure the greedy
/// approximations in support_measure.h stand in for; it is NP-hard in
/// general, so a node budget bounds the search. Useful for validating the
/// greedy measures on small embedding sets (see the accuracy tests) and
/// for exact support of the final top-K patterns.

namespace spidermine {

/// Conflict definition for the exact computation.
enum class MisConflict {
  kSharedVertex,  ///< embeddings conflict iff they share a graph vertex
  kSharedEdge,    ///< embeddings conflict iff they map a shared graph edge
};

/// Result of an exact MIS computation.
struct ExactMisResult {
  int64_t support = 0;
  /// True when the node budget ended the search early; `support` is then
  /// a lower bound (the best independent set found).
  bool truncated = false;
  int64_t nodes_explored = 0;
};

/// Computes the exact MIS support of \p embeddings under \p conflict.
/// \p max_nodes bounds the branch-and-bound search (<= 0: a generous
/// default of 1e6). Fails with kInvalidArgument for empty patterns when
/// edge conflicts are requested.
Result<ExactMisResult> ComputeExactMisSupport(
    const Pattern& pattern, const OccurrenceList& embeddings,
    MisConflict conflict, int64_t max_nodes = 0);

}  // namespace spidermine
