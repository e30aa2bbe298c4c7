#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/labeled_graph.h"
#include "pattern/embedding.h"
#include "pattern/pattern.h"

/// \file grew.h
/// Clean-room reimplementation of the GREW heuristic (Kuramochi & Karypis,
/// ICDM 2004 [20]), the paper's closest large-pattern competitor in
/// related work: iteratively merge pairs of existing patterns that are
/// frequently connected by an edge, maintaining VERTEX-DISJOINT embeddings
/// only. GREW "could discover some large patterns quickly", but -- as the
/// paper stresses -- gives no guarantee relative to the complete pattern
/// set; the ablation bench contrasts its recall of planted patterns with
/// SpiderMine's probabilistic guarantee.

namespace spidermine {

/// GREW parameters.
struct GrewConfig {
  /// Minimum number of vertex-disjoint co-occurrences for a merge.
  int64_t min_support = 2;
  /// Maximum merge iterations.
  int32_t max_iterations = 20;
  /// Patterns retained per iteration (best by size, then support).
  int32_t max_patterns = 64;
  /// Wall-clock budget in seconds (0 = unlimited).
  double time_budget_seconds = 0.0;
};

/// A GREW pattern with its disjoint embedding set.
struct GrewPattern {
  Pattern pattern;
  /// Mutually vertex-disjoint embeddings (GREW's invariant).
  OccurrenceList embeddings;
  int64_t support = 0;  ///< == embeddings.size()
};

/// Result of a GREW run.
struct GrewResult {
  /// Final patterns, size-descending.
  std::vector<GrewPattern> patterns;
  int32_t iterations = 0;
  bool timed_out = false;
};

/// Runs GREW-style iterative merging on \p graph.
Result<GrewResult> GrewDiscover(const LabeledGraph& graph,
                                const GrewConfig& config);

}  // namespace spidermine
