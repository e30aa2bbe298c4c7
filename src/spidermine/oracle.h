#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/labeled_graph.h"
#include "pattern/pattern.h"
#include "support/support_measure.h"

/// \file oracle.h
/// Exact ground truth for Definition 2 (Top-K Largest Patterns With
/// Diameter Bound) on graphs small enough for complete enumeration.
///
/// SpiderMine is probabilistic: it returns the true top-K only with
/// probability >= 1 - epsilon (Definition 3 / Theorem 1). To *test* that
/// guarantee one needs the exact answer, which the paper itself notes is
/// infeasible at scale -- but is perfectly computable on the small planted
/// graphs the tests use. The oracle enumerates every frequent connected
/// pattern (via the complete miner), filters by the diameter bound, and
/// returns the K largest. Tests and the Lemma-2 bench compare SpiderMine's
/// output against it over many seeds to measure the empirical success rate.

namespace spidermine {

/// Parameters of the exact oracle.
struct OracleConfig {
  /// Support threshold sigma.
  int64_t min_support = 2;
  /// How many top patterns to return.
  int32_t k = 10;
  /// Diameter bound Dmax (patterns with larger diameter are discarded).
  int32_t dmax = 4;
  /// Support definition; must match the SpiderMine run being validated.
  SupportMeasureKind support_measure = SupportMeasureKind::kGreedyMisVertex;
  /// Enumeration budgets (forwarded to the complete miner). The defaults
  /// suit graphs of a few hundred vertices with >= 5 labels.
  int64_t max_patterns = 2'000'000;
  int32_t max_pattern_edges = 0;
  double time_budget_seconds = 0.0;
};

/// One oracle pattern, ranked by size.
struct OraclePattern {
  Pattern pattern;
  int64_t support = 0;
  int32_t diameter = 0;
};

/// The exact answer (or an explicit admission that budgets truncated it).
struct OracleResult {
  /// The top-K largest qualifying patterns, sorted by edge count descending
  /// (ties: vertex count desc, then support desc).
  std::vector<OraclePattern> top_k;
  /// Total number of frequent diameter-bounded patterns seen.
  int64_t total_qualifying = 0;
  /// True iff enumeration ran to completion: only then is top_k certified
  /// ground truth. A false value means a budget fired and the result is a
  /// lower bound only.
  bool exact = true;
};

/// Computes the exact top-K largest frequent diameter-bounded patterns.
/// Intended for small graphs; budgets guard against misuse and are
/// reported via OracleResult::exact rather than silently truncating.
Result<OracleResult> ExactTopKLargest(const LabeledGraph& graph,
                                      const OracleConfig& config);

}  // namespace spidermine
