#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/labeled_graph.h"
#include "pattern/embedding.h"
#include "pattern/pattern.h"
#include "support/support_measure.h"

/// \file complete_miner.h
/// Complete frequent-subgraph enumeration over a single graph: the
/// MoSS/gSpan-style comparator [9, 33] of the paper's evaluation. Growth is
/// edge-by-edge with occurrence lists; duplicate pattern states are pruned
/// through an IsoSet (iso_index.h), so every isomorphism class is kept
/// exactly once. The miner is exhaustive by design and therefore
/// exponential -- this is the behavior Figures 9 and 16 demonstrate ("-"
/// entries: MoSS cannot run to completion) -- so every run carries
/// explicit budgets, and exceeding them is reported, mirroring the paper's
/// practice of aborting runs over 10 hours.

namespace spidermine {

/// Budgets and parameters of the complete miner.
struct CompleteMinerConfig {
  /// Minimum support.
  int64_t min_support = 2;
  /// Overlap-aware support definition (default: the harmful-overlap-style
  /// greedy MIS on vertex conflicts, as SpiderMine uses).
  SupportMeasureKind support_measure = SupportMeasureKind::kGreedyMisVertex;
  /// Stop growing a branch at this many pattern edges (0 = unlimited).
  int32_t max_pattern_edges = 0;
  /// Abort after this many patterns (0 = unlimited).
  int64_t max_patterns = 2000000;
  /// Per-pattern embedding cap.
  int64_t max_embeddings_per_pattern = 20000;
  /// Wall-clock budget in seconds (0 = unlimited). The paper aborted
  /// baseline runs after 10 hours; benches here use minutes.
  double time_budget_seconds = 0.0;
};

/// One enumerated frequent pattern.
struct CompletePattern {
  Pattern pattern;
  int64_t support = 0;
};

/// Result of an enumeration run.
struct CompleteMineResult {
  std::vector<CompletePattern> patterns;
  /// True when a budget aborted the enumeration: the result is a PREFIX of
  /// the complete set, exactly like the paper's "-" table entries.
  bool aborted = false;
  int64_t expansions = 0;
};

/// Enumerates (up to budgets) all frequent connected patterns of \p graph.
Result<CompleteMineResult> MineComplete(const LabeledGraph& graph,
                                        const CompleteMinerConfig& config);

}  // namespace spidermine
