#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "graph/labeled_graph.h"
#include "spider/spider.h"

/// \file ball_miner.h
/// General r-spider mining (any radius, leaf-leaf edges included): anchored
/// pattern growth restricted so every vertex stays within distance r of the
/// head. This is the faithful realization of Definition 4 for r >= 1; it is
/// exponential (the paper reports Stage I runtimes of 0.6s / 2.7s / 87s /
/// out-of-memory for r = 1..4 on a 600-edge graph, reproduced by
/// bench_appc_radius) and is used for small graphs, tests, and the radius
/// ablation, while spider/star_miner.h is the r = 1 miner Stage I runs.

namespace spidermine {

/// Limits for ball mining.
struct BallMinerConfig {
  /// Minimum support sigma over distinct anchors (head images).
  int64_t min_support = 2;
  /// Spider radius r.
  int32_t radius = 1;
  /// Stop after this many spiders (<=0: unlimited).
  int64_t max_spiders = 0;
  /// Per-pattern cap on stored anchored embeddings.
  int64_t max_embeddings_per_pattern = 10000;
  /// Per-spider vertex cap (safety on dense neighborhoods).
  int32_t max_vertices = 64;
};

/// Output of ball mining.
struct BallMineResult {
  std::vector<Spider> spiders;
  bool truncated = false;
  /// Patterns expanded (mining work measure).
  int64_t expansions = 0;
};

/// Mines all frequent r-spiders of \p graph under \p config.
Result<BallMineResult> MineBallSpiders(const LabeledGraph& graph,
                                       const BallMinerConfig& config);

}  // namespace spidermine
