#pragma once

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "graph/labeled_graph.h"
#include "spider/spider_store.h"

/// \file star_miner.h
/// Stage I of SpiderMine for r = 1 (the paper's own implementation choice:
/// "we focus on the case for r = 1 for simplicity of presentation and
/// implementation", Appendix B). A 1-spider grown strictly outward is a
/// star: a head label plus a multiset of leaf labels; this miner enumerates
/// all frequent stars level-wise over the leaf multiset, maintaining anchor
/// lists (head images) for support counting, into a flat `SpiderStore`.
///
/// Work decomposes two-dimensionally so hub labels never serialize a shard:
///
///  1. **Scan shards (head label × vertex range).** The root of each
///     label's enumeration tree needs, per candidate leaf key, the number
///     of head vertices carrying that key — a linear scan over the label's
///     vertex list. That scan splits into contiguous vertex ranges of at
///     most `shard_grain` vertices; partial counts fold per label in range
///     order. The fold is an integer sum, so the mined set is identical at
///     any grain.
///  2. **Enumeration shards (head label × first leaf key).** Every frequent
///     first key roots an independent subtree of the level-wise
///     enumeration; each subtree mines into its own local SpiderStore.
///     Shard outputs concatenate in (label, first key, DFS) order — exactly
///     the serial enumeration order — so results are identical at any
///     thread count.
///
/// Both shard kinds, and the per-vertex neighbour-count rows they read,
/// dispatch through ThreadPool::ParallelForChunks on the caller's pool,
/// which is required: a serial caller passes a one-thread pool, whose
/// inline branch runs every shard in canonical order on the calling thread.
///
/// `max_spiders` is a deterministic **global** budget: shards first report
/// their sizes (a counting pass with O(1) memory per shard), a serial
/// coordinator fold walks shards in canonical order assigning each its
/// exact admitted prefix, and only those prefixes are materialized. Stage I
/// transient spider-store memory is therefore O(max_spiders), not
/// O(num_labels × max_spiders), and the returned set is the exact prefix
/// of the unlimited enumeration at any thread count or shard grain. The
/// budgeted path trades at most one extra enumeration pass for that bound.
///
/// Stage I runs this miner only. General radii are mined by
/// baselines/ball_miner.h, which serves the radius bench and tests.

namespace spidermine {

/// Limits for star mining.
struct StarMinerConfig {
  /// Minimum support sigma over distinct anchors.
  int64_t min_support = 2;
  /// Maximum number of leaves per star (bounds the level-wise depth).
  int32_t max_leaves = 8;
  /// Global spider budget (<=0: unlimited). When hit, the result is the
  /// exact prefix of the unlimited enumeration in canonical (label, first
  /// key, DFS) order, and the flag below reports the truncation.
  int64_t max_spiders = 0;
  /// Vertex-range grain of the per-label root scans: each scan shard covers
  /// at most this many head vertices. <= 0 selects an automatic grain. The
  /// mined set is identical at any value.
  int64_t shard_grain = 0;
};

/// Output of star mining.
struct StarMineResult {
  /// The mined spiders, in canonical order.
  SpiderStore store;
  /// True when max_spiders (or cancellation) cut enumeration short.
  bool truncated = false;
  /// Number of level-wise extension attempts (mining work measure).
  int64_t extension_attempts = 0;
  /// Scan shards run (label × vertex-range cells).
  int64_t num_scan_shards = 0;
  /// Enumeration shards run (label × first-leaf-key subtrees).
  int64_t num_enum_shards = 0;

  /// Materializes legacy Spider records (tests and interop).
  std::vector<Spider> Spiders() const { return store.MaterializeAll(); }
};

/// Mines all frequent 1-spiders (stars) of \p graph. The neighbour-count
/// rows, scan shards and enumeration shards run on \p pool (a one-thread
/// pool runs them inline); the mined set is independent of the thread
/// count and the shard grain. A non-null \p token is polled between
/// chunks and inside shard enumeration: cancellation stops mining
/// mid-shard and marks the result truncated.
Result<StarMineResult> MineStarSpiders(
    const LabeledGraph& graph, const StarMinerConfig& config,
    ThreadPool& pool, const CancellationToken* token = nullptr);

}  // namespace spidermine
