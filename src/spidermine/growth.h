#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "graph/labeled_graph.h"
#include "pattern/embedding.h"
#include "pattern/pattern.h"
#include "spider/spider_index.h"
#include "spidermine/config.h"
#include "spidermine/stats.h"

/// \file growth.h
/// The SpiderGrow / SpiderExtend / CheckMerge machinery (paper Algorithms
/// 2-4). A growth round expands every in-flight pattern by one spider layer
/// (radius +r), detecting merges through shared spider anchors.
///
/// Parallel execution model: each input pattern's intra-round expansion (a
/// "lineage") is independent of every other lineage, so lineages run on
/// ThreadPool workers, each writing into its own pre-sized slot with its own
/// stat counters. The coordinating thread then folds lineages in input
/// order -- cross-lineage dedup, id assignment, and registry remap happen
/// serially in a stable order. The CheckMerge pass builds each colliding
/// anchor bucket's union candidates on the workers (every bucket reads the
/// same pre-merge snapshot, and each resolves its duplicates of that
/// snapshot there) and admits them in a serial sorted-key fold -- so the
/// round's output is identical at any thread count. Every fan-out (seeds,
/// lineages, merge pairs, folds) is one ThreadPool::ParallelForChunks call
/// on the engine's pool. There is no separate serial path: a one-thread
/// pool runs the same loops inline.
///
/// Every dedup site (lineage, round, union grouping, merge fold and the
/// session's result dedup) goes through pattern/iso_index.h, so the pattern
/// kept is always the first isomorphic one in admission order. Within one
/// examined pattern pair, union instances of the same shape (which
/// positions of the two embeddings coincide) are classified once.

namespace spidermine {

/// An in-flight pattern during Stage II / III growth.
struct GrowthPattern {
  Pattern pattern;
  /// Known embeddings E[P] (occurrence-list growth semantics: embeddings of
  /// an extension are extensions of these), one row per embedding, of
  /// pattern.NumVertices() vertices.
  OccurrenceList embeddings;
  /// Support under the configured measure.
  int64_t support = 0;
  /// Frontier pattern vertices eligible for spider extension this round
  /// (B[P] in the paper: the outermost layer).
  std::vector<VertexId> boundary;
  /// Vertices added this round; becomes the next round's boundary.
  std::vector<VertexId> next_boundary;
  /// Position of the boundary vertex currently being examined
  /// (the paper's P.pointer).
  size_t cursor = 0;
  /// True when this pattern is a merge result or descends from one
  /// (Stage II keeps only such patterns).
  bool merged_ever = false;
  /// Cached IsoIndex::Key of `pattern` (0 = not yet computed), filled on
  /// first dedup use; valid because a GrowthPattern's pattern is never
  /// mutated after construction (extensions build fresh candidates).
  uint64_t iso_hash = 0;
  /// Unique id for merge bookkeeping (assigned by the coordinating thread
  /// in a deterministic order).
  int64_t id = 0;
  /// True once the pattern failed to grow in a full round (Stage III
  /// fixpoint detection).
  bool exhausted = false;
};

/// Result of one growth round.
struct GrowRoundResult {
  std::vector<GrowthPattern> patterns;
  /// True when at least one extension or merge happened.
  bool any_growth = false;
  /// True when max_patterns_per_round or cancellation suppressed
  /// extensions.
  bool truncated = false;
};

/// Spider-usage registry for merge detection: the paper's Buf_pre/Buf_cur.
/// One (key, pattern id) pair per use, key = (spider id, graph anchor
/// vertex). GrowRound leaves it sorted and free of repeats, so each key's
/// ids are one ascending run.
using MergeRegistry = std::vector<std::pair<uint64_t, int64_t>>;

/// Executes growth rounds against a fixed graph + spider set.
class GrowthEngine {
 public:
  /// All pointers and references are borrowed and must outlive the engine.
  /// \p session carries the graph-scoped parameters (the transaction
  /// sources); \p query the per-query knobs, already QueryConfig::Resolve()d
  /// (MiningSession::RunQuery resolves before constructing an engine).
  /// Seeding, lineage expansion, the merge pass and the folds fan out over
  /// \p pool (a one-thread pool runs them inline; results are identical at
  /// any thread count). \p token is polled inside rounds and on the
  /// workers, so the query's time budget (the token's deadline) bounds even
  /// a single expensive round.
  GrowthEngine(const LabeledGraph* graph, const SpiderIndex* index,
               const SessionConfig* session, const QueryConfig* query,
               MineStats* stats, ThreadPool& pool,
               const CancellationToken& token);

  /// Builds seeds for every spider id in \p picks, in order, fanning the
  /// per-spider embedding enumeration (embeddings enumerated per anchor,
  /// boundary = outermost layer) out over the pool. Ids and stats are
  /// assigned in pick order, so the result is identical at any thread
  /// count. A seed whose chunk the token skipped is left empty.
  std::vector<GrowthPattern> SeedPatterns(const std::vector<int32_t>& picks);

  /// One SpiderGrow round over \p input: every pattern is extended at every
  /// boundary vertex with every compatible closed spider (paper Algorithm
  /// 2), with iso-hash dedup and closedness pruning, then patterns sharing
  /// a (spider, anchor) with this round or with the previous round's
  /// registry \p previous are merged (CheckMerge, Algorithm 4).
  /// \p previous (empty, or as the last GrowRound left it) is replaced by
  /// this round's registry.
  GrowRoundResult GrowRound(std::vector<GrowthPattern> input,
                            MergeRegistry& previous);

  /// Recomputes support for \p gp under the configured measure.
  int64_t Support(const GrowthPattern& gp) const;

  /// Binds the current restart run's transaction sample (sorted whitelist;
  /// borrowed, nullptr = count all transactions) for kTransaction support.
  /// Callers set it between runs — the engine is query-local and runs are
  /// serial, so no synchronization is involved.
  void SetTxnSample(const std::vector<int32_t>* sample) {
    txn_sample_ = sample;
  }

 private:
  struct RoundState;
  struct Lineage;
  struct PendingFold;

  /// True once the query's token requests a stop.
  bool Cancelled() const { return token_.IsCancelled(); }

  /// Seed construction with stats written to \p local (worker-safe; no
  /// shared-state writes).
  GrowthPattern BuildSeed(int32_t spider_id, MineStats* local) const;

  /// Runs the full intra-round expansion of one input pattern into \p ls,
  /// admitting at most \p pattern_cap patterns (the round's global
  /// max_patterns_per_round budget divided across lineages). Worker-safe:
  /// touches only \p ls and shared read-only state.
  void ExpandLineage(GrowthPattern input, Lineage* ls,
                     int64_t pattern_cap) const;

  /// SpiderExtend (Algorithm 3): extends \p ls->pool[base_idx] at boundary
  /// vertex \p v with spider \p spider_id. \p np_keys are the sorted
  /// (edge label, vertex label) keys of v's pattern neighbours and
  /// \p sorted_images the base embeddings' sorted images, both hoisted
  /// across candidate spiders. Returns false when the extension is
  /// infrequent or impossible; on success appends to the lineage and its
  /// expansion \p queue.
  bool TryExtend(Lineage* ls, std::vector<int64_t>* queue, int64_t base_idx,
                 VertexId v, std::span<const SpiderLeafKey> np_keys,
                 int32_t spider_id,
                 const OccurrenceList& sorted_images,
                 bool* support_preserved) const;

  /// Runs CheckMerge for all colliding registry keys. The examined pattern
  /// pairs (the expensive part: overlap collection, union-instance
  /// building, support counting, dedup against the pre-merge pool) are
  /// flattened across buckets and fan out over the pool individually
  /// against the pre-merge pool snapshot, so a single hot anchor bucket no
  /// longer serializes the pass; a serial fold then admits candidates in
  /// sorted (key, pair) order, so the outcome is identical at any thread
  /// count.
  void RunMerges(RoundState* rs, const MergeRegistry& previous);

  /// Folds each pending duplicate's embeddings into its target pool
  /// pattern, in the order the duplicates were found, then recomputes each
  /// target's support once; targets fan out over the pool. Runs to
  /// completion even after cancellation, so every fold target leaves
  /// folded and with a fresh support.
  void ApplyFolds(RoundState* rs, std::vector<PendingFold> folds) const;

  const LabeledGraph* graph_;
  const SpiderIndex* index_;
  const SessionConfig* session_;
  const QueryConfig* query_;
  MineStats* stats_;
  ThreadPool& pool_;
  const CancellationToken& token_;
  int64_t next_id_ = 1;
  /// Current restart run's transaction whitelist (see SetTxnSample).
  const std::vector<int32_t>* txn_sample_ = nullptr;
};

}  // namespace spidermine
