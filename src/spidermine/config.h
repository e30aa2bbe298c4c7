#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "support/support_measure.h"

/// \file config.h
/// User-facing parameters of SpiderMine (paper Algorithm 1 inputs) plus the
/// engineering caps that bound memory on pathological inputs. Every cap
/// records its trigger in MineStats (stats.h) so truncation is never
/// silent.
///
/// The parameters split along the paper's cost structure (Sec. 4.2.1):
/// Stage I (mining all r-spiders) is a one-time pass over the massive
/// network, while Stages II/III are randomized and cheap enough to rerun
/// per query. `SessionConfig` carries the graph-scoped knobs that shape the
/// Stage I artifacts a `MiningSession` caches; `QueryConfig` carries the
/// per-query knobs of Stages II+III. A one-shot run passes one of each to
/// `MineOnce` (session.h).

namespace spidermine {

class ThreadPool;

/// Cap on a query's accumulated result list (kept sorted by size).
inline constexpr int64_t kMaxResults = 10000;

/// Graph-scoped parameters: everything that determines the Stage I spider
/// set (and therefore must be fixed for the lifetime of a MiningSession).
/// The session copies this struct at construction; the two borrowed
/// pointers (`pool`, `txn_of_vertex`) stay owned by the caller and must
/// outlive the session — every other field is a value. After
/// construction the stored config is immutable, which is one leg of the
/// concurrent-RunQuery contract (docs/SERVING.md).
struct SessionConfig {
  /// Support floor sigma of the mined spider set. Queries may ask for any
  /// min_support >= this floor; lower values would need spiders the session
  /// never mined.
  int64_t min_support = 2;
  /// Star miner: max leaves per spider.
  int32_t max_star_leaves = 8;
  /// Star miner: global spider budget (0 = unlimited). Deterministic: the
  /// admitted set is the exact prefix of the unlimited enumeration.
  int64_t max_spiders = 0;

  // ---- Parallelism. ----
  /// Worker threads for Stage I star shards and for every query's growth
  /// stages. 1 = serial; 0 = all hardware threads. Results are identical at
  /// any value (see ARCHITECTURE.md, threading model).
  int32_t num_threads = 1;
  /// Caller-provided worker pool (borrowed; must outlive the session).
  /// When non-null it is used instead of constructing a session-owned pool;
  /// num_threads is then ignored. Results are identical either way.
  ThreadPool* pool = nullptr;
  /// Stage I vertex-range shard grain (StarMinerConfig::shard_grain): root
  /// scans of one head label split into ranges of at most this many
  /// vertices. <= 0 selects an automatic grain. Mined results are
  /// identical at any value.
  int64_t stage1_shard_grain = 0;
  /// Wall-clock budget for Stage I mining in seconds (0 = unlimited). An
  /// expired budget yields a truncated (but usable) spider set, reported
  /// via the session's stage1 stats.
  double stage1_time_budget_seconds = 0.0;

  /// Transaction setting: transaction id per vertex of the (disjoint-union)
  /// input graph; enables SupportMeasureKind::kTransaction in queries.
  /// Borrowed; must outlive the session.
  const std::vector<int32_t>* txn_of_vertex = nullptr;
  /// Per-vertex transaction payloads (Lei et al.; loaded from a `--txn-map`
  /// file, see txn_adapter.h). Takes precedence over txn_of_vertex for
  /// kTransaction queries: an embedding covers a transaction iff every
  /// image vertex carries it. Borrowed; must outlive the session.
  const VertexTxnMap* txn_map = nullptr;

  /// Field-range validation. Sessions refuse to build on failure.
  Status Validate() const;
};

/// Query-scoped parameters: the Stage II+III knobs of one top-K query.
/// Every field may differ between queries on the same session, including
/// concurrent ones: RunQuery copies the struct up front, so the caller
/// may reuse or mutate it the moment the call returns (values only — no
/// borrowed state; the transaction map lives on SessionConfig).
struct QueryConfig {
  // ---- Problem parameters (Definition 3). ----
  /// Support threshold sigma for this query. 0 selects the session's mined
  /// floor; explicit values must be >= that floor.
  int64_t min_support = 0;
  /// Number of top patterns to return (K).
  int32_t k = 10;
  /// Error bound epsilon: the returned set contains the true top-K with
  /// probability >= 1 - epsilon.
  double epsilon = 0.1;
  /// Pattern diameter upper bound Dmax.
  int32_t dmax = 4;
  /// User lower bound Vmin on the vertex count of a "large" pattern;
  /// 0 selects the paper's example default |V(G)|/10.
  int64_t vmin = 0;
  /// Support definition (overlap handling); see support_measure.h.
  /// kTransaction requires the session to carry txn_of_vertex or txn_map.
  SupportMeasureKind support_measure = SupportMeasureKind::kGreedyMisVertex;
  /// Sampling-based transaction top-K (Lei et al.): when > 0, each restart
  /// run counts only a uniform sample of this many transaction ids, drawn
  /// from the run's own RNG substream (byte-deterministic at any thread
  /// count); values >= the transaction universe count everything. 0 = all
  /// transactions. Requires support_measure == kTransaction.
  int64_t txn_sample = 0;

  // ---- Randomization. ----
  /// RNG seed for the random spider draw. Each restart run r draws from an
  /// independent substream seeded with rng_seed ^ (kRunSeedStride * r), so
  /// parallel scheduling cannot perturb the draws of later runs.
  uint64_t rng_seed = 42;
  /// Overrides the computed number M of seed spiders when > 0.
  int64_t seed_count_override = 0;
  /// Number of independent Stage II + III runs over the session's cached
  /// spider set (paper Sec. 4.2.1: "we can run the remaining stages ...
  /// multiple times to increase the probability of obtaining the top-K
  /// large patterns"). Results accumulate across runs. 0 returns no
  /// patterns (seed-count math only); negatives clamp to the default 1.
  int32_t restarts = 1;

  // ---- Engineering caps. Each of the six below must be >= 1 (Validate
  // rejects 0 and negatives: none of them means "unlimited"). ----
  /// Per-pattern cap on stored embeddings.
  int64_t max_embeddings_per_pattern = 10000;
  /// Cap on in-flight patterns per growth round.
  int64_t max_patterns_per_round = 4000;
  /// Per-anchor cap on seed-spider embedding enumeration.
  int64_t max_seed_embeddings_per_anchor = 20;
  /// Merge detection: max pattern pairs examined per shared spider anchor.
  int32_t max_merge_pairs_per_key = 8;
  /// Merge: max overlapping embedding pairs turned into union instances
  /// per pattern pair.
  int32_t max_union_instances = 256;
  /// Stage III stops after this many growth rounds even without a fixpoint.
  int32_t stage3_max_rounds = 64;
  /// Wall-clock budget for this query in seconds (0 = unlimited).
  double time_budget_seconds = 0.0;

  // ---- Behavioral switches. ----
  /// Post-growth internal-edge closure (see spidermine/closure.h): restores
  /// cycle-closing edges that star-based outward growth cannot add. The
  /// paper's full-spider Stage I plants these edges at append time; with
  /// the star fast path this refinement is needed for exactness on cyclic
  /// patterns. Can only enlarge patterns; never violates Dmax.
  bool close_internal_edges = true;
  /// Drop results whose diameter exceeds dmax. Definition 2 requires
  /// diam(P) <= Dmax of returned patterns, but Algorithm 1's Stage III
  /// ("grow until no more frequent patterns") can legitimately exceed it --
  /// the paper itself reports recovered patterns larger than the injected
  /// ones. Off by default to keep that (desirable) behavior; switch on for
  /// strict Definition-2 output (the exact oracle always enforces it).
  bool enforce_dmax_on_results = false;

  /// How many of the size-ranked results closure examines: max(64, 8k).
  /// Closure can promote a pattern past others, so the window is kept well
  /// above K; patterns far below the window are too small to reach top-K.
  int64_t ClosureWindow() const { return std::max<int64_t>(64, 8LL * k); }

  /// Field-range validation (session-independent parts; the min_support
  /// floor and txn_of_vertex checks need the session and run in RunQuery).
  /// A failed query never touches session state.
  Status Validate() const;

  /// This query with every default and clamp of a run resolved; the one
  /// place they live (RunQuery runs on the resolved copy):
  ///   - `min_support` 0 -> \p session_min_support (the mined floor);
  ///   - `vmin` 0 -> the paper's max(1, |V|/10) over \p graph_vertices,
  ///     and every `vmin` clamped to |V|;
  ///   - negative `restarts` -> the default 1.
  /// Idempotent; needs no validation first.
  QueryConfig Resolve(int64_t session_min_support,
                      int64_t graph_vertices) const;

  /// Stable FNV-1a hash over every result-determining field of
  /// Resolve(\p session_min_support, \p graph_vertices), in declared field
  /// order, so semantically identical requests hash identically. The
  /// parallelism knobs do not live here, so they cannot split cache lines
  /// between identical answers (docs/SERVING.md). `time_budget_seconds`
  /// IS hashed — an expiring budget
  /// truncates results — but callers must not cache results whose stats
  /// report `timed_out` (the truncation point is wall-clock dependent).
  /// The hash keys the serving result cache (result_cache.h) together
  /// with the session's Stage I content key; it is a cache key, not a
  /// cryptographic digest.
  uint64_t CanonicalHash(int64_t session_min_support,
                         int64_t graph_vertices) const;
};

}  // namespace spidermine
