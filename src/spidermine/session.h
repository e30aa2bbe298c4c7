#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "graph/labeled_graph.h"
#include "pattern/embedding.h"
#include "pattern/pattern.h"
#include "spider/spider_index.h"
#include "spider/spider_store.h"
#include "spider/spider_store_mmap.h"
#include "spidermine/config.h"
#include "spidermine/result_cache.h"
#include "spidermine/stats.h"

/// \file session.h
/// The serving front door of SpiderMine: mine Stage I once, answer many
/// top-K queries against the cached spider set.
///
/// The paper's cost split (Sec. 4.2.1) is that Stage I — mining all
/// r-spiders of the massive network — is a one-time pass, while Stages
/// II/III are randomized and cheap enough to rerun "multiple times to
/// increase the probability of obtaining the top-K large patterns". A
/// `MiningSession` owns the graph plus the Stage I artifacts (the columnar
/// `SpiderStore`, the CSR `SpiderIndex`, the closed-spider flags, the
/// worker pool) built exactly once; `RunQuery` executes Stages II+III
/// against that cache with per-query k, min_support (any value >= the
/// session's mined floor), rng_seed, restarts, dmax and caps. Queries are
/// validated via Result<> up front, so a bad query returns an error and
/// never invalidates the session, and each query result is byte-identical
/// to a fresh session answering the same query, at any thread count.
///
/// Thread-safety contract (see docs/SERVING.md for the full statement):
/// after construction every Stage I artifact -- the store, the index, the
/// closed flags, the graph pointer and the SessionConfig -- is immutable,
/// and `RunQuery` is `const`: any number of threads may call it
/// concurrently on one session. Each query owns all of its mutable state
/// (GrowthEngine, RNG, collectors, stats); the only cross-query state is
/// the serving aggregate (`serving_stats()`, `queries_run()`), folded
/// under a mutex after each query completes. Concurrent queries share the
/// session's worker pool; ThreadPool's per-call chunk counts keep each
/// query's parallel loops independent, so a query's result is byte-identical to
/// the same query run with the session serialized -- concurrency changes
/// wall-clock interleaving, never output. Moving a MiningSession while
/// queries are in flight is undefined behavior (move it only before
/// serving starts).
///
/// Stage I artifacts round-trip to disk (`SaveStage1` / `LoadStage1`,
/// spider/spider_store_mmap.h): the CLI `stage1` subcommand precomputes the spider
/// set offline, `query` answers repeated top-K requests against the saved
/// artifact without re-mining, and `serve` keeps one session resident,
/// answering newline-delimited JSON queries concurrently (tools/serve_loop.h).

namespace spidermine {

/// A top-K query: alias of the query-scoped config slice (config.h).
using TopKQuery = QueryConfig;

/// How a session obtained its Stage I spider set.
enum class Stage1LoadMode {
  /// Mined from the graph at construction (Create).
  kMined,
  /// Borrowed zero-copy from an mmap'd `.sm2` artifact.
  kMapped,
};

/// Lower-case name for logs and the serve startup line.
const char* Stage1LoadModeName(Stage1LoadMode mode);

/// One returned pattern.
struct MinedPattern {
  Pattern pattern;
  /// Embeddings known for the pattern (capped; see QueryConfig).
  OccurrenceList embeddings;
  /// Support under the configured measure.
  int64_t support = 0;
  /// True when the pattern descends from a Stage II merge.
  bool from_merge = false;

  /// Paper's |P|: edge count.
  int32_t NumEdges() const { return pattern.NumEdges(); }
  int32_t NumVertices() const { return pattern.NumVertices(); }
};

/// Merges \p more into \p accumulated under the engine's own semantics:
/// exact-isomorphism dedup keeping the best-support variant, the size
/// ordering queries return (edge count, then vertices, then support), and
/// truncation to \p k (0 = no cap). The cross-query accumulation loop of
/// the paper's restart argument — run the randomized stages repeatedly,
/// keep the best of everything seen — packaged so callers don't re-derive
/// the ordering or dedup policy.
void AccumulateTopK(std::vector<MinedPattern>* accumulated,
                    std::vector<MinedPattern> more, int64_t k);

/// Output of one RunQuery call.
struct QueryResult {
  /// Top-K patterns, sorted by size (edge count) descending, ties broken by
  /// vertex count then support.
  std::vector<MinedPattern> patterns;
  /// Query-side counters only: the stage1_* fields and num_spiders stay 0,
  /// which is how callers (and tests) assert that serving a query re-mines
  /// nothing — Stage I work lives in MiningSession::stage1_stats().
  MineStats stats;
};

/// Aggregate serving counters of one session, folded (under the session's
/// mutex) from each successful query's per-query stats. A snapshot type:
/// `MiningSession::serving_stats()` returns a copy taken under the lock,
/// so readers never observe a half-folded query.
struct SessionServingStats {
  /// Successful RunQuery calls (failed validations count nothing).
  int64_t queries_run = 0;
  /// Sum of patterns returned across those queries.
  int64_t patterns_returned = 0;
  /// Queries whose time budget expired (MineStats::timed_out).
  int64_t timed_out_queries = 0;
  /// Slowest single query so far, in seconds.
  double max_query_seconds = 0.0;
  /// Every query's stats summed. Its total_seconds is the served compute,
  /// which under concurrent serving exceeds the elapsed wall time.
  MineStats query_totals;
  /// Queries served under the homomorphism support measure.
  int64_t homomorphism_queries = 0;
  /// Queries that ran the sampling-based transaction mode (txn_sample > 0).
  int64_t txn_sampled_queries = 0;
  /// Result-cache counters, set by the serve layer: the cache lives beside
  /// the session, so the session's own aggregate leaves them at 0. A cache
  /// hit bypasses RunQuery and does NOT count in queries_run.
  ResultCacheStats cache;

  /// One-line human-readable rendering (serve loop reports, tools).
  std::string ToString() const;
};

/// A graph-scoped mining session: Stage I mined (or loaded) once at
/// construction, Stages II+III executed per query. Thread-safe for
/// serving: `RunQuery` is const and may be called concurrently from any
/// number of threads (each query fans out internally over the shared
/// worker pool; see the thread-safety contract in the file comment).
class MiningSession {
 public:
  /// Mines Stage I of \p graph (borrowed; must outlive the session) under
  /// \p config and builds the anchor index. Fails on invalid configuration;
  /// an expired stage1_time_budget_seconds yields a truncated but usable
  /// spider set (stage1_stats().timed_out).
  static Result<MiningSession> Create(const LabeledGraph* graph,
                                      SessionConfig config);

  /// Writes the session's Stage I artifact (spider store + CSR index +
  /// mining parameters) to \p path in the zero-copy `.sm2` format
  /// (spider/spider_store_mmap.h). Overwrites. Fails with kIoError on
  /// big-endian hosts, which cannot write `.sm2`.
  Status SaveStage1(const std::string& path) const;

  /// Rebuilds a session from a SaveStage1 artifact. The `.sm2` file is
  /// mmap'd and served zero-copy (the session borrows spans over the
  /// mapping; bulk sections CRC-validate lazily on the first query). The
  /// artifact's mining parameters (support floor, leaf/spider caps)
  /// override the corresponding fields of \p config —
  /// they describe the stored set — while the parallelism knobs of
  /// \p config are honored. Fails with kIoError on corrupt/truncated files
  /// and kInvalidArgument when the artifact was mined over a different
  /// graph.
  static Result<MiningSession> LoadStage1(const LabeledGraph* graph,
                                          SessionConfig config,
                                          const std::string& path);

  /// Runs Stages II+III against the cached spider set. Validation errors
  /// (kInvalidArgument: bad k/dmax/epsilon, min_support below the mined
  /// floor, transaction measure without a transaction map) return early
  /// without touching any session state; the session remains fully usable.
  /// Identical queries return byte-identical results, on this session or
  /// any other session with the same graph + SessionConfig, at any thread
  /// count — and regardless of what other queries run concurrently: the
  /// method is const, reads only the immutable Stage I artifacts, and
  /// folds its counters into the serving aggregate under a mutex.
  Result<QueryResult> RunQuery(const TopKQuery& query) const;

  /// The cached Stage I spider set.
  const SpiderStore& store() const { return *store_; }
  /// The anchor index over the store.
  const SpiderIndex& index() const { return *index_; }
  /// Stage I counters/timings, populated exactly once at construction.
  const MineStats& stage1_stats() const { return stage1_stats_; }
  /// True when a Stage I budget or spider cap truncated the mined set.
  bool stage1_truncated() const { return stage1_truncated_; }
  /// How the Stage I spider set was obtained (mined / mapped).
  Stage1LoadMode stage1_load_mode() const { return load_mode_; }
  /// Wall seconds spent loading + adopting the Stage I artifact (0 when
  /// the session mined its own spider set).
  double stage1_load_seconds() const { return stage1_load_seconds_; }
  /// The session's graph-scoped configuration.
  const SessionConfig& config() const { return config_; }
  /// Queries served so far (successful RunQuery calls). Thread-safe; under
  /// concurrent serving the value is a point-in-time snapshot.
  int64_t queries_run() const;
  /// Snapshot of the aggregate serving counters (thread-safe copy).
  SessionServingStats serving_stats() const;
  /// The borrowed input network.
  const LabeledGraph& graph() const { return *graph_; }
  /// Stable identity of the cached Stage I artifact: a hash over the
  /// graph's content hash, every config field that determines the mined
  /// spider set (support floor, leaf/spider caps), the store size
  /// and the truncation flag. Two sessions answer queries identically iff
  /// their keys match, which makes this the artifact half of a result-cache
  /// key (result_cache.h); parallelism knobs deliberately do not
  /// participate. Computed from immutable state — thread-safe.
  uint64_t stage1_content_key() const;

 private:
  /// The cross-query mutable state, mutex-guarded and heap-held so the
  /// session stays movable (std::mutex is not). Everything else a query
  /// touches is either immutable after construction or query-local.
  struct ServingAggregate {
    mutable std::mutex mu;
    SessionServingStats stats;
  };

  MiningSession() : serving_(std::make_unique<ServingAggregate>()) {}

  /// The set-up Create and LoadStage1 share: binds \p graph and \p config,
  /// builds the session-owned pool when the config brings none, lets
  /// \p load_stage1 fill store_, index_ and the path's own fields, then
  /// fills the Stage I stats every session reports, timed by \p timer.
  static Result<MiningSession> Build(
      const LabeledGraph* graph, const SessionConfig& config,
      const WallTimer& timer,
      const std::function<Status(MiningSession*)>& load_stage1);

  /// Folds one finished query into the serving aggregate.
  void FoldQueryIntoAggregate(const QueryResult& result) const;

  /// Computes num_txns_ and txn_digest_ from the configured transaction
  /// sources (called once per construction path; both stay 0 without one).
  void InitTxnState();

  const LabeledGraph* graph_ = nullptr;
  SessionConfig config_;
  /// Owned worker pool when config_.pool is null (unique_ptr: the session
  /// stays movable while GrowthEngine borrows a stable address).
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_ = nullptr;
  /// Keeps the `.sm2` mapping (and thus every borrowed span in store_ /
  /// index_) alive for the session's lifetime; null outside mapped mode.
  std::unique_ptr<MappedStage1> mapped_;
  /// unique_ptr so the SpiderIndex's back-pointer survives session moves.
  /// In mapped mode this is a shallow borrowed-span copy of
  /// mapped_->store() — the columns live in the mapping.
  std::unique_ptr<SpiderStore> store_;
  std::unique_ptr<SpiderIndex> index_;
  MineStats stage1_stats_;
  /// Transaction universe size (txn_map->num_transactions, or max id + 1
  /// of txn_of_vertex; 0 without a transaction source) — the N that
  /// txn_sample draws from. Computed once at construction.
  int64_t num_txns_ = 0;
  /// FNV digest of the transaction source content, folded into
  /// stage1_content_key so sessions differing only in their transaction
  /// payloads never share result-cache lines. 0 without a source.
  uint64_t txn_digest_ = 0;
  bool stage1_truncated_ = false;
  Stage1LoadMode load_mode_ = Stage1LoadMode::kMined;
  double stage1_load_seconds_ = 0.0;
  std::unique_ptr<ServingAggregate> serving_;
};

/// One-shot SpiderMine (paper Algorithm 1): mines Stage I of \p graph
/// (borrowed for the call) under \p config, answers \p query, and drops
/// the session. `query.time_budget_seconds`, when set, bounds the whole
/// run: it replaces config's Stage I budget, and the query gets whatever
/// Stage I left, at least 1e-9 s. The query is
/// validated before Stage I starts. Patterns equal `Create` + `RunQuery`
/// with the same parameters; the stats also carry the Stage I counters,
/// and total_seconds spans both stages. Anything that mines a graph more
/// than once should hold a MiningSession instead.
Result<QueryResult> MineOnce(const LabeledGraph* graph, SessionConfig config,
                             TopKQuery query);

}  // namespace spidermine
