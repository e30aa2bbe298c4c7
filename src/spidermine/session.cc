#include "spidermine/session.h"

#include <algorithm>
#include <utility>

#include "common/fnv1a.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/timer.h"
#include "pattern/iso_index.h"
#include "pattern/vf2.h"
#include "spider/spider_store_mmap.h"
#include "spider/star_miner.h"
#include "spidermine/closure.h"
#include "spidermine/growth.h"
#include "spidermine/seed_count.h"

namespace spidermine {

namespace {

/// Size-ordering used for the paper's "list sorted by size": edge count
/// first (the paper's |P|), then vertex count, then support.
bool LargerPattern(const MinedPattern& a, const MinedPattern& b) {
  if (a.NumEdges() != b.NumEdges()) return a.NumEdges() > b.NumEdges();
  if (a.NumVertices() != b.NumVertices()) {
    return a.NumVertices() > b.NumVertices();
  }
  return a.support > b.support;
}

/// Keeps the best-support member of each isomorphism class offered to it,
/// classes in first-offered order: the one dedup rule of the query's result
/// collector, its post-closure re-dedup and AccumulateTopK. A later member
/// takes over only with strictly higher support, and then replaces the
/// pattern, support and embeddings together (embeddings are only
/// meaningful in their own pattern's vertex numbering); from_merge is ORed
/// either way. A member that loses is not copied.
class BestPerClass {
 public:
  /// Lookups count into \p checks. \p cap > 0 bounds the set: past
  /// cap + kCompactionSlack classes, only the cap largest (LargerPattern)
  /// are kept.
  explicit BestPerClass(IsoChecks* checks, int64_t cap = 0)
      : checks_(checks), cap_(cap) {}

  void Offer(const GrowthPattern& gp) {
    if (MinedPattern* slot =
            Place(gp.pattern, gp.iso_hash, gp.support, gp.merged_ever)) {
      slot->pattern = gp.pattern;
      slot->embeddings = gp.embeddings;
      slot->support = gp.support;
    }
    if (cap_ > 0 && static_cast<int64_t>(size()) > cap_ + kCompactionSlack) {
      std::sort(kept_.begin(), kept_.end(), LargerPattern);
      kept_.resize(static_cast<size_t>(cap_));
      index_ = IsoIndex();
      for (size_t i = 0; i < kept_.size(); ++i) {
        index_.Add(kept_[i].key, static_cast<int64_t>(i));
      }
    }
  }

  void Offer(MinedPattern mp) {
    if (MinedPattern* slot = Place(mp.pattern, 0, mp.support, mp.from_merge)) {
      mp.from_merge = slot->from_merge;
      *slot = std::move(mp);
    }
  }

  size_t size() const { return kept_.size(); }

  /// The kept members, in class order.
  std::vector<MinedPattern> Take() {
    std::vector<MinedPattern> out;
    for (Kept& k : kept_) out.push_back(std::move(k));
    return out;
  }

 private:
  static constexpr int64_t kCompactionSlack = 1024;

  struct Kept : MinedPattern {
    uint64_t key = 0;  // IsoIndex::Key(pattern), kept for compaction
  };

  /// Where the candidate goes: its class's member when it wins, a fresh
  /// class (carrying only from_merge) when it is new, nullptr when it
  /// loses. The candidate's from_merge is ORed into its class either way.
  MinedPattern* Place(const Pattern& pattern, uint64_t key, int64_t support,
                      bool from_merge) {
    if (key == 0) key = IsoIndex::Key(pattern);
    const int64_t hit = index_.Find(key, pattern, /*first_idx=*/0, kept_,
                                    /*map=*/nullptr, checks_);
    if (hit < 0) {
      index_.Add(key, static_cast<int64_t>(size()));
      Kept& fresh = kept_.emplace_back();
      fresh.key = key;
      fresh.from_merge = from_merge;
      return &fresh;
    }
    MinedPattern& incumbent = kept_[static_cast<size_t>(hit)];
    incumbent.from_merge |= from_merge;
    return support > incumbent.support ? &incumbent : nullptr;
  }

  IsoChecks* checks_;
  int64_t cap_;
  std::vector<Kept> kept_;
  IsoIndex index_;
};

/// Stride between per-run RNG substream seeds. Runs must not share a
/// stream: with a shared stream the amount of randomness run r consumes
/// would depend on earlier runs' control flow, while independent substreams
/// keep every run's draws fixed regardless of scheduling or truncation.
constexpr uint64_t kRunSeedStride = 0x9e3779b97f4a7c15ULL;  // 2^64 / phi

/// Salts the per-run substream used for the transaction-sample draw so it
/// never collides with the run's seed-spider draw (same run, same base
/// seed, independent stream).
constexpr uint64_t kTxnSampleSalt = 0x94d049bb133111ebULL;

/// The restart run's sorted transaction whitelist, drawn from the run's
/// salted substream. Empty = no sampling (txn_sample off, or the requested
/// size covers the whole universe).
std::vector<int32_t> DrawTxnSample(const QueryConfig& q, int32_t run,
                                   int64_t num_txns) {
  if (q.txn_sample <= 0 || q.txn_sample >= num_txns) return {};
  Rng rng(q.rng_seed ^ (kRunSeedStride * static_cast<uint64_t>(run)) ^
          kTxnSampleSalt);
  std::vector<size_t> picks = rng.SampleWithoutReplacement(
      static_cast<size_t>(num_txns), static_cast<size_t>(q.txn_sample));
  std::vector<int32_t> sample;
  sample.reserve(picks.size());
  for (size_t pick : picks) sample.push_back(static_cast<int32_t>(pick));
  std::sort(sample.begin(), sample.end());
  return sample;
}

/// The query checks that need the session's config: field ranges, the
/// mined support floor, and a transaction source for kTransaction. Shared
/// by RunQuery and MineOnce (which runs them before Stage I).
Status ValidateQueryForSession(const TopKQuery& query,
                               const SessionConfig& config) {
  SM_RETURN_NOT_OK(query.Validate());
  if (query.min_support != 0 && query.min_support < config.min_support) {
    return Status::InvalidArgument(
        StrCat("query min_support ", query.min_support,
               " is below the session's mined floor ", config.min_support,
               "; spiders below the floor were never mined"));
  }
  if (query.support_measure == SupportMeasureKind::kTransaction &&
      config.txn_of_vertex == nullptr && config.txn_map == nullptr) {
    return Status::InvalidArgument(
        "transaction support requires txn_of_vertex or txn_map");
  }
  return Status::Ok();
}

}  // namespace

const char* Stage1LoadModeName(Stage1LoadMode mode) {
  switch (mode) {
    case Stage1LoadMode::kMined:
      return "mined";
    case Stage1LoadMode::kMapped:
      return "mapped";
  }
  return "unknown";
}

void AccumulateTopK(std::vector<MinedPattern>* accumulated,
                    std::vector<MinedPattern> more, int64_t k) {
  IsoChecks uncounted;
  BestPerClass best(&uncounted);
  for (MinedPattern& mp : *accumulated) best.Offer(std::move(mp));
  for (MinedPattern& mp : more) best.Offer(std::move(mp));
  *accumulated = best.Take();
  std::sort(accumulated->begin(), accumulated->end(), LargerPattern);
  if (k > 0 && static_cast<int64_t>(accumulated->size()) > k) {
    accumulated->resize(static_cast<size_t>(k));
  }
}

Result<MiningSession> MiningSession::Build(
    const LabeledGraph* graph, const SessionConfig& config,
    const WallTimer& timer,
    const std::function<Status(MiningSession*)>& load_stage1) {
  MiningSession session;
  session.graph_ = graph;
  session.config_ = config;
  session.InitTxnState();
  session.pool_ = config.pool;
  if (session.pool_ == nullptr) {
    session.owned_pool_ = std::make_unique<ThreadPool>(
        config.num_threads > 0 ? config.num_threads
                               : ThreadPool::DefaultThreads());
    session.pool_ = session.owned_pool_.get();
  }
  SM_RETURN_NOT_OK(load_stage1(&session));
  MineStats& stats = session.stage1_stats_;
  const SpiderStore& store = *session.store_;
  stats.num_spiders = store.size();
  stats.stage1_store_bytes = store.HeapBytes();
  for (int32_t id = 0; id < static_cast<int32_t>(store.size()); ++id) {
    if (store.closed(id)) ++stats.num_closed_spiders;
  }
  stats.stage1_seconds = timer.ElapsedSeconds();
  stats.total_seconds = stats.stage1_seconds;
  return session;
}

Result<MiningSession> MiningSession::Create(const LabeledGraph* graph,
                                            SessionConfig config) {
  SM_RETURN_NOT_OK(config.Validate());
  // ---------------- Stage I: mine all spiders, exactly once. -------------
  WallTimer stage_timer;
  auto mine = [](MiningSession* session) -> Status {
    const SessionConfig& config = session->config_;
    Deadline deadline(config.stage1_time_budget_seconds);
    CancellationToken cancel(&deadline);
    StarMinerConfig star_config;
    star_config.min_support = config.min_support;
    star_config.max_leaves = config.max_star_leaves;
    star_config.max_spiders = config.max_spiders;
    star_config.shard_grain = config.stage1_shard_grain;
    SM_ASSIGN_OR_RETURN(StarMineResult stars,
                        MineStarSpiders(*session->graph_, star_config,
                                        *session->pool_, &cancel));
    session->store_ = std::make_unique<SpiderStore>(std::move(stars.store));
    session->stage1_truncated_ = stars.truncated;
    session->index_ = std::make_unique<SpiderIndex>(
        session->store_.get(), session->graph_->NumVertices());
    MineStats& stats = session->stage1_stats_;
    stats.stage1_steps = stars.extension_attempts;
    stats.stage1_scan_shards = stars.num_scan_shards;
    stats.stage1_enum_shards = stars.num_enum_shards;
    stats.timed_out =
        config.stage1_time_budget_seconds > 0 && cancel.IsCancelled();
    return Status::Ok();
  };
  return Build(graph, config, stage_timer, mine);
}

Status MiningSession::SaveStage1(const std::string& path) const {
  Stage1Meta meta;
  meta.min_support = config_.min_support;
  meta.max_star_leaves = config_.max_star_leaves;
  meta.max_spiders = config_.max_spiders;
  meta.num_graph_vertices = graph_->NumVertices();
  meta.graph_hash = graph_->ContentHash();
  meta.truncated = stage1_truncated_;
  // Re-saving a mapped artifact must not launder tampered bytes into a
  // fresh file with valid checksums.
  if (mapped_ != nullptr) SM_RETURN_NOT_OK(mapped_->EnsureValidated());
  return SaveStage1Sm2(*store_, *index_, meta, path);
}

namespace {

/// Binds an artifact to the serving graph and folds its mining parameters
/// into the session config. The message substrings ("-vertex graph",
/// "hash mismatch") are load-bearing — callers and tests match on them.
Status BindArtifactToGraph(const Stage1Meta& meta, const LabeledGraph& graph,
                           SessionConfig* config) {
  if (meta.num_graph_vertices != graph.NumVertices()) {
    return Status::InvalidArgument(
        StrCat("stage1 artifact was mined over a ", meta.num_graph_vertices,
               "-vertex graph; the provided graph has ",
               graph.NumVertices(), " vertices"));
  }
  // Same size is not same graph: anchors and labels are meaningless on a
  // different network, so the artifact is bound to the mined graph's
  // content hash (every writer records it; no unhashed artifacts exist).
  if (meta.graph_hash != graph.ContentHash()) {
    return Status::InvalidArgument(
        StrCat("stage1 artifact was mined over a different graph (content "
               "hash mismatch: artifact ", meta.graph_hash,
               ", provided graph ", graph.ContentHash(), ")"));
  }
  // The artifact's mining parameters describe the stored set and override
  // whatever the caller guessed; parallelism knobs stay the caller's.
  config->min_support = meta.min_support;
  config->max_star_leaves = meta.max_star_leaves;
  config->max_spiders = meta.max_spiders;
  return Status::Ok();
}

}  // namespace

Result<MiningSession> MiningSession::LoadStage1(const LabeledGraph* graph,
                                                SessionConfig config,
                                                const std::string& path) {
  WallTimer load_timer;
  // Zero-copy: mmap the artifact and borrow its columns.
  SM_ASSIGN_OR_RETURN(std::unique_ptr<MappedStage1> mapped,
                      MappedStage1::Open(path));
  const Stage1Meta& meta = mapped->meta();
  SM_RETURN_NOT_OK(BindArtifactToGraph(meta, *graph, &config));
  SM_RETURN_NOT_OK(config.Validate());
  auto adopt = [&mapped](MiningSession* session) {
    session->load_mode_ = Stage1LoadMode::kMapped;
    session->mapped_ = std::move(mapped);
    session->stage1_truncated_ = session->mapped_->meta().truncated;
    // Shallow borrowed-span copies: the columns and the CSR index arrays
    // stay in the mapping. Open's structural checks plus the lazy section
    // CRCs (run before the first query touches the data) stand in for an
    // O(total anchors) adoption scan.
    session->store_ = std::make_unique<SpiderStore>(session->mapped_->store());
    session->index_ = std::make_unique<SpiderIndex>(
        session->store_.get(), session->mapped_->index().offsets(),
        session->mapped_->index().ids());
    return Status::Ok();
  };
  SM_ASSIGN_OR_RETURN(MiningSession session,
                      Build(graph, config, load_timer, adopt));
  session.stage1_load_seconds_ = session.stage1_stats_.stage1_seconds;
  return session;
}

void MiningSession::InitTxnState() {
  Fnv1a h;
  if (config_.txn_of_vertex != nullptr) {
    h.MixU64Bytes(1);  // source tag
    h.MixU64Bytes(static_cast<uint64_t>(config_.txn_of_vertex->size()));
    for (int32_t t : *config_.txn_of_vertex) {
      h.MixU64Bytes(static_cast<uint64_t>(static_cast<uint32_t>(t)));
      num_txns_ = std::max<int64_t>(num_txns_, static_cast<int64_t>(t) + 1);
    }
  }
  if (config_.txn_map != nullptr) {
    h.MixU64Bytes(2);  // source tag
    h.MixU64Bytes(static_cast<uint64_t>(config_.txn_map->num_transactions));
    for (int64_t o : config_.txn_map->offsets) {
      h.MixU64Bytes(static_cast<uint64_t>(o));
    }
    for (int32_t t : config_.txn_map->txn_ids) {
      h.MixU64Bytes(static_cast<uint64_t>(static_cast<uint32_t>(t)));
    }
    // The map takes precedence for support, so its universe wins too.
    num_txns_ = config_.txn_map->num_transactions;
  }
  const bool has_source =
      config_.txn_of_vertex != nullptr || config_.txn_map != nullptr;
  txn_digest_ = has_source ? h.hash() : 0;
}

uint64_t MiningSession::stage1_content_key() const {
  // FNV-1a over the facts that determine the spider set. Store size and
  // the truncation flag participate so a budget-truncated mine of the same
  // graph+config never aliases a complete one.
  Fnv1a h;
  h.MixU64Bytes(graph_->ContentHash());
  h.MixU64Bytes(static_cast<uint64_t>(config_.min_support));
  h.MixU64Bytes(1);  // the spider radius every store is mined at
  h.MixU64Bytes(static_cast<uint64_t>(config_.max_star_leaves));
  h.MixU64Bytes(static_cast<uint64_t>(config_.max_spiders));
  h.MixU64Bytes(static_cast<uint64_t>(store_->size()));
  h.MixU64Bytes(stage1_truncated_ ? 1 : 0);
  // Transaction payloads change kTransaction answers without changing the
  // spider set; folding their digest keeps cache lines separated.
  h.MixU64Bytes(txn_digest_);
  return h.hash();
}

int64_t MiningSession::queries_run() const {
  std::lock_guard<std::mutex> lock(serving_->mu);
  return serving_->stats.queries_run;
}

SessionServingStats MiningSession::serving_stats() const {
  std::lock_guard<std::mutex> lock(serving_->mu);
  return serving_->stats;
}

void MiningSession::FoldQueryIntoAggregate(const QueryResult& result) const {
  std::lock_guard<std::mutex> lock(serving_->mu);
  SessionServingStats& agg = serving_->stats;
  ++agg.queries_run;
  agg.patterns_returned += static_cast<int64_t>(result.patterns.size());
  if (result.stats.timed_out) ++agg.timed_out_queries;
  agg.max_query_seconds =
      std::max(agg.max_query_seconds, result.stats.total_seconds);
  agg.query_totals.Add(result.stats);
  if (result.stats.support_measure == SupportMeasureKind::kHomomorphism) {
    ++agg.homomorphism_queries;
  }
  if (result.stats.txn_sample_size > 0) ++agg.txn_sampled_queries;
}

Result<QueryResult> MiningSession::RunQuery(const TopKQuery& query) const {
  SM_RETURN_NOT_OK(ValidateQueryForSession(query, config_));
  const QueryConfig q =
      query.Resolve(config_.min_support, graph_->NumVertices());
  // First touch of a mapped artifact's bulk sections: CRC + content range
  // checks run exactly once (thread-safe), so a tampered or bit-rotted
  // `.sm2` fails the query instead of feeding the growth engine garbage.
  if (mapped_ != nullptr) SM_RETURN_NOT_OK(mapped_->EnsureValidated());

  QueryResult result;
  MineStats& stats = result.stats;
  stats.support_measure = q.support_measure;
  stats.txn_sample_size = q.txn_sample;
  WallTimer total_timer;
  Deadline deadline(q.time_budget_seconds);
  CancellationToken cancel(&deadline);
  const SpiderStore& store = *store_;

  if (store.empty()) {
    stats.total_seconds = total_timer.ElapsedSeconds();
    FoldQueryIntoAggregate(result);
    return result;  // nothing frequent at all
  }

  // ------ Stages II + III, repeated `restarts` times over the session's
  // one-time Stage I spider set (paper Sec. 4.2.1: re-running the
  // randomized stages boosts the success probability; results accumulate
  // within the query). ------
  int64_t m = q.seed_count_override;
  if (m <= 0) {
    Result<int64_t> computed =
        ComputeSeedCount(graph_->NumVertices(), q.vmin, q.k, q.epsilon);
    // An unreachable epsilon falls back to drawing every spider.
    m = computed.ok() ? *computed : store.size();
  }
  stats.seed_count_m = m;

  GrowthEngine engine(graph_, index_.get(), &config_, &q, &stats, *pool_,
                      cancel);
  BestPerClass collector(&stats.iso, kMaxResults);
  // Sampling-based transaction mode: each restart run draws its own sorted
  // whitelist from the run's salted substream (empty = count everything).
  // The vector outlives every engine call of its run; the closure recount
  // below is pinned to run 0's sample so a multi-restart query still
  // recounts deterministically.
  std::vector<int32_t> run_txn_sample;

  // restarts == 0 stops before Stage II.
  WallTimer stage_timer;
  for (int32_t run = 0; run < q.restarts; ++run) {
    if (cancel.IsCancelled()) {
      stats.timed_out = true;
      break;
    }
    // ---------------- Stage II: identify large patterns. ----------------
    stage_timer.Restart();
    // RandomSeed: draw M spiders uniformly without replacement. Each run
    // draws from its own substream (rng_seed xor run * stride), so the
    // draws of run r never depend on how much randomness earlier runs
    // consumed -- a prerequisite for deterministic parallel execution.
    Rng run_rng(q.rng_seed ^ (kRunSeedStride * static_cast<uint64_t>(run)));
    run_txn_sample = DrawTxnSample(q, run, num_txns_);
    engine.SetTxnSample(run_txn_sample.empty() ? nullptr : &run_txn_sample);
    std::vector<GrowthPattern> working;
    {
      size_t draw = std::min<size_t>(static_cast<size_t>(m),
                                     static_cast<size_t>(store.size()));
      std::vector<size_t> picks = run_rng.SampleWithoutReplacement(
          static_cast<size_t>(store.size()), draw);
      std::vector<int32_t> pick_ids;
      pick_ids.reserve(picks.size());
      for (size_t pick : picks) {
        pick_ids.push_back(static_cast<int32_t>(pick));
      }
      // Seed construction (per-anchor embedding enumeration) fans out over
      // the pool; ids and stats are assigned in pick order.
      std::vector<GrowthPattern> seeds = engine.SeedPatterns(pick_ids);
      for (GrowthPattern& seed : seeds) {
        if (seed.embeddings.empty()) continue;
        working.push_back(std::move(seed));
      }
    }

    MergeRegistry previous;
    // Each round grows a pattern by one radius-1 spider on every side.
    const int32_t iterations = std::max(1, q.dmax / 2);
    for (int32_t iter = 0; iter < iterations; ++iter) {
      if (cancel.IsCancelled()) {
        stats.timed_out = true;
        break;
      }
      GrowRoundResult round = engine.GrowRound(std::move(working), previous);
      working = std::move(round.patterns);
      ++stats.stage2_iterations;
    }

    // Prune unmerged patterns (Algorithm 1 line 10). If no merge happened
    // at all (possible when caps or the time budget truncated Stage II),
    // keep the largest unmerged survivors instead of returning nothing --
    // an engineering fallback outside the paper's algorithm, reported via
    // pruned_unmerged staying 0.
    const bool any_merged =
        std::any_of(working.begin(), working.end(),
                    [](const GrowthPattern& gp) { return gp.merged_ever; });
    if (any_merged) {
      const size_t before = working.size();
      std::erase_if(working,
                    [](const GrowthPattern& gp) { return !gp.merged_ever; });
      stats.pruned_unmerged += static_cast<int64_t>(before - working.size());
    } else if (static_cast<int64_t>(working.size()) > 4 * q.k) {
      std::sort(working.begin(), working.end(),
                [](const GrowthPattern& a, const GrowthPattern& b) {
                  return a.pattern.NumEdges() > b.pattern.NumEdges();
                });
      working.resize(static_cast<size_t>(4 * q.k));
    }
    stats.stage2_seconds += stage_timer.ElapsedSeconds();

    // ---------------- Stage III: recover full patterns. ----------------
    stage_timer.Restart();
    for (const GrowthPattern& gp : working) collector.Offer(gp);

    for (int32_t round = 0; round < q.stage3_max_rounds; ++round) {
      if (working.empty()) break;
      if (cancel.IsCancelled()) {
        stats.timed_out = true;
        break;
      }
      GrowRoundResult grown = engine.GrowRound(std::move(working), previous);
      ++stats.stage3_rounds;
      working.clear();
      for (GrowthPattern& gp : grown.patterns) {
        collector.Offer(gp);
        if (!gp.exhausted) working.push_back(std::move(gp));
      }
      if (!grown.any_growth) break;
    }
    for (const GrowthPattern& gp : working) collector.Offer(gp);
    stats.stage3_seconds += stage_timer.ElapsedSeconds();
  }

  std::vector<MinedPattern> all = collector.Take();
  std::sort(all.begin(), all.end(), LargerPattern);

  // Internal-edge closure (closure.h): restore frequent cycle-closing edges
  // the star-based growth could not add, then re-deduplicate (closure can
  // make previously distinct patterns isomorphic). Homomorphism queries
  // enter this block even with closure off: their growth-time supports are
  // anti-monotone bounds over the injective occurrence list, and the final
  // answer recounts over the complete HOMOMORPHIC E[P].
  const bool homomorphic =
      q.support_measure == SupportMeasureKind::kHomomorphism;
  // Multi-restart transaction sampling recounts under run 0's whitelist (a
  // fixed, scheduling-independent choice).
  const std::vector<int32_t> closure_txn_sample =
      DrawTxnSample(q, /*run=*/0, num_txns_);
  if (q.close_internal_edges || homomorphic) {
    const size_t limit =
        std::min(all.size(), static_cast<size_t>(q.ClosureWindow()));
    // Per-pattern closure is independent: fan out over the pool, each
    // iteration touching only all[i] and its own counter slot.
    std::vector<MineStats> slots(limit);
    pool_->ParallelForChunks(
        static_cast<int64_t>(limit), /*grain=*/1,
        [this, &q, &all, &slots, homomorphic,
         &closure_txn_sample](int64_t begin, int64_t end) {
          SupportContext support_context;
          support_context.txn_of_vertex = config_.txn_of_vertex;
          support_context.txn_map = config_.txn_map;
          support_context.txn_sample =
              closure_txn_sample.empty() ? nullptr : &closure_txn_sample;
          for (int64_t i = begin; i < end; ++i) {
            MinedPattern& mp = all[static_cast<size_t>(i)];
            MineStats& slot = slots[static_cast<size_t>(i)];
            // Growth tracks only the embeddings reachable along its own
            // path (an occurrence list), which under-counts the surviving
            // support of a candidate closure edge, so closure enumerates
            // the full E[P], homomorphic under kHomomorphism. The search
            // starts at the anchors of the stored star around the matching
            // order's first vertex, or scans that vertex's label when the
            // star is not stored; both yield the same list in the same
            // order.
            Vf2Options vf2_options;
            vf2_options.max_embeddings = q.max_embeddings_per_pattern;
            vf2_options.homomorphic = homomorphic;
            vf2_options.start_roots = [this, &mp, &slot,
                                       homomorphic](VertexId v) {
              auto roots = StarRoots(*store_, mp.pattern, v, homomorphic);
              ++(roots ? slot.closure_rooted : slot.closure_scanned);
              return roots;
            };
            OccurrenceList full =
                FindEmbeddings(mp.pattern, *graph_, vf2_options);
            if (!full.empty()) {
              full.SortRows();
              // Homomorphic embeddings with one image SET can be genuinely
              // different maps (different per-column images feeding the
              // minimum-image count), so the automorphism dedup only
              // applies to injective lists.
              if (!homomorphic) DedupEmbeddingsByImage(&full);
              mp.embeddings = std::move(full);
              mp.support = ComputeSupport(q.support_measure, mp.pattern,
                                          mp.embeddings, support_context);
            }
            if (q.close_internal_edges) {
              slot.closure_edges_added = CloseInternalEdges(
                  *graph_, &mp.pattern, &mp.embeddings, q.support_measure,
                  q.min_support, &mp.support, support_context);
            }
          }
        },
        &cancel);
    for (const MineStats& slot : slots) stats.Add(slot);
    if (stats.closure_edges_added > 0) {
      std::sort(all.begin(), all.end(), LargerPattern);
      BestPerClass deduped(&stats.iso);
      for (MinedPattern& mp : all) {
        deduped.Offer(std::move(mp));
        // Dedup cost is bounded: only the top window can reach the final K.
        if (static_cast<int64_t>(deduped.size()) > 4 * q.k + 16) break;
      }
      all = deduped.Take();
    }
  }

  // An elevated query threshold (> the session floor) is enforced on the
  // final list as well: seeds drawn from the cached floor-level store (and
  // closure's full-embedding recounts) can carry support in [floor, sigma)
  // that growth — which only checks extensions — never re-tests. Gated so
  // floor-level queries keep closure-demoted patterns, as one-shot
  // mining always has.
  if (q.min_support > config_.min_support) {
    std::erase_if(all, [&q](const MinedPattern& mp) {
      return mp.support < q.min_support;
    });
  }

  if (q.enforce_dmax_on_results) {
    std::erase_if(all, [&q](const MinedPattern& mp) {
      return mp.pattern.Diameter() > q.dmax;
    });
  }
  if (static_cast<int64_t>(all.size()) > q.k) {
    all.resize(static_cast<size_t>(q.k));
  }
  result.patterns = std::move(all);
  // The token may have tripped inside a stage (lineages, closure) without
  // any between-round check observing it.
  if (q.time_budget_seconds > 0 && cancel.IsCancelled()) {
    stats.timed_out = true;
  }
  stats.total_seconds = total_timer.ElapsedSeconds();
  FoldQueryIntoAggregate(result);
  return result;
}

Result<QueryResult> MineOnce(const LabeledGraph* graph, SessionConfig config,
                             TopKQuery query) {
  // Validate both halves before mining anything: an invalid query must fail
  // fast, not after a full Stage I pass.
  SM_RETURN_NOT_OK(config.Validate());
  SM_RETURN_NOT_OK(ValidateQueryForSession(query, config));

  WallTimer total_timer;
  const double budget = query.time_budget_seconds;
  if (budget > 0) config.stage1_time_budget_seconds = budget;
  SM_ASSIGN_OR_RETURN(MiningSession session,
                      MiningSession::Create(graph, config));
  const MineStats& stage1 = session.stage1_stats();
  // The query gets whatever Stage I left over (a hair above zero when
  // Stage I consumed it all, so the query's deadline trips immediately
  // instead of meaning "unlimited").
  if (budget > 0) {
    query.time_budget_seconds =
        std::max(budget - stage1.stage1_seconds, 1e-9);
  }
  SM_ASSIGN_OR_RETURN(QueryResult result, session.RunQuery(query));

  MineStats& stats = result.stats;
  stats.Add(stage1);  // the query's Stage I counters are 0
  stats.timed_out = stats.timed_out || stage1.timed_out;
  stats.total_seconds = total_timer.ElapsedSeconds();
  return result;
}

}  // namespace spidermine
