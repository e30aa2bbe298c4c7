#include "spidermine/session.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "occurrence_test_util.h"
#include "pattern/vf2.h"
#include "spider_test_util.h"

/// The MiningSession contract: Stage I runs exactly once per session, every
/// query against the cached store is byte-identical to the same query on a
/// fresh session (at any thread count), and a bad query returns an error
/// without invalidating the session.

namespace spidermine {
namespace {

LabeledGraph TestGraph(uint64_t seed) {
  Rng rng(seed);
  GraphBuilder builder = GenerateErdosRenyi(200, 2.0, 14, &rng);
  Pattern planted = RandomConnectedPattern(10, 0.15, 14, &rng);
  PatternInjector injector(&builder);
  EXPECT_TRUE(injector.Inject(planted, 3, &rng).ok());
  return std::move(builder.Build()).value();
}

SessionConfig BaseSessionConfig() {
  SessionConfig config;
  config.min_support = 3;
  return config;
}

TopKQuery BaseQuery(uint64_t rng_seed) {
  TopKQuery query;
  query.k = 8;
  query.dmax = 4;
  query.vmin = 8;
  query.rng_seed = rng_seed;
  query.seed_count_override = 10;
  return query;
}

TEST(SessionTest, NQueriesMatchNFreshSessionsAtOneAndEightThreads) {
  LabeledGraph g = TestGraph(11);
  const std::vector<uint64_t> seeds = {7, 8, 9, 1234};
  for (int32_t threads : {1, 8}) {
    SessionConfig session_config = BaseSessionConfig();
    session_config.num_threads = threads;
    Result<MiningSession> session =
        MiningSession::Create(&g, session_config);
    ASSERT_TRUE(session.ok()) << session.status();
    for (uint64_t seed : seeds) {
      Result<QueryResult> query_result =
          session->RunQuery(BaseQuery(seed));
      ASSERT_TRUE(query_result.ok()) << query_result.status();
      // MineOnce: a fresh session that answers this one query.
      Result<QueryResult> fresh =
          MineOnce(&g, session_config, BaseQuery(seed));
      ASSERT_TRUE(fresh.ok()) << fresh.status();
      EXPECT_FALSE(fresh->patterns.empty());
      EXPECT_EQ(PatternsTranscript(query_result->patterns),
                PatternsTranscript(fresh->patterns))
          << "session query diverged from a fresh session at seed="
          << seed << " threads=" << threads;
      EXPECT_EQ(query_result->stats.growth_steps, fresh->stats.growth_steps);
      EXPECT_EQ(query_result->stats.merges, fresh->stats.merges);
      // The one-shot result also carries the Stage I counters.
      EXPECT_EQ(fresh->stats.num_spiders,
                session->stage1_stats().num_spiders);
      EXPECT_EQ(fresh->stats.stage1_steps,
                session->stage1_stats().stage1_steps);
    }
    EXPECT_EQ(session->queries_run(),
              static_cast<int64_t>(seeds.size()));
  }
}

TEST(SessionTest, StageOneRunsExactlyOncePerSession) {
  LabeledGraph g = TestGraph(22);
  Result<MiningSession> session =
      MiningSession::Create(&g, BaseSessionConfig());
  ASSERT_TRUE(session.ok()) << session.status();
  // Stage I work happened at construction...
  EXPECT_GT(session->stage1_stats().num_spiders, 0);
  EXPECT_GT(session->stage1_stats().stage1_steps, 0);
  EXPECT_GT(session->stage1_stats().stage1_scan_shards, 0);
  const int64_t spiders = session->store().size();
  // ...and never again: every query's stats carry zero Stage I counters
  // and the cached store is untouched.
  for (uint64_t seed : {1, 2, 3}) {
    Result<QueryResult> result = session->RunQuery(BaseQuery(seed));
    ASSERT_TRUE(result.ok()) << result.status();
    EXPECT_EQ(result->stats.stage1_steps, 0);
    EXPECT_EQ(result->stats.num_spiders, 0);
    EXPECT_EQ(result->stats.stage1_scan_shards, 0);
    EXPECT_GT(result->stats.growth_steps, 0);
    EXPECT_EQ(session->store().size(), spiders);
  }
}

TEST(SessionTest, RepeatedIdenticalQueriesAreByteIdentical) {
  LabeledGraph g = TestGraph(33);
  Result<MiningSession> session =
      MiningSession::Create(&g, BaseSessionConfig());
  ASSERT_TRUE(session.ok()) << session.status();
  Result<QueryResult> first = session->RunQuery(BaseQuery(5));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->patterns.empty());
  for (int i = 0; i < 3; ++i) {
    Result<QueryResult> again = session->RunQuery(BaseQuery(5));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(PatternsTranscript(again->patterns),
              PatternsTranscript(first->patterns));
  }
}

TEST(SessionTest, QueriesVaryKnobsWithoutRemining) {
  // The serving scenario: one session, queries sweeping k / support /
  // restarts / dmax. All must succeed against the one cached store.
  LabeledGraph g = TestGraph(44);
  Result<MiningSession> session =
      MiningSession::Create(&g, BaseSessionConfig());
  ASSERT_TRUE(session.ok()) << session.status();

  TopKQuery query = BaseQuery(7);
  query.k = 2;
  Result<QueryResult> small_k = session->RunQuery(query);
  ASSERT_TRUE(small_k.ok());
  EXPECT_LE(small_k->patterns.size(), 2u);

  query = BaseQuery(7);
  query.min_support = 4;  // above the mined floor: allowed
  Result<QueryResult> high_support = session->RunQuery(query);
  ASSERT_TRUE(high_support.ok());
  for (const MinedPattern& p : high_support->patterns) {
    EXPECT_GE(p.support, 4);
  }

  query = BaseQuery(7);
  query.restarts = 3;
  Result<QueryResult> restarted = session->RunQuery(query);
  ASSERT_TRUE(restarted.ok());
  EXPECT_EQ(restarted->stats.stage2_iterations, 3 * 2);  // dmax/(2r) = 2

  query = BaseQuery(7);
  query.dmax = 6;
  EXPECT_TRUE(session->RunQuery(query).ok());
}

TEST(SessionTest, BadQueryNeverInvalidatesTheSession) {
  LabeledGraph g = TestGraph(55);
  Result<MiningSession> session =
      MiningSession::Create(&g, BaseSessionConfig());
  ASSERT_TRUE(session.ok()) << session.status();
  Result<QueryResult> reference = session->RunQuery(BaseQuery(5));
  ASSERT_TRUE(reference.ok());

  TopKQuery bad = BaseQuery(5);
  bad.k = 0;
  EXPECT_FALSE(session->RunQuery(bad).ok());
  bad = BaseQuery(5);
  bad.dmax = 0;
  EXPECT_FALSE(session->RunQuery(bad).ok());
  bad = BaseQuery(5);
  bad.epsilon = 2.0;
  EXPECT_FALSE(session->RunQuery(bad).ok());
  bad = BaseQuery(5);
  bad.min_support = 2;  // below the mined floor of 3
  Result<QueryResult> below_floor = session->RunQuery(bad);
  ASSERT_FALSE(below_floor.ok());
  EXPECT_EQ(below_floor.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(below_floor.status().message().find("floor"),
            std::string::npos);
  bad = BaseQuery(5);
  bad.support_measure = SupportMeasureKind::kTransaction;  // no txn map
  EXPECT_FALSE(session->RunQuery(bad).ok());

  // Failed queries counted nothing and changed nothing: the next good
  // query is byte-identical to the first.
  EXPECT_EQ(session->queries_run(), 1);
  Result<QueryResult> after = session->RunQuery(BaseQuery(5));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(PatternsTranscript(after->patterns),
            PatternsTranscript(reference->patterns));
}

TEST(SessionTest, EngineeringCapsBelowOneAreRejected) {
  // No engineering cap means "unlimited" at 0: a zero cap stops growth,
  // merging or Stage III outright. Validate rejects 0 and negatives, names
  // the field, and leaves the session answering valid queries.
  LabeledGraph g = TestGraph(55);
  Result<MiningSession> session =
      MiningSession::Create(&g, BaseSessionConfig());
  ASSERT_TRUE(session.ok()) << session.status();
  Result<QueryResult> reference = session->RunQuery(BaseQuery(5));
  ASSERT_TRUE(reference.ok());

  using Setter = void (*)(TopKQuery*, int32_t);
  const std::pair<const char*, Setter> caps[] = {
      {"max_embeddings_per_pattern",
       [](TopKQuery* q, int32_t v) { q->max_embeddings_per_pattern = v; }},
      {"max_patterns_per_round",
       [](TopKQuery* q, int32_t v) { q->max_patterns_per_round = v; }},
      {"max_seed_embeddings_per_anchor",
       [](TopKQuery* q, int32_t v) { q->max_seed_embeddings_per_anchor = v; }},
      {"max_merge_pairs_per_key",
       [](TopKQuery* q, int32_t v) { q->max_merge_pairs_per_key = v; }},
      {"max_union_instances",
       [](TopKQuery* q, int32_t v) { q->max_union_instances = v; }},
      {"stage3_max_rounds",
       [](TopKQuery* q, int32_t v) { q->stage3_max_rounds = v; }},
  };
  for (const auto& [name, set] : caps) {
    for (int32_t value : {0, -1}) {
      TopKQuery bad = BaseQuery(5);
      set(&bad, value);
      Result<QueryResult> rejected = session->RunQuery(bad);
      ASSERT_FALSE(rejected.ok()) << name << " = " << value;
      EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
      EXPECT_NE(rejected.status().message().find(name), std::string::npos)
          << rejected.status().message();
    }
  }

  EXPECT_EQ(session->queries_run(), 1);
  Result<QueryResult> after = session->RunQuery(BaseQuery(5));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(PatternsTranscript(after->patterns),
            PatternsTranscript(reference->patterns));
}

TEST(SessionTest, MinSupportZeroMeansSessionFloor) {
  LabeledGraph g = TestGraph(66);
  Result<MiningSession> session =
      MiningSession::Create(&g, BaseSessionConfig());
  ASSERT_TRUE(session.ok()) << session.status();
  TopKQuery query = BaseQuery(5);
  query.min_support = 0;
  Result<QueryResult> defaulted = session->RunQuery(query);
  query.min_support = 3;  // the explicit floor
  Result<QueryResult> explicit_floor = session->RunQuery(query);
  ASSERT_TRUE(defaulted.ok());
  ASSERT_TRUE(explicit_floor.ok());
  EXPECT_EQ(PatternsTranscript(defaulted->patterns),
            PatternsTranscript(explicit_floor->patterns));
}

TEST(SessionTest, InvalidSessionConfigRejected) {
  LabeledGraph g = TestGraph(77);
  SessionConfig config = BaseSessionConfig();
  config.min_support = 0;
  EXPECT_FALSE(MiningSession::Create(&g, config).ok());
  config = BaseSessionConfig();
  config.num_threads = -1;
  EXPECT_FALSE(MiningSession::Create(&g, config).ok());
  config = BaseSessionConfig();
  config.stage1_shard_grain = -5;
  EXPECT_FALSE(MiningSession::Create(&g, config).ok());
}

TEST(SessionTest, EmptyGraphSessionServesEmptyQueries) {
  LabeledGraph g = std::move(GraphBuilder().Build()).value();
  Result<MiningSession> session =
      MiningSession::Create(&g, BaseSessionConfig());
  ASSERT_TRUE(session.ok()) << session.status();
  EXPECT_TRUE(session->store().empty());
  Result<QueryResult> result = session->RunQuery(BaseQuery(1));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->patterns.empty());
}

TEST(SessionTest, AccumulateTopKDedupsAcrossQueries) {
  // Cross-query accumulation: the same pattern recovered by every run must
  // occupy ONE slot (best support kept), and the list stays in the
  // engine's size order under the cap.
  LabeledGraph g = TestGraph(99);
  Result<MiningSession> session =
      MiningSession::Create(&g, BaseSessionConfig());
  ASSERT_TRUE(session.ok()) << session.status();
  std::vector<MinedPattern> accumulated;
  for (uint64_t seed : {5, 6, 5}) {  // seed 5 twice: identical results
    Result<QueryResult> result = session->RunQuery(BaseQuery(seed));
    ASSERT_TRUE(result.ok());
    AccumulateTopK(&accumulated, std::move(result->patterns), /*k=*/8);
  }
  ASSERT_FALSE(accumulated.empty());
  EXPECT_LE(accumulated.size(), 8u);
  for (size_t i = 1; i < accumulated.size(); ++i) {
    EXPECT_GE(accumulated[i - 1].NumEdges(), accumulated[i].NumEdges());
  }
  // No two accumulated patterns are isomorphic.
  for (size_t i = 0; i < accumulated.size(); ++i) {
    for (size_t j = i + 1; j < accumulated.size(); ++j) {
      if (accumulated[i].NumEdges() != accumulated[j].NumEdges() ||
          accumulated[i].NumVertices() != accumulated[j].NumVertices()) {
        continue;
      }
      EXPECT_FALSE(ArePatternsIsomorphic(accumulated[i].pattern,
                                         accumulated[j].pattern))
          << "duplicate pattern survived accumulation at " << i << "," << j;
    }
  }
}

TEST(SessionTest, AccumulateTopKReplacesTheVariantWithItsEmbeddings) {
  // Host graph: a labeled path A-B-C plus a second A on B.
  GraphBuilder builder;
  for (LabelId label : {1, 2, 3, 1}) builder.AddVertex(label);
  builder.AddEdge(0, 1);
  builder.AddEdge(1, 2);
  builder.AddEdge(1, 3);
  const LabeledGraph g = std::move(builder.Build()).value();
  // The pattern A-B-C numbered A, B, C (earlier, lower support) and C, B, A
  // (later, higher support); each carries embeddings in its own numbering.
  MinedPattern earlier;
  for (LabelId label : {1, 2, 3}) earlier.pattern.AddVertex(label);
  earlier.pattern.AddEdge(0, 1);
  earlier.pattern.AddEdge(1, 2);
  earlier.embeddings = ListOf({{0, 1, 2}});
  earlier.support = 1;
  MinedPattern later;
  for (LabelId label : {3, 2, 1}) later.pattern.AddVertex(label);
  later.pattern.AddEdge(0, 1);
  later.pattern.AddEdge(1, 2);
  later.embeddings = ListOf({{2, 1, 0}, {2, 1, 3}});
  later.support = 2;
  ASSERT_TRUE(ArePatternsIsomorphic(earlier.pattern, later.pattern));
  ASSERT_FALSE(earlier.pattern == later.pattern);

  for (bool merge_on_earlier : {true, false}) {
    SCOPED_TRACE(merge_on_earlier ? "earlier from_merge" : "later from_merge");
    earlier.from_merge = merge_on_earlier;
    later.from_merge = !merge_on_earlier;
    std::vector<MinedPattern> accumulated = {earlier};
    AccumulateTopK(&accumulated, {later}, /*k=*/5);
    ASSERT_EQ(accumulated.size(), 1u);
    const MinedPattern& kept = accumulated[0];
    EXPECT_TRUE(kept.pattern == later.pattern);
    EXPECT_EQ(RowsOf(kept.embeddings), RowsOf(later.embeddings));
    EXPECT_EQ(kept.support, 2);
    EXPECT_TRUE(kept.from_merge);
    for (OccurrenceList::Row e : kept.embeddings) {
      for (const auto& [u, v] : kept.pattern.Edges()) {
        EXPECT_TRUE(g.HasEdge(e[u], e[v]));
      }
      for (VertexId u = 0; u < kept.pattern.NumVertices(); ++u) {
        EXPECT_EQ(g.Label(e[u]), kept.pattern.Label(u));
      }
    }
  }
}

TEST(SessionTest, CanonicalHashNormalizesDefaultedFields) {
  // The hash keys the serving result cache, so every defaulted field must
  // collapse onto its explicit resolution — exactly how RunQuery resolves
  // it — and fields that cannot change the result must not split lines.
  const int64_t floor = 3;
  const int64_t vertices = 200;

  // min_support: 0 and the explicit session floor are the same query.
  TopKQuery defaulted = BaseQuery(5);
  defaulted.min_support = 0;
  TopKQuery explicit_floor = BaseQuery(5);
  explicit_floor.min_support = floor;
  EXPECT_EQ(defaulted.CanonicalHash(floor, vertices),
            explicit_floor.CanonicalHash(floor, vertices));
  // ...but only under the same session floor.
  EXPECT_NE(defaulted.CanonicalHash(floor, vertices),
            defaulted.CanonicalHash(floor + 1, vertices));

  // vmin: 0 resolves to max(1, |V|/10), clamped to |V|.
  TopKQuery auto_vmin = BaseQuery(5);
  auto_vmin.vmin = 0;
  TopKQuery resolved_vmin = BaseQuery(5);
  resolved_vmin.vmin = vertices / 10;
  EXPECT_EQ(auto_vmin.CanonicalHash(floor, vertices),
            resolved_vmin.CanonicalHash(floor, vertices));
  TopKQuery oversized_vmin = BaseQuery(5);
  oversized_vmin.vmin = vertices + 50;
  TopKQuery clamped_vmin = BaseQuery(5);
  clamped_vmin.vmin = vertices;
  EXPECT_EQ(oversized_vmin.CanonicalHash(floor, vertices),
            clamped_vmin.CanonicalHash(floor, vertices));
}

TEST(SessionTest, CanonicalHashSeparatesDistinctQueries) {
  // Fields that change what RunQuery returns must change the hash; a
  // collision here would serve one query's cached patterns for another.
  const int64_t floor = 3;
  const int64_t vertices = 200;
  const uint64_t base = BaseQuery(5).CanonicalHash(floor, vertices);

  TopKQuery q = BaseQuery(5);
  q.k = 9;
  EXPECT_NE(q.CanonicalHash(floor, vertices), base);
  q = BaseQuery(5);
  q.rng_seed = 6;
  EXPECT_NE(q.CanonicalHash(floor, vertices), base);
  q = BaseQuery(5);
  q.dmax = 6;
  EXPECT_NE(q.CanonicalHash(floor, vertices), base);
  q = BaseQuery(5);
  q.support_measure = SupportMeasureKind::kMinImage;
  EXPECT_NE(q.CanonicalHash(floor, vertices), base);
  q = BaseQuery(5);
  q.support_measure = SupportMeasureKind::kHomomorphism;
  EXPECT_NE(q.CanonicalHash(floor, vertices), base);
  q = BaseQuery(5);
  q.support_measure = SupportMeasureKind::kTransaction;
  const uint64_t txn_base = q.CanonicalHash(floor, vertices);
  EXPECT_NE(txn_base, base);
  // Every measure hashes distinctly — one cache line per measure.
  q.support_measure = SupportMeasureKind::kHomomorphism;
  EXPECT_NE(q.CanonicalHash(floor, vertices), txn_base);
  // A sampled transaction query answers differently from the full count.
  q.support_measure = SupportMeasureKind::kTransaction;
  q.txn_sample = 4;
  EXPECT_NE(q.CanonicalHash(floor, vertices), txn_base);
  const uint64_t sampled = q.CanonicalHash(floor, vertices);
  q.txn_sample = 5;
  EXPECT_NE(q.CanonicalHash(floor, vertices), sampled);
  q = BaseQuery(5);
  q.time_budget_seconds = 1.0;  // budget-truncated results differ
  EXPECT_NE(q.CanonicalHash(floor, vertices), base);
  q = BaseQuery(5);
  q.restarts = 2;
  EXPECT_NE(q.CanonicalHash(floor, vertices), base);

  // Stability: the hash is a pure function of the resolved fields.
  EXPECT_EQ(BaseQuery(5).CanonicalHash(floor, vertices), base);
}

TEST(SessionTest, SessionSurvivesMove) {
  // MiningSession is returned by value through Result<>; the index's
  // back-pointer into the store must survive the moves.
  LabeledGraph g = TestGraph(88);
  Result<MiningSession> created =
      MiningSession::Create(&g, BaseSessionConfig());
  ASSERT_TRUE(created.ok());
  Result<QueryResult> before = created->RunQuery(BaseQuery(5));
  ASSERT_TRUE(before.ok());
  MiningSession moved = std::move(*created);
  EXPECT_EQ(&moved.index().store(), &moved.store());
  Result<QueryResult> after = moved.RunQuery(BaseQuery(5));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(PatternsTranscript(after->patterns),
            PatternsTranscript(before->patterns));
}

}  // namespace
}  // namespace spidermine
