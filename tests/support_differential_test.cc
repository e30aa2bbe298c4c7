#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/barabasi_albert.h"
#include "gen/dblp_sim.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "gen/transaction_gen.h"
#include "graph/graph_builder.h"
#include "pattern/vf2.h"
#include "spider_test_util.h"
#include "spidermine/session.h"
#include "spidermine/txn_adapter.h"
#include "support/support_measure.h"

/// \file support_differential_test.cc
/// Differential testing of the support-measure lattice. Every measure is
/// recomputed from brute-force VF2 embedding lists (isomorphic and
/// homomorphic) and cross-checked against the others:
///   * dominance on every mined pattern: homomorphism >= MNI >= greedy
///     vertex-MIS, and MIS counts never exceed the embedding count;
///   * anti-monotonicity along leaf-peel lineages, provable for
///     {min-image, homomorphism, transaction-with-map} and asserted
///     empirically on these fixed seeds for the greedy MIS measures
///     (embedding count is NOT anti-monotone, so it only enters through
///     dominance);
///   * the engine's kHomomorphism answers equal the brute-force
///     homomorphism oracle on small graphs, with closure's E[P] searches
///     rooted at stored stars.

namespace spidermine {
namespace {

constexpr int64_t kEnumCap = 50000;
constexpr int64_t kStateCap = 2000000;

/// Brute-force embedding lists of one pattern: the full injective list
/// (MNI's input), its image-deduped version (what MIS measures consume in
/// the engine), and the homomorphic list. `complete` is false when either
/// enumeration hit a cap — per-list dominance still holds on a truncated
/// list, cross-list claims (hom >= MNI, lineages) do not.
struct BruteForceLists {
  OccurrenceList iso;
  OccurrenceList iso_dedup;
  OccurrenceList hom;
  bool complete = true;
};

OccurrenceList CappedEmbeddings(const Pattern& p, const LabeledGraph& g,
                                bool homomorphic, bool* complete) {
  Vf2Options options;
  options.max_embeddings = kEnumCap;
  options.max_states = kStateCap;
  options.homomorphic = homomorphic;
  OccurrenceList out(p.NumVertices());
  Vf2Stats stats = EnumerateEmbeddings(p, g, options,
                                       [&out](std::span<const VertexId> row) {
                                         out.Append(row);
                                         return true;
                                       });
  if (stats.aborted || static_cast<int64_t>(out.size()) >= kEnumCap) {
    *complete = false;
  }
  return out;
}

BruteForceLists Enumerate(const Pattern& p, const LabeledGraph& g) {
  BruteForceLists out;
  out.iso = CappedEmbeddings(p, g, /*homomorphic=*/false, &out.complete);
  out.hom = CappedEmbeddings(p, g, /*homomorphic=*/true, &out.complete);
  out.iso_dedup = out.iso;
  DedupEmbeddingsByImage(&out.iso_dedup);
  return out;
}

/// Removes one vertex whose removal keeps the pattern connected and
/// non-trivial (every connected graph has a non-cut vertex), preferring
/// degree-1 leaves so the chain mirrors how growth actually built it.
std::optional<Pattern> PeelOneVertex(const Pattern& p) {
  if (p.NumVertices() <= 2) return std::nullopt;
  std::vector<VertexId> order;
  for (VertexId v = 0; v < p.NumVertices(); ++v) {
    if (p.Degree(v) == 1) order.push_back(v);
  }
  for (VertexId v = 0; v < p.NumVertices(); ++v) {
    if (p.Degree(v) != 1) order.push_back(v);
  }
  for (VertexId drop : order) {
    std::vector<VertexId> keep;
    for (VertexId v = 0; v < p.NumVertices(); ++v) {
      if (v != drop) keep.push_back(v);
    }
    Pattern sub = p.InducedSubgraph(keep);
    if (sub.NumEdges() > 0 && sub.IsConnected()) return sub;
  }
  return std::nullopt;
}

/// Synthetic per-vertex payloads: vertex v carries {v % 16, 7v % 16}
/// (CSR-packed, sorted, deduped) — arbitrary but deterministic, so the
/// transaction-with-map measure has non-trivial intersections.
VertexTxnMap SyntheticTxnMap(int64_t num_vertices) {
  VertexTxnMap map;
  map.num_transactions = 16;
  map.offsets.assign(static_cast<size_t>(num_vertices) + 1, 0);
  for (VertexId v = 0; v < num_vertices; ++v) {
    std::vector<int32_t> ids{static_cast<int32_t>(v % 16),
                             static_cast<int32_t>((7 * v) % 16)};
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    for (int32_t t : ids) map.txn_ids.push_back(t);
    map.offsets[static_cast<size_t>(v) + 1] =
        static_cast<int64_t>(map.txn_ids.size());
  }
  return map;
}

/// All support values of one pattern, recomputed from brute force.
struct MeasureVector {
  int64_t count = 0;
  int64_t mni = 0;
  int64_t mis_vertex = 0;
  int64_t mis_edge = 0;
  int64_t hom = 0;
  int64_t txn_map = 0;
};

MeasureVector Measure(const Pattern& p, const BruteForceLists& lists,
                      const VertexTxnMap& txn_map) {
  MeasureVector m;
  m.count = ComputeSupport(SupportMeasureKind::kEmbeddingCount, p,
                           lists.iso_dedup);
  m.mni = ComputeSupport(SupportMeasureKind::kMinImage, p, lists.iso);
  m.mis_vertex =
      ComputeSupport(SupportMeasureKind::kGreedyMisVertex, p, lists.iso_dedup);
  m.mis_edge =
      ComputeSupport(SupportMeasureKind::kGreedyMisEdge, p, lists.iso_dedup);
  m.hom = ComputeSupport(SupportMeasureKind::kHomomorphism, p, lists.hom);
  SupportContext ctx;
  ctx.txn_map = &txn_map;
  m.txn_map =
      ComputeSupport(SupportMeasureKind::kTransaction, p, lists.iso, ctx);
  return m;
}

LabeledGraph ScenarioGraph(const std::string& name) {
  Rng rng(name == "er" ? 101 : 202);
  if (name == "er") {
    GraphBuilder builder = GenerateErdosRenyi(120, 2.0, 10, &rng);
    Pattern planted = RandomPatternWithDiameter(7, 4, 10, &rng);
    PatternInjector injector(&builder);
    EXPECT_TRUE(injector.Inject(planted, 3, &rng).ok());
    return std::move(builder.Build()).value();
  }
  if (name == "ba") {
    GraphBuilder builder = GenerateBarabasiAlbert(120, 2, 10, &rng);
    Pattern planted = RandomPatternWithDiameter(7, 4, 10, &rng);
    PatternInjector injector(&builder);
    EXPECT_TRUE(injector.Inject(planted, 3, &rng).ok());
    return std::move(builder.Build()).value();
  }
  // Scaled-down DBLP-sim: same generator, small and sparse enough for
  // VF2 sweeps. With only 4 labels the homomorphic lists explode inside
  // big dense communities, so keep research groups small (~6 authors).
  DblpSimConfig config;
  config.num_authors = 400;
  config.target_edges = 800;
  config.num_communities = 64;
  config.common_pattern_vertices = 9;
  config.common_pattern_support = 4;
  config.num_cluster_patterns = 1;
  config.cluster_pattern_vertices = 7;
  config.cluster_pattern_support = 5;
  Result<DblpDataset> dataset = GenerateDblpSim(config);
  EXPECT_TRUE(dataset.ok()) << dataset.status();
  return std::move(dataset->graph);
}

std::vector<MinedPattern> MineScenario(const LabeledGraph& g) {
  SessionConfig session_config;
  session_config.min_support = 2;
  Result<MiningSession> session = MiningSession::Create(&g, session_config);
  EXPECT_TRUE(session.ok()) << session.status();
  TopKQuery query;
  query.k = 8;
  query.dmax = 4;
  query.vmin = 6;
  query.rng_seed = 9;
  query.seed_count_override = 8;
  // The mined patterns are inputs to the differential sweep, not the
  // object under test — cap the engine's work hard (lists, rounds,
  // per-round frontier) and skip closure so even the dense 4-label
  // DBLP-sim graph mines in seconds.
  query.max_embeddings_per_pattern = 512;
  query.max_patterns_per_round = 48;
  query.max_seed_embeddings_per_anchor = 4;
  query.stage3_max_rounds = 3;
  query.close_internal_edges = false;
  Result<QueryResult> result = session->RunQuery(query);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result->patterns)
                     : std::vector<MinedPattern>{};
}

class MeasureDifferential : public ::testing::TestWithParam<std::string> {};

TEST_P(MeasureDifferential, DominanceHoldsOnEveryMinedPattern) {
  LabeledGraph g = ScenarioGraph(GetParam());
  VertexTxnMap txn_map = SyntheticTxnMap(g.NumVertices());
  std::vector<MinedPattern> patterns = MineScenario(g);
  ASSERT_FALSE(patterns.empty());
  size_t examined = 0;
  size_t cross_list_checked = 0;
  for (const MinedPattern& mp : patterns) {
    if (examined++ >= 6) break;  // VF2 sweeps are the cost driver
    BruteForceLists lists = Enumerate(mp.pattern, g);
    MeasureVector m = Measure(mp.pattern, lists, txn_map);
    // Cross-list dominance needs complete lists: every homomorphic
    // image-column contains the isomorphic one.
    if (lists.complete) {
      EXPECT_GE(m.hom, m.mni) << mp.pattern.ToString();
      ++cross_list_checked;
    }
    // Per-list dominance holds on any (even truncated) list:
    // vertex-disjoint embeddings contribute distinct images per column.
    EXPECT_GE(m.mni, m.mis_vertex) << mp.pattern.ToString();
    EXPECT_LE(m.mis_vertex, m.mis_edge) << mp.pattern.ToString();
    EXPECT_LE(m.mis_edge, m.count) << mp.pattern.ToString();
    EXPECT_LE(m.txn_map, txn_map.num_transactions);
  }
  EXPECT_GT(cross_list_checked, 0u)
      << "every examined pattern hit the enumeration cap";
}

TEST_P(MeasureDifferential, MeasuresAreAntiMonotoneAlongLeafPeelLineages) {
  LabeledGraph g = ScenarioGraph(GetParam());
  VertexTxnMap txn_map = SyntheticTxnMap(g.NumVertices());
  std::vector<MinedPattern> patterns = MineScenario(g);
  ASSERT_FALSE(patterns.empty());
  size_t chains = 0;
  for (const MinedPattern& mp : patterns) {
    if (chains++ >= 4) break;
    Pattern current = mp.pattern;
    BruteForceLists lists = Enumerate(current, g);
    if (!lists.complete) continue;
    MeasureVector super = Measure(current, lists, txn_map);
    for (int step = 0; step < 3; ++step) {
      std::optional<Pattern> peeled = PeelOneVertex(current);
      if (!peeled.has_value()) break;
      BruteForceLists sub_lists = Enumerate(*peeled, g);
      if (!sub_lists.complete) break;
      MeasureVector sub = Measure(*peeled, sub_lists, txn_map);
      // Provably anti-monotone: restricting a (hom-)embedding of the
      // super-pattern yields one of the sub-pattern, so every image
      // column and every covered transaction set can only grow.
      EXPECT_GE(sub.mni, super.mni) << current.ToString();
      EXPECT_GE(sub.hom, super.hom) << current.ToString();
      EXPECT_GE(sub.txn_map, super.txn_map) << current.ToString();
      // Empirical on these fixed seeds (greedy MIS is an approximation;
      // the exact MIS is anti-monotone, the greedy one is checked here).
      EXPECT_GE(sub.mis_vertex, super.mis_vertex) << current.ToString();
      EXPECT_GE(sub.mis_edge, super.mis_edge) << current.ToString();
      current = std::move(*peeled);
      super = sub;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Graphs, MeasureDifferential,
                         ::testing::Values("er", "ba", "dblp"));

TEST(HomomorphismOracleTest, EngineEqualsBruteForce) {
  Rng rng(7);
  GraphBuilder builder = GenerateErdosRenyi(60, 1.8, 8, &rng);
  Pattern planted = RandomPatternWithDiameter(6, 3, 8, &rng);
  PatternInjector injector(&builder);
  ASSERT_TRUE(injector.Inject(planted, 3, &rng).ok());
  LabeledGraph g = std::move(builder.Build()).value();

  SessionConfig session_config;
  session_config.min_support = 2;
  Result<MiningSession> session = MiningSession::Create(&g, session_config);
  ASSERT_TRUE(session.ok()) << session.status();

  TopKQuery query;
  query.k = 8;
  query.dmax = 4;
  query.vmin = 5;
  query.rng_seed = 13;
  query.seed_count_override = 8;
  query.restarts = 2;
  query.support_measure = SupportMeasureKind::kHomomorphism;
  query.max_embeddings_per_pattern = 1000000;

  Result<QueryResult> served = session->RunQuery(query);
  ASSERT_TRUE(served.ok()) << served.status();
  ASSERT_FALSE(served->patterns.empty());
  EXPECT_EQ(served->stats.support_measure, SupportMeasureKind::kHomomorphism);

  for (const MinedPattern& mp : served->patterns) {
    // Brute-force homomorphism oracle: minimum-image count over the full
    // homomorphic embedding list.
    Vf2Options options;
    options.max_embeddings = 2000000;
    options.homomorphic = true;
    OccurrenceList hom = FindEmbeddings(mp.pattern, g, options);
    ASSERT_LT(static_cast<int64_t>(hom.size()), options.max_embeddings);
    EXPECT_EQ(mp.support, ComputeSupport(SupportMeasureKind::kHomomorphism,
                                         mp.pattern, hom))
        << mp.pattern.ToString();
    // Self-consistency: the reported list reproduces the reported support.
    EXPECT_EQ(mp.support, ComputeSupport(SupportMeasureKind::kHomomorphism,
                                         mp.pattern, mp.embeddings));
  }
  // The oracle's searches scan every label; the engine's closure started
  // at stored-star anchors (distinct keys under homomorphism).
  EXPECT_GT(served->stats.closure_rooted, 0);
}

TEST(TransactionDifferentialTest, DisjointUnionLineagesAndSampling) {
  TransactionDatasetConfig gen_config;
  gen_config.num_graphs = 6;
  gen_config.vertices_per_graph = 40;
  gen_config.avg_degree = 2.0;
  gen_config.num_labels = 10;
  gen_config.num_large = 1;
  gen_config.large_vertices = 8;
  gen_config.large_txn_support = 4;
  gen_config.seed = 3;
  Result<TransactionDataset> data = GenerateTransactionDataset(gen_config);
  ASSERT_TRUE(data.ok()) << data.status();
  Result<TransactionGraph> txn = BuildTransactionGraph(data->database);
  ASSERT_TRUE(txn.ok()) << txn.status();

  SessionConfig session_config;
  session_config.min_support = 2;
  session_config.txn_of_vertex = &txn->txn_of_vertex;
  Result<MiningSession> session =
      MiningSession::Create(&txn->graph, session_config);
  ASSERT_TRUE(session.ok()) << session.status();

  TopKQuery query;
  query.k = 6;
  query.dmax = 6;
  query.vmin = 6;
  query.rng_seed = 5;
  query.seed_count_override = 8;
  query.support_measure = SupportMeasureKind::kTransaction;

  Result<QueryResult> full = session->RunQuery(query);
  ASSERT_TRUE(full.ok()) << full.status();
  ASSERT_FALSE(full->patterns.empty());

  // Legacy (disjoint-union) transaction support is anti-monotone along
  // peel chains: all image vertices of one embedding share a transaction.
  SupportContext ctx;
  ctx.txn_of_vertex = &txn->txn_of_vertex;
  Pattern current = full->patterns.front().pattern;
  int64_t super_support = ComputeSupport(
      SupportMeasureKind::kTransaction, current,
      FindEmbeddings(current, txn->graph), ctx);
  for (int step = 0; step < 3; ++step) {
    std::optional<Pattern> peeled = PeelOneVertex(current);
    if (!peeled.has_value()) break;
    int64_t sub_support = ComputeSupport(
        SupportMeasureKind::kTransaction, *peeled,
        FindEmbeddings(*peeled, txn->graph), ctx);
    EXPECT_GE(sub_support, super_support) << current.ToString();
    current = std::move(*peeled);
    super_support = sub_support;
  }

  // A sample covering the whole universe counts everything: byte-identical
  // to the unsampled query.
  TopKQuery oversampled = query;
  oversampled.txn_sample = 1000;  // >= 6 transactions
  Result<QueryResult> oversampled_result = session->RunQuery(oversampled);
  ASSERT_TRUE(oversampled_result.ok()) << oversampled_result.status();
  EXPECT_EQ(PatternsTranscript(oversampled_result->patterns),
            PatternsTranscript(full->patterns));
  EXPECT_EQ(oversampled_result->stats.txn_sample_size, 1000);

  // A genuine sample is deterministic (same seed, same whitelist) and
  // never reports more coverage than the full count for the same pattern.
  TopKQuery sampled = query;
  sampled.txn_sample = 3;
  Result<QueryResult> once = session->RunQuery(sampled);
  Result<QueryResult> twice = session->RunQuery(sampled);
  ASSERT_TRUE(once.ok()) << once.status();
  ASSERT_TRUE(twice.ok());
  EXPECT_EQ(PatternsTranscript(once->patterns),
            PatternsTranscript(twice->patterns));
  for (const MinedPattern& mp : once->patterns) {
    int64_t unsampled = ComputeSupport(
        SupportMeasureKind::kTransaction, mp.pattern,
        FindEmbeddings(mp.pattern, txn->graph), ctx);
    EXPECT_LE(mp.support, unsampled) << mp.pattern.ToString();
    EXPECT_LE(mp.support, 3);  // at most the sample size
  }

  // Sampling is a whitelist at the measure level too.
  std::vector<int32_t> whitelist{0, 2};
  SupportContext sampled_ctx = ctx;
  sampled_ctx.txn_sample = &whitelist;
  const Pattern& p0 = full->patterns.front().pattern;
  OccurrenceList embeddings = FindEmbeddings(p0, txn->graph);
  EXPECT_LE(ComputeSupport(SupportMeasureKind::kTransaction, p0, embeddings,
                           sampled_ctx),
            std::min<int64_t>(
                2, ComputeSupport(SupportMeasureKind::kTransaction, p0,
                                  embeddings, ctx)));
}

}  // namespace
}  // namespace spidermine
