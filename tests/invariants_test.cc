#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/binary_io.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "pattern/vf2.h"
#include "spidermine/closure.h"
#include "spidermine/session.h"

#include "spidermine/oracle.h"
#include "spidermine/variants.h"

/// \file invariants_test.cc
/// Parameterized property sweeps over random instances for the post-growth
/// modules (closure, variants, oracle) and the binary codec. Each TEST_P
/// instance derives a fresh scenario from its seed; properties must hold on
/// every draw.

namespace spidermine {
namespace {

// ---------------------------------------------------------------------------
// Closure invariants.
// ---------------------------------------------------------------------------

class ClosureInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClosureInvariants, ClosurePreservesMiningInvariants) {
  Rng rng(GetParam());
  GraphBuilder builder = GenerateErdosRenyi(150, 2.0, 10, &rng);
  Pattern planted = RandomPatternWithDiameter(9, 4, 10, &rng);
  PatternInjector injector(&builder);
  ASSERT_TRUE(injector.Inject(planted, 3, &rng).ok());
  LabeledGraph g = std::move(builder.Build()).value();

  // Start from the planted pattern minus one edge that keeps it connected
  // (drop a cycle edge if any; otherwise skip the mutation).
  Pattern open = planted;
  OccurrenceList embeddings = FindEmbeddings(open, g);
  ASSERT_FALSE(embeddings.empty());
  const int32_t diameter_before = open.Diameter();

  int64_t support = 0;
  const int32_t added =
      CloseInternalEdges(g, &open, &embeddings,
                         SupportMeasureKind::kGreedyMisVertex,
                         /*min_support=*/3, &support);

  // 1. The pattern stays connected and its diameter never grows.
  EXPECT_TRUE(open.IsConnected());
  EXPECT_LE(open.Diameter(), diameter_before);
  // 2. Every surviving embedding realizes every pattern edge.
  for (OccurrenceList::Row e : embeddings) {
    for (const auto& [u, v] : open.Edges()) {
      EXPECT_TRUE(g.HasEdge(e[u], e[v]))
          << "edge " << u << "-" << v << " not realized";
    }
  }
  // 3. If an edge was added, the support reported matches a recomputation.
  if (added > 0) {
    EXPECT_EQ(support,
              ComputeSupport(SupportMeasureKind::kGreedyMisVertex, open,
                             embeddings));
    EXPECT_GE(support, 3);
  }
  // 4. Idempotence: a second pass adds nothing.
  Pattern again = open;
  OccurrenceList embeddings2 = embeddings;
  EXPECT_EQ(CloseInternalEdges(g, &again, &embeddings2,
                               SupportMeasureKind::kGreedyMisVertex, 3),
            0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClosureInvariants,
                         ::testing::Values(11u, 22u, 33u, 44u, 55u, 66u, 77u,
                                           88u));

// ---------------------------------------------------------------------------
// Binary / text codec round trips.
// ---------------------------------------------------------------------------

struct CodecParam {
  int64_t vertices;
  double avg_degree;
  LabelId labels;
  uint64_t seed;
};

class CodecRoundTrip : public ::testing::TestWithParam<CodecParam> {};

TEST_P(CodecRoundTrip, BinaryAndTextPreserveTheGraph) {
  const CodecParam& p = GetParam();
  Rng rng(p.seed);
  LabeledGraph g =
      std::move(GenerateErdosRenyi(p.vertices, p.avg_degree, p.labels, &rng)
                    .Build())
          .value();

  Result<LabeledGraph> via_binary = GraphFromBinary(GraphToBinary(g));
  ASSERT_TRUE(via_binary.ok()) << via_binary.status();
  Result<LabeledGraph> via_text = ParseGraphText(GraphToText(g));
  ASSERT_TRUE(via_text.ok()) << via_text.status();

  for (const LabeledGraph* other :
       {&via_binary.value(), &via_text.value()}) {
    ASSERT_EQ(g.NumVertices(), other->NumVertices());
    ASSERT_EQ(g.NumEdges(), other->NumEdges());
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      ASSERT_EQ(g.Label(v), other->Label(v));
      auto a = g.Neighbors(v);
      auto b = other->Neighbors(v);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
    }
  }

  // Determinism: encoding is byte-stable.
  EXPECT_EQ(GraphToBinary(g), GraphToBinary(g));
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CodecRoundTrip,
    ::testing::Values(CodecParam{1, 0.0, 1, 1}, CodecParam{50, 1.0, 3, 2},
                      CodecParam{200, 3.0, 8, 3}, CodecParam{500, 5.0, 2, 4},
                      CodecParam{100, 0.5, 30, 5}));

// ---------------------------------------------------------------------------
// Variant / maximality invariants over real miner output.
// ---------------------------------------------------------------------------

class ResultPostProcessing : public ::testing::TestWithParam<uint64_t> {
 protected:
  std::vector<MinedPattern> MineSomething(uint64_t seed) {
    Rng rng(seed);
    GraphBuilder builder = GenerateErdosRenyi(150, 1.8, 8, &rng);
    Pattern planted = RandomPatternWithDiameter(8, 4, 8, &rng);
    PatternInjector injector(&builder);
    EXPECT_TRUE(injector.Inject(planted, 3, &rng).ok());
    graph_ = std::move(builder.Build()).value();
    SessionConfig config;
    TopKQuery query;
    config.min_support = 2;
    query.k = 12;
    query.dmax = 4;
    query.vmin = 8;
    query.rng_seed = seed;
    Result<QueryResult> result = MineOnce(&graph_, config, query);
    EXPECT_TRUE(result.ok());
    return result.ok() ? std::move(result->patterns)
                       : std::vector<MinedPattern>{};
  }

  LabeledGraph graph_;
};

TEST_P(ResultPostProcessing, FilterMaximalYieldsAnAntichain) {
  std::vector<MinedPattern> patterns = MineSomething(GetParam());
  const size_t before = patterns.size();
  std::vector<MinedPattern> maximal = FilterMaximal(std::move(patterns));
  ASSERT_LE(maximal.size(), before);
  for (size_t i = 0; i < maximal.size(); ++i) {
    for (size_t j = 0; j < maximal.size(); ++j) {
      if (i == j) continue;
      if (maximal[j].NumEdges() >= maximal[i].NumEdges()) {
        EXPECT_FALSE(IsSubPattern(maximal[i].pattern, maximal[j].pattern))
            << "kept pattern " << i << " is contained in kept pattern " << j;
      }
    }
  }
}

TEST_P(ResultPostProcessing, GroupVariantsPartitionsTheResults) {
  std::vector<MinedPattern> patterns = MineSomething(GetParam());
  std::vector<VariantGroup> groups = GroupVariants(patterns);
  std::vector<int> seen(patterns.size(), 0);
  for (const VariantGroup& group : groups) {
    ++seen[group.core_index];
    for (size_t v : group.variant_indices) {
      ++seen[v];
      // Every variant contains its core.
      EXPECT_TRUE(IsSubPattern(patterns[group.core_index].pattern,
                               patterns[v].pattern));
    }
  }
  for (size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "pattern " << i << " in " << seen[i] << " groups";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ResultPostProcessing,
                         ::testing::Values(101u, 202u, 303u, 404u));

// ---------------------------------------------------------------------------
// Oracle self-consistency.
// ---------------------------------------------------------------------------

class OracleInvariants : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OracleInvariants, OracleOutputIsFrequentBoundedAndSorted) {
  Rng rng(GetParam());
  GraphBuilder builder = GenerateErdosRenyi(80, 1.5, 6, &rng);
  Pattern planted = RandomPatternWithDiameter(6, 3, 6, &rng);
  PatternInjector injector(&builder);
  ASSERT_TRUE(injector.Inject(planted, 2, &rng).ok());
  LabeledGraph g = std::move(builder.Build()).value();

  OracleConfig config;
  config.min_support = 2;
  config.k = 8;
  config.dmax = 3;
  Result<OracleResult> result = ExactTopKLargest(g, config);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_TRUE(result->exact);

  int32_t previous_edges = INT32_MAX;
  for (const OraclePattern& op : result->top_k) {
    // Diameter bound and reported diameter agree with the pattern.
    EXPECT_EQ(op.diameter, op.pattern.Diameter());
    EXPECT_LE(op.diameter, config.dmax);
    // Sorted by size descending.
    EXPECT_LE(op.pattern.NumEdges(), previous_edges);
    previous_edges = op.pattern.NumEdges();
    // Reported support is reproducible from fresh embeddings.
    OccurrenceList embeddings = FindEmbeddings(op.pattern, g);
    DedupEmbeddingsByImage(&embeddings);
    EXPECT_EQ(op.support,
              ComputeSupport(SupportMeasureKind::kGreedyMisVertex, op.pattern,
                             embeddings));
    EXPECT_GE(op.support, config.min_support);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, OracleInvariants,
                         ::testing::Values(7u, 17u, 27u, 37u, 47u));

}  // namespace
}  // namespace spidermine
