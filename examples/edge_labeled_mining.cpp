// Example: mining a network whose EDGES carry labels (paper Sec. 3: "Our
// method can also be applied to graphs with edge labels").
//
// The scenario is a miniature interaction network: vertices are accounts
// labeled by role (0 = user, 1 = bot, 2 = service, 3 = admin) and edges are
// labeled by interaction type (1 = follows, 2 = mentions, 3 = pays). We
// plant a "payment ring" structure three times, add decoy structures with
// the same VERTEX labels but different EDGE labels, and show that the miner
// separates the two: the recovered top pattern carries the planted edge
// labels and support 3, while a vertex-label-only view would conflate the
// decoys into it.
//
// Build: cmake --build build --target edge_labeled_mining
// Run:   ./build/examples/edge_labeled_mining

#include <cstdio>

#include "graph/graph_builder.h"
#include "spidermine/session.h"

using namespace spidermine;

namespace {

constexpr EdgeLabelId kFollows = 1;
constexpr EdgeLabelId kMentions = 2;
constexpr EdgeLabelId kPays = 3;

void AddPaymentRing(GraphBuilder* builder) {
  // user -> bot -> service triangle with a paying admin attached.
  VertexId user = builder->AddVertex(0);
  VertexId bot = builder->AddVertex(1);
  VertexId service = builder->AddVertex(2);
  VertexId admin = builder->AddVertex(3);
  builder->AddEdge(user, bot, kFollows);
  builder->AddEdge(bot, service, kMentions);
  builder->AddEdge(user, service, kPays);
  builder->AddEdge(service, admin, kPays);
}

void AddDecoy(GraphBuilder* builder) {
  // Same vertex roles, but all interactions are "follows": without edge
  // labels this would be confused with the payment ring's triangle.
  VertexId user = builder->AddVertex(0);
  VertexId bot = builder->AddVertex(1);
  VertexId service = builder->AddVertex(2);
  builder->AddEdge(user, bot, kFollows);
  builder->AddEdge(bot, service, kFollows);
  builder->AddEdge(user, service, kFollows);
}

}  // namespace

int main() {
  GraphBuilder builder;
  for (int i = 0; i < 3; ++i) AddPaymentRing(&builder);
  for (int i = 0; i < 3; ++i) AddDecoy(&builder);
  Result<LabeledGraph> graph = builder.Build();
  if (!graph.ok()) {
    std::fprintf(stderr, "graph construction failed: %s\n",
                 graph.status().ToString().c_str());
    return 1;
  }
  std::printf("network: %lld accounts, %lld interactions, edge-labeled: %s\n",
              static_cast<long long>(graph->NumVertices()),
              static_cast<long long>(graph->NumEdges()),
              graph->HasEdgeLabels() ? "yes" : "no");

  SessionConfig config;
  config.min_support = 3;
  TopKQuery query;
  query.k = 5;
  query.dmax = 4;
  query.vmin = 4;
  query.rng_seed = 7;
  query.restarts = 4;
  // One-shot mining: the graph is mined once and thrown away. Hold a
  // MiningSession (see the other examples) when a graph serves many
  // queries.
  Result<QueryResult> result = MineOnce(&*graph, config, query);
  if (!result.ok()) {
    std::fprintf(stderr, "mining failed: %s\n",
                 result.status().ToString().c_str());
    return 1;
  }

  std::printf("top %zu patterns:\n", result->patterns.size());
  for (size_t i = 0; i < result->patterns.size(); ++i) {
    const MinedPattern& p = result->patterns[i];
    std::printf("%zu. |V|=%d |E|=%d support=%lld  %s\n", i + 1,
                p.NumVertices(), p.NumEdges(),
                static_cast<long long>(p.support),
                p.pattern.ToString().c_str());
  }

  const MinedPattern& top = result->patterns.front();
  if (top.NumVertices() == 4 && top.support == 3 &&
      top.pattern.HasEdgeLabels()) {
    std::printf("=> recovered the planted payment ring with its edge labels "
                "(support 3, decoys excluded)\n");
    return 0;
  }
  std::printf("=> unexpected top pattern (see above)\n");
  return 1;
}
