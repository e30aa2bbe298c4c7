#include "pattern/vf2.h"

#include <algorithm>
#include <cassert>

#include "graph/graph_builder.h"

namespace spidermine {

namespace {

/// Chooses the order in which pattern vertices are matched: a BFS-like
/// order in which every vertex after the first has a previously ordered
/// neighbor (so candidate sets come from adjacency, never from a full
/// vertex scan). The start vertex is the one whose label is rarest in the
/// graph (most selective), unless an anchor dictates the start.
std::vector<VertexId> MatchingOrder(const Pattern& pattern,
                                    const LabeledGraph& graph,
                                    VertexId anchor_pattern_vertex) {
  const int32_t n = pattern.NumVertices();
  VertexId start = 0;
  if (anchor_pattern_vertex >= 0) {
    start = anchor_pattern_vertex;
  } else {
    int64_t best_freq = INT64_MAX;
    for (VertexId v = 0; v < n; ++v) {
      LabelId l = pattern.Label(v);
      int64_t freq =
          l < graph.NumLabels() ? graph.LabelCount(l) : 0;
      // Prefer rare labels; tie-break on high degree (more constraints).
      if (freq < best_freq ||
          (freq == best_freq && pattern.Degree(v) > pattern.Degree(start))) {
        best_freq = freq;
        start = v;
      }
    }
  }
  std::vector<VertexId> order{start};
  std::vector<bool> placed(static_cast<size_t>(n), false);
  placed[start] = true;
  while (static_cast<int32_t>(order.size()) < n) {
    // Among frontier vertices (unplaced with a placed neighbor), pick the
    // one with the most placed neighbors (most constrained first).
    VertexId best = -1;
    int32_t best_constraints = -1;
    for (VertexId v = 0; v < n; ++v) {
      if (placed[v]) continue;
      int32_t constraints = 0;
      for (VertexId u : pattern.Neighbors(v)) {
        if (placed[u]) ++constraints;
      }
      if (constraints > 0 && constraints > best_constraints) {
        best_constraints = constraints;
        best = v;
      }
    }
    assert(best >= 0 && "pattern must be connected");
    placed[best] = true;
    order.push_back(best);
  }
  return order;
}

struct SearchState {
  const Pattern* pattern;
  const LabeledGraph* graph;
  const Vf2Options* options;
  const std::function<bool(const Embedding&)>* callback;
  std::vector<VertexId> order;          // matching order of pattern vertices
  std::vector<VertexId> image;          // pattern vertex -> graph vertex or -1
  std::vector<bool> used;               // graph vertex used? (dense bitmap)
  Vf2Stats stats;
  int64_t emitted = 0;
  bool stop = false;

  void Recurse(size_t depth);
};

void SearchState::Recurse(size_t depth) {
  if (stop) return;
  ++stats.states_visited;
  if (options->max_states > 0 && stats.states_visited > options->max_states) {
    stats.aborted = true;
    stop = true;
    return;
  }
  if (depth == order.size()) {
    Embedding embedding(image.begin(), image.end());
    ++emitted;
    if (!(*callback)(embedding)) stop = true;
    if (options->max_embeddings > 0 && emitted >= options->max_embeddings) {
      stop = true;
    }
    return;
  }

  const VertexId pv = order[depth];
  const LabelId want_label = pattern->Label(pv);
  const int32_t want_degree = pattern->Degree(pv);

  // Candidate source: neighbors of the matched pattern-neighbor with the
  // smallest image degree.
  VertexId via = -1;
  int64_t via_degree = INT64_MAX;
  for (VertexId u : pattern->Neighbors(pv)) {
    if (image[u] >= 0 && graph->Degree(image[u]) < via_degree) {
      via = u;
      via_degree = graph->Degree(image[u]);
    }
  }

  auto try_candidate = [&](VertexId gv) {
    if (stop) return;
    if (!options->homomorphic && used[gv]) return;
    if (graph->Label(gv) != want_label) return;
    // The degree prune is unsound under homomorphism: two pattern
    // neighbors of pv may share one image, so gv can host pv with fewer
    // graph neighbors than pv has pattern neighbors.
    if (!options->homomorphic && graph->Degree(gv) < want_degree) return;
    // Consistency: every matched pattern neighbor must map to a graph
    // neighbor of gv, with matching edge labels when either side uses them
    // (Definition 1 extended to edge labels, paper Sec. 3; the default
    // label 0 is a real label and must match exactly).
    for (VertexId u : pattern->Neighbors(pv)) {
      if (image[u] < 0) continue;
      if (!graph->HasEdge(gv, image[u])) return;
      if ((pattern->HasEdgeLabels() || graph->HasEdgeLabels()) &&
          pattern->EdgeLabel(pv, u) != graph->EdgeLabel(gv, image[u])) {
        return;
      }
    }
    image[pv] = gv;
    if (!options->homomorphic) used[gv] = true;
    Recurse(depth + 1);
    if (!options->homomorphic) used[gv] = false;
    image[pv] = -1;
  };

  if (via >= 0) {
    for (VertexId gv : graph->Neighbors(image[via])) try_candidate(gv);
  } else if (depth == 0 && options->anchor_pattern_vertex == pv &&
             options->anchor_graph_vertex >= 0) {
    try_candidate(options->anchor_graph_vertex);
  } else {
    // First vertex without anchor: the start-root source's subsequence of
    // the wanted label's vertices, or all of them.
    std::optional<std::span<const VertexId>> roots;
    if (options->start_roots) roots = options->start_roots(pv);
    if (!roots && want_label < graph->NumLabels()) {
      roots = graph->VerticesWithLabel(want_label);
    }
    if (roots) {
      for (VertexId gv : *roots) try_candidate(gv);
    }
  }
}

}  // namespace

Vf2Stats EnumerateEmbeddings(
    const Pattern& pattern, const LabeledGraph& graph,
    const Vf2Options& options,
    const std::function<bool(const Embedding&)>& callback) {
  Vf2Stats stats;
  if (pattern.NumVertices() == 0) return stats;
  assert(pattern.IsConnected() && "embedding search requires connectivity");

  SearchState state;
  state.pattern = &pattern;
  state.graph = &graph;
  state.options = &options;
  state.callback = &callback;
  state.order = MatchingOrder(pattern, graph, options.anchor_pattern_vertex);
  state.image.assign(static_cast<size_t>(pattern.NumVertices()), -1);
  state.used.assign(static_cast<size_t>(graph.NumVertices()), false);
  state.Recurse(0);
  stats.states_visited = state.stats.states_visited;
  stats.aborted = state.stats.aborted;
  return stats;
}

std::vector<Embedding> FindEmbeddings(const Pattern& pattern,
                                      const LabeledGraph& graph,
                                      const Vf2Options& options) {
  std::vector<Embedding> out;
  EnumerateEmbeddings(pattern, graph, options,
                      [&out](const Embedding& e) {
                        out.push_back(e);
                        return true;
                      });
  return out;
}

bool ContainsEmbedding(const Pattern& pattern, const LabeledGraph& graph) {
  bool found = false;
  Vf2Options options;
  options.max_embeddings = 1;
  EnumerateEmbeddings(pattern, graph, options, [&found](const Embedding&) {
    found = true;
    return false;
  });
  return found;
}

std::optional<std::vector<VertexId>> FindIsomorphism(const Pattern& a,
                                                     const Pattern& b) {
  if (a.NumVertices() != b.NumVertices()) return std::nullopt;
  if (a.NumEdges() != b.NumEdges()) return std::nullopt;
  if (a.SortedLabels() != b.SortedLabels()) return std::nullopt;
  // Degree-sequence pre-check.
  auto degree_sequence = [](const Pattern& p) {
    std::vector<int32_t> d(static_cast<size_t>(p.NumVertices()));
    for (VertexId v = 0; v < p.NumVertices(); ++v) d[v] = p.Degree(v);
    std::sort(d.begin(), d.end());
    return d;
  };
  if (degree_sequence(a) != degree_sequence(b)) return std::nullopt;
  // A connected pattern without edges has at most one vertex, which the
  // label check above already matched.
  if (a.NumEdges() == 0) return std::vector<VertexId>(a.NumVertices(), 0);
  // With equal vertex and edge counts, an injective edge-preserving map of
  // a into b is necessarily a full isomorphism.
  std::optional<std::vector<VertexId>> map;
  Vf2Options options;
  options.max_embeddings = 1;
  EnumerateEmbeddings(a, PatternToLabeledGraph(b), options,
                      [&map](const Embedding& e) {
                        map = e;
                        return false;
                      });
  return map;
}

bool ArePatternsIsomorphic(const Pattern& a, const Pattern& b) {
  return FindIsomorphism(a, b).has_value();
}

LabeledGraph PatternToLabeledGraph(const Pattern& pattern) {
  GraphBuilder builder;
  for (VertexId v = 0; v < pattern.NumVertices(); ++v) {
    builder.AddVertex(pattern.Label(v));
  }
  for (const auto& e : pattern.LabeledEdges()) {
    builder.AddEdge(e.u, e.v, e.label);
  }
  Result<LabeledGraph> result = builder.Build();
  assert(result.ok());
  return std::move(result).value();
}

}  // namespace spidermine
