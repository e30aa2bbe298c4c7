#include "pattern/vf2.h"

#include <algorithm>
#include <cassert>

namespace spidermine {

namespace {

/// A pattern as a VF2 host: the LabeledGraph calls the search makes,
/// answered from the pattern's own sorted adjacency. A (label, vertex)
/// ordering of the vertices stands in for the graph's label index, so
/// label counts and the start vertex's candidates, in ascending order, are
/// those of a LabeledGraph built from the pattern, and so is every map the
/// search returns.
class PatternHost {
 public:
  explicit PatternHost(const Pattern& pattern) : pattern_(&pattern) {
    by_label_.resize(static_cast<size_t>(pattern.NumVertices()));
    for (VertexId v = 0; v < pattern.NumVertices(); ++v) by_label_[v] = v;
    std::stable_sort(by_label_.begin(), by_label_.end(),
                     [&pattern](VertexId a, VertexId b) {
                       return pattern.Label(a) < pattern.Label(b);
                     });
  }

  int64_t NumVertices() const { return pattern_->NumVertices(); }
  LabelId Label(VertexId v) const { return pattern_->Label(v); }
  int64_t Degree(VertexId v) const { return pattern_->Degree(v); }
  std::span<const VertexId> Neighbors(VertexId v) const {
    return pattern_->Neighbors(v);
  }
  bool HasEdge(VertexId u, VertexId v) const {
    return pattern_->HasEdge(u, v);
  }
  EdgeLabelId EdgeLabel(VertexId u, VertexId v) const {
    return pattern_->EdgeLabel(u, v);
  }
  bool HasEdgeLabels() const { return pattern_->HasEdgeLabels(); }
  LabelId NumLabels() const {
    return by_label_.empty() ? 0 : pattern_->Label(by_label_.back()) + 1;
  }
  std::span<const VertexId> VerticesWithLabel(LabelId label) const {
    const Pattern& p = *pattern_;
    const auto first = std::partition_point(
        by_label_.begin(), by_label_.end(),
        [&p, label](VertexId v) { return p.Label(v) < label; });
    const auto last = std::partition_point(
        first, by_label_.end(),
        [&p, label](VertexId v) { return p.Label(v) == label; });
    return {by_label_.data() + (first - by_label_.begin()),
            static_cast<size_t>(last - first)};
  }
  int64_t LabelCount(LabelId label) const {
    return static_cast<int64_t>(VerticesWithLabel(label).size());
  }

 private:
  const Pattern* pattern_;
  std::vector<VertexId> by_label_;
};

/// Chooses the order in which pattern vertices are matched: a BFS-like
/// order in which every vertex after the first has a previously ordered
/// neighbor (so candidate sets come from adjacency, never from a full
/// vertex scan). The start vertex is the one whose label is rarest in the
/// graph (most selective), unless an anchor dictates the start.
template <typename Host>
std::vector<VertexId> MatchingOrder(const Pattern& pattern, const Host& graph,
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

template <typename Host>
struct SearchState {
  const Pattern* pattern;
  const Host* graph;
  const Vf2Options* options;
  const std::function<bool(std::span<const VertexId>)>* callback;
  std::vector<VertexId> order;          // matching order of pattern vertices
  std::vector<VertexId> image;          // pattern vertex -> graph vertex or -1
  std::vector<bool> used;               // graph vertex used? (dense bitmap)
  Vf2Stats stats;
  int64_t emitted = 0;
  bool stop = false;

  void Recurse(size_t depth);
};

template <typename Host>
void SearchState<Host>::Recurse(size_t depth) {
  if (stop) return;
  ++stats.states_visited;
  if (options->max_states > 0 && stats.states_visited > options->max_states) {
    stats.aborted = true;
    stop = true;
    return;
  }
  if (depth == order.size()) {
    ++emitted;
    if (!(*callback)(image)) stop = true;
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

template <typename Host>
Vf2Stats Enumerate(
    const Pattern& pattern, const Host& graph, const Vf2Options& options,
    const std::function<bool(std::span<const VertexId>)>& callback) {
  Vf2Stats stats;
  if (pattern.NumVertices() == 0) return stats;
  assert(pattern.IsConnected() && "embedding search requires connectivity");

  SearchState<Host> state;
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

/// True iff \p host holds at least one embedding of \p pattern.
template <typename Host>
bool Contains(const Pattern& pattern, const Host& host) {
  bool found = false;
  Vf2Options options;
  options.max_embeddings = 1;
  Enumerate(pattern, host, options, [&found](std::span<const VertexId>) {
    found = true;
    return false;
  });
  return found;
}

}  // namespace

Vf2Stats EnumerateEmbeddings(
    const Pattern& pattern, const LabeledGraph& graph,
    const Vf2Options& options,
    const std::function<bool(std::span<const VertexId>)>& callback) {
  return Enumerate(pattern, graph, options, callback);
}

OccurrenceList FindEmbeddings(const Pattern& pattern,
                              const LabeledGraph& graph,
                              const Vf2Options& options) {
  OccurrenceList out(pattern.NumVertices());
  EnumerateEmbeddings(pattern, graph, options,
                      [&out](std::span<const VertexId> row) {
                        out.Append(row);
                        return true;
                      });
  return out;
}

bool ContainsEmbedding(const Pattern& pattern, const LabeledGraph& graph) {
  return Contains(pattern, graph);
}

std::optional<std::vector<VertexId>> FindIsomorphism(const Pattern& a,
                                                     const Pattern& b) {
  if (a.NumVertices() != b.NumVertices()) return std::nullopt;
  if (a.NumEdges() != b.NumEdges()) return std::nullopt;
  // Label-multiset and degree-sequence pre-checks, in per-thread scratch:
  // the dedup index runs them on every key hit.
  thread_local std::vector<int32_t> seq_a;
  thread_local std::vector<int32_t> seq_b;
  auto same_multiset = [&a, &b](auto value_of) {
    seq_a.clear();
    seq_b.clear();
    for (VertexId v = 0; v < a.NumVertices(); ++v) {
      seq_a.push_back(value_of(a, v));
      seq_b.push_back(value_of(b, v));
    }
    std::sort(seq_a.begin(), seq_a.end());
    std::sort(seq_b.begin(), seq_b.end());
    return seq_a == seq_b;
  };
  if (!same_multiset([](const Pattern& p, VertexId v) { return p.Label(v); })) {
    return std::nullopt;
  }
  if (!same_multiset(
          [](const Pattern& p, VertexId v) { return p.Degree(v); })) {
    return std::nullopt;
  }
  // A connected pattern without edges has at most one vertex, which the
  // label check above already matched.
  if (a.NumEdges() == 0) return std::vector<VertexId>(a.NumVertices(), 0);
  // With equal vertex and edge counts, an injective edge-preserving map of
  // a into b is necessarily a full isomorphism.
  std::optional<std::vector<VertexId>> map;
  Vf2Options options;
  options.max_embeddings = 1;
  Enumerate(a, PatternHost(b), options,
            [&map](std::span<const VertexId> row) {
              map.emplace(row.begin(), row.end());
              return false;
            });
  return map;
}

bool ArePatternsIsomorphic(const Pattern& a, const Pattern& b) {
  return FindIsomorphism(a, b).has_value();
}

bool IsSubPattern(const Pattern& sub, const Pattern& super) {
  if (sub.NumVertices() > super.NumVertices() ||
      sub.NumEdges() > super.NumEdges()) {
    return false;
  }
  if (sub.NumVertices() == 0) return true;
  return Contains(sub, PatternHost(super));
}

}  // namespace spidermine
