#include "baselines/complete_miner.h"

#include <algorithm>
#include <array>
#include <deque>
#include <set>
#include <tuple>
#include <unordered_set>

#include "common/timer.h"
#include "pattern/iso_index.h"

namespace spidermine {

namespace {

struct State {
  Pattern pattern;
  OccurrenceList embeddings;
};

// The level-wise embedding-list steps: each pattern extension by one edge
// derives its embeddings from its parent's, instead of searching the
// network again.

/// Level-extension step: appends to \p out every extension of \p base
/// embeddings mapping a NEW pattern vertex (attached to pattern vertex
/// \p src by an edge labeled \p edge_label, with vertex label
/// \p vertex_label) onto a fresh graph neighbor. Stops once \p out reaches
/// \p max_embeddings (the caller's per-pattern cap) and returns false
/// then, true when the enumeration completed. \p out is one column wider
/// than \p base.
bool ExtendEmbeddingsNewVertex(const LabeledGraph& graph,
                               const OccurrenceList& base, VertexId src,
                               EdgeLabelId edge_label, LabelId vertex_label,
                               int64_t max_embeddings, OccurrenceList* out) {
  for (OccurrenceList::Row e : base) {
    const std::vector<VertexId> image = SortedImage(e);
    for (VertexId x : graph.Neighbors(e[static_cast<size_t>(src)])) {
      if (graph.Label(x) != vertex_label ||
          std::binary_search(image.begin(), image.end(), x)) {
        continue;
      }
      if (graph.EdgeLabel(e[static_cast<size_t>(src)], x) != edge_label) {
        continue;
      }
      const std::span<VertexId> extended = out->AppendRow();
      std::copy(e.begin(), e.end(), extended.begin());
      extended.back() = x;
      if (static_cast<int64_t>(out->size()) >= max_embeddings) return false;
    }
  }
  return true;
}

/// Internal-edge step: keeps the \p embeddings whose images of pattern
/// vertices \p u and \p v are joined by a graph edge labeled
/// \p edge_label (the embeddings of the pattern with that edge added; the
/// vertex set is unchanged).
OccurrenceList FilterEmbeddingsInternalEdge(const LabeledGraph& graph,
                                            const OccurrenceList& embeddings,
                                            VertexId u, VertexId v,
                                            EdgeLabelId edge_label) {
  OccurrenceList kept(embeddings.width());
  for (OccurrenceList::Row e : embeddings) {
    const VertexId gu = e[static_cast<size_t>(u)];
    const VertexId gv = e[static_cast<size_t>(v)];
    if (graph.HasEdge(gu, gv) && graph.EdgeLabel(gu, gv) == edge_label) {
      kept.Append(e);
    }
  }
  return kept;
}

}  // namespace

Result<CompleteMineResult> MineComplete(const LabeledGraph& graph,
                                        const CompleteMinerConfig& config) {
  if (config.min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  CompleteMineResult result;
  Deadline deadline(config.time_budget_seconds);
  SupportContext ctx;

  std::deque<State> queue;
  IsoSet seen;

  auto support_of = [&](const State& s) {
    return ComputeSupport(config.support_measure, s.pattern, s.embeddings,
                          ctx);
  };

  auto over_budget = [&]() {
    if (config.max_patterns > 0 &&
        static_cast<int64_t>(result.patterns.size()) >= config.max_patterns) {
      return true;
    }
    return deadline.Expired();
  };

  // Level 1: single frequent edges per (label, label, edge-label) triple
  // (edge labels are always 0 on unlabeled graphs, so this degenerates to
  // the plain (label, label) enumeration there).
  {
    std::set<std::tuple<LabelId, LabelId, EdgeLabelId>> edge_kinds;
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      for (VertexId u : graph.Neighbors(v)) {
        if (v >= u) continue;
        LabelId a = graph.Label(v);
        LabelId b = graph.Label(u);
        if (a > b) std::swap(a, b);
        edge_kinds.emplace(a, b, graph.EdgeLabel(v, u));
      }
    }
    for (const auto& [a, b, el] : edge_kinds) {
      State s;
      s.pattern.AddVertex(a);
      s.pattern.AddVertex(b);
      s.pattern.AddEdge(0, 1, el);
      s.embeddings = OccurrenceList(2);
      for (VertexId v : graph.VerticesWithLabel(a)) {
        for (VertexId u : graph.Neighbors(v)) {
          if (graph.Label(u) != b) continue;
          if (graph.EdgeLabel(v, u) != el) continue;
          if (a == b && v > u) continue;  // one orientation for equal labels
          s.embeddings.Append(std::array{v, u});
          if (static_cast<int64_t>(s.embeddings.size()) >=
              config.max_embeddings_per_pattern) {
            break;
          }
        }
        if (static_cast<int64_t>(s.embeddings.size()) >=
            config.max_embeddings_per_pattern) {
          break;
        }
      }
      int64_t support = support_of(s);
      if (support < config.min_support) continue;
      seen.Insert(s.pattern);
      result.patterns.push_back({s.pattern, support});
      queue.push_back(std::move(s));
    }
  }

  while (!queue.empty()) {
    if (over_budget()) {
      result.aborted = true;
      break;
    }
    State state = std::move(queue.front());
    queue.pop_front();
    ++result.expansions;
    const Pattern& p = state.pattern;
    if (config.max_pattern_edges > 0 &&
        p.NumEdges() >= config.max_pattern_edges) {
      continue;
    }

    // All one-edge extensions realizable in the occurrence list, keyed with
    // the graph edge's label so edge-labeled extensions stay distinct.
    std::set<std::tuple<VertexId, LabelId, EdgeLabelId>> ext_new;
    std::set<std::tuple<VertexId, VertexId, EdgeLabelId>> ext_internal;
    for (OccurrenceList::Row e : state.embeddings) {
      std::unordered_set<VertexId> image(e.begin(), e.end());
      for (VertexId u = 0; u < p.NumVertices(); ++u) {
        for (VertexId x : graph.Neighbors(e[u])) {
          if (image.count(x)) continue;
          ext_new.emplace(u, graph.Label(x), graph.EdgeLabel(e[u], x));
        }
      }
      for (VertexId u = 0; u < p.NumVertices(); ++u) {
        for (VertexId v = u + 1; v < p.NumVertices(); ++v) {
          if (!p.HasEdge(u, v) && graph.HasEdge(e[u], e[v])) {
            ext_internal.emplace(u, v, graph.EdgeLabel(e[u], e[v]));
          }
        }
      }
    }

    auto admit = [&](State&& next) {
      if (static_cast<int64_t>(next.embeddings.size()) < config.min_support &&
          config.support_measure != SupportMeasureKind::kTransaction) {
        return;
      }
      DedupEmbeddingsByImage(&next.embeddings);
      int64_t support = support_of(next);
      if (support < config.min_support) return;
      if (!seen.Insert(next.pattern)) return;
      result.patterns.push_back({next.pattern, support});
      queue.push_back(std::move(next));
    };

    for (const auto& [u, label, el] : ext_new) {
      if (over_budget()) break;
      State next;
      next.pattern = p;
      VertexId nv = next.pattern.AddVertex(label);
      next.pattern.AddEdge(u, nv, el);
      next.embeddings = OccurrenceList(next.pattern.NumVertices());
      ExtendEmbeddingsNewVertex(graph, state.embeddings, u, el, label,
                                config.max_embeddings_per_pattern,
                                &next.embeddings);
      admit(std::move(next));
    }
    for (const auto& [u, v, el] : ext_internal) {
      if (over_budget()) break;
      State next;
      next.pattern = p;
      next.pattern.AddEdge(u, v, el);
      next.embeddings =
          FilterEmbeddingsInternalEdge(graph, state.embeddings, u, v, el);
      admit(std::move(next));
    }
  }
  if (over_budget()) result.aborted = true;
  return result;
}

}  // namespace spidermine
