#include "baselines/ball_miner.h"

#include <set>
#include <tuple>

#include <algorithm>
#include <deque>
#include <unordered_set>

#include "pattern/embedding.h"
#include "pattern/iso_index.h"

namespace spidermine {

namespace {

/// The pattern with its head's label made distinct: the dedup key, because
/// two isomorphic patterns with different heads are different spiders.
Pattern HeadTagged(const Pattern& p) {
  Pattern tagged;
  for (VertexId v = 0; v < p.NumVertices(); ++v) {
    tagged.AddVertex(p.Label(v) * 2 + (v == 0 ? 1 : 0));
  }
  for (const auto& e : p.LabeledEdges()) tagged.AddEdge(e.u, e.v, e.label);
  return tagged;
}

struct State {
  Pattern pattern;  // vertex 0 = head
  OccurrenceList embeddings;
};

std::vector<VertexId> DistinctAnchors(const OccurrenceList& embs) {
  std::vector<VertexId> anchors;
  anchors.reserve(embs.size());
  for (OccurrenceList::Row e : embs) anchors.push_back(e[0]);
  std::sort(anchors.begin(), anchors.end());
  anchors.erase(std::unique(anchors.begin(), anchors.end()), anchors.end());
  return anchors;
}

Spider MakeSpider(const State& state, int32_t radius) {
  Spider s;
  s.pattern = state.pattern;
  s.radius = radius;
  s.anchors = DistinctAnchors(state.embeddings);
  s.support = static_cast<int64_t>(s.anchors.size());
  return s;
}

}  // namespace

Result<BallMineResult> MineBallSpiders(const LabeledGraph& graph,
                                       const BallMinerConfig& config) {
  if (config.min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  if (config.radius < 1) {
    return Status::InvalidArgument("radius must be >= 1");
  }

  BallMineResult result;
  std::deque<State> queue;
  IsoSet seen;

  // Seeds: one single-vertex pattern per frequent label.
  for (LabelId label = 0; label < graph.NumLabels(); ++label) {
    auto vertices = graph.VerticesWithLabel(label);
    if (static_cast<int64_t>(vertices.size()) < config.min_support) continue;
    State s;
    s.pattern.AddVertex(label);
    s.embeddings = OccurrenceList(1);
    for (VertexId v : vertices) s.embeddings.AppendRow()[0] = v;
    seen.Insert(HeadTagged(s.pattern));
    result.spiders.push_back(MakeSpider(s, config.radius));
    queue.push_back(std::move(s));
  }

  auto truncated = [&]() {
    return config.max_spiders > 0 &&
           static_cast<int64_t>(result.spiders.size()) >= config.max_spiders;
  };

  while (!queue.empty() && !truncated()) {
    State state = std::move(queue.front());
    queue.pop_front();
    ++result.expansions;

    const Pattern& p = state.pattern;
    std::vector<int32_t> dist = p.BfsDistances(0);

    // ---- Candidate extensions: (a) new vertex with label l attached at
    // pattern vertex u (only when dist(u) < r); (b) internal edge (u, v).
    // Collected from the embeddings so only realizable extensions are tried.
    // Extension keys carry the graph edge's label so edge-labeled balls
    // stay distinct (label 0 everywhere on unlabeled graphs).
    std::set<std::tuple<VertexId, LabelId, EdgeLabelId>> ext_new;
    std::set<std::tuple<VertexId, VertexId, EdgeLabelId>> ext_internal;
    for (OccurrenceList::Row e : state.embeddings) {
      std::unordered_set<VertexId> image(e.begin(), e.end());
      for (VertexId u = 0; u < p.NumVertices(); ++u) {
        for (VertexId x : graph.Neighbors(e[u])) {
          if (image.count(x)) continue;
          if (dist[u] < config.radius &&
              p.NumVertices() < config.max_vertices) {
            ext_new.emplace(u, graph.Label(x), graph.EdgeLabel(e[u], x));
          }
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

    auto consider = [&](State&& next) {
      if (static_cast<int64_t>(next.embeddings.size()) <
          config.min_support) {
        return;  // cannot possibly have enough anchors
      }
      std::vector<VertexId> anchors = DistinctAnchors(next.embeddings);
      if (static_cast<int64_t>(anchors.size()) < config.min_support) return;
      if (!seen.Insert(HeadTagged(next.pattern))) return;
      result.spiders.push_back(MakeSpider(next, config.radius));
      queue.push_back(std::move(next));
    };

    for (const auto& [u, label, el] : ext_new) {
      if (truncated()) break;
      State next;
      next.pattern = p;
      VertexId nv = next.pattern.AddVertex(label);
      next.pattern.AddEdge(u, nv, el);
      next.embeddings = OccurrenceList(next.pattern.NumVertices());
      for (OccurrenceList::Row e : state.embeddings) {
        std::unordered_set<VertexId> image(e.begin(), e.end());
        for (VertexId x : graph.Neighbors(e[u])) {
          if (graph.Label(x) != label || image.count(x)) continue;
          if (graph.EdgeLabel(e[u], x) != el) continue;
          const std::span<VertexId> extended = next.embeddings.AppendRow();
          std::copy(e.begin(), e.end(), extended.begin());
          extended.back() = x;
          if (static_cast<int64_t>(next.embeddings.size()) >=
              config.max_embeddings_per_pattern) {
            break;
          }
        }
        if (static_cast<int64_t>(next.embeddings.size()) >=
            config.max_embeddings_per_pattern) {
          break;
        }
      }
      consider(std::move(next));
    }

    for (const auto& [u, v, el] : ext_internal) {
      if (truncated()) break;
      State next;
      next.pattern = p;
      next.pattern.AddEdge(u, v, el);
      next.embeddings = OccurrenceList(next.pattern.NumVertices());
      for (OccurrenceList::Row e : state.embeddings) {
        if (graph.HasEdge(e[u], e[v]) && graph.EdgeLabel(e[u], e[v]) == el) {
          next.embeddings.Append(e);
        }
      }
      consider(std::move(next));
    }
  }

  result.truncated = truncated();
  return result;
}

}  // namespace spidermine
