#include "pattern/pattern.h"

#include <algorithm>
#include <deque>
#include <sstream>

namespace spidermine {

VertexId Pattern::AddVertex(LabelId label) {
  if (offsets_.empty()) offsets_.push_back(0);
  labels_.push_back(label);
  offsets_.push_back(static_cast<int32_t>(neighbors_.size()));
  return static_cast<VertexId>(labels_.size() - 1);
}

void Pattern::InsertNeighbor(VertexId u, VertexId v, EdgeLabelId label) {
  const auto first = neighbors_.begin() + offsets_[u];
  const auto last = neighbors_.begin() + offsets_[u + 1];
  const auto at = std::upper_bound(first, last, v) - neighbors_.begin();
  if (has_edge_labels_) edge_labels_.insert(edge_labels_.begin() + at, label);
  neighbors_.insert(neighbors_.begin() + at, v);
  for (size_t w = static_cast<size_t>(u) + 1; w < offsets_.size(); ++w) {
    ++offsets_[w];
  }
}

bool Pattern::AddEdge(VertexId u, VertexId v, EdgeLabelId edge_label) {
  if (u == v || u < 0 || v < 0 || u >= NumVertices() || v >= NumVertices()) {
    return false;
  }
  if (HasEdge(u, v)) return false;
  // The first labeled edge gives every earlier (unlabeled) edge its 0.
  if (edge_label != 0 && !has_edge_labels_) {
    edge_labels_.assign(neighbors_.size(), 0);
    has_edge_labels_ = true;
  }
  InsertNeighbor(u, v, edge_label);
  InsertNeighbor(v, u, edge_label);
  ++num_edges_;
  return true;
}

bool Pattern::HasEdge(VertexId u, VertexId v) const {
  if (u < 0 || v < 0 || u >= NumVertices() || v >= NumVertices()) return false;
  const std::span<const VertexId> nu = Neighbors(u);
  return std::binary_search(nu.begin(), nu.end(), v);
}

EdgeLabelId Pattern::EdgeLabel(VertexId u, VertexId v) const {
  if (u < 0 || v < 0 || u >= NumVertices() || v >= NumVertices()) return -1;
  const std::span<const VertexId> nu = Neighbors(u);
  const auto it = std::lower_bound(nu.begin(), nu.end(), v);
  if (it == nu.end() || *it != v) return -1;
  return EdgeLabelAt(u, static_cast<size_t>(it - nu.begin()));
}

std::vector<int32_t> Pattern::BfsDistances(VertexId source,
                                           int32_t max_depth) const {
  std::vector<int32_t> dist(labels_.size(), -1);
  std::deque<VertexId> queue;
  dist[source] = 0;
  queue.push_back(source);
  while (!queue.empty()) {
    VertexId v = queue.front();
    queue.pop_front();
    if (max_depth >= 0 && dist[v] >= max_depth) continue;
    for (VertexId u : Neighbors(v)) {
      if (dist[u] < 0) {
        dist[u] = dist[v] + 1;
        queue.push_back(u);
      }
    }
  }
  return dist;
}

bool Pattern::IsConnected() const {
  if (NumVertices() <= 1) return true;
  std::vector<int32_t> dist = BfsDistances(0);
  return std::none_of(dist.begin(), dist.end(),
                      [](int32_t d) { return d < 0; });
}

int32_t Pattern::Eccentricity(VertexId v) const {
  std::vector<int32_t> dist = BfsDistances(v);
  int32_t ecc = 0;
  for (int32_t d : dist) {
    if (d < 0) return INT32_MAX;  // unreachable vertex: unbounded
    ecc = std::max(ecc, d);
  }
  return ecc;
}

int32_t Pattern::Diameter() const {
  int32_t diameter = 0;
  for (VertexId v = 0; v < NumVertices(); ++v) {
    int32_t ecc = Eccentricity(v);
    if (ecc == INT32_MAX) return INT32_MAX;
    diameter = std::max(diameter, ecc);
  }
  return diameter;
}

Pattern Pattern::InducedSubgraph(std::span<const VertexId> vertices) const {
  Pattern sub;
  std::vector<int32_t> position(labels_.size(), -1);
  for (size_t i = 0; i < vertices.size(); ++i) {
    position[vertices[i]] = static_cast<int32_t>(i);
    sub.AddVertex(labels_[vertices[i]]);
  }
  for (size_t i = 0; i < vertices.size(); ++i) {
    const std::span<const VertexId> nbrs = Neighbors(vertices[i]);
    for (size_t j = 0; j < nbrs.size(); ++j) {
      if (position[nbrs[j]] >= 0) {
        sub.AddEdge(static_cast<VertexId>(i), position[nbrs[j]],
                    EdgeLabelAt(vertices[i], j));
      }
    }
  }
  return sub;
}

std::vector<LabelId> Pattern::SortedLabels() const {
  std::vector<LabelId> labels = labels_;
  std::sort(labels.begin(), labels.end());
  return labels;
}

std::vector<std::pair<VertexId, VertexId>> Pattern::Edges() const {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(static_cast<size_t>(num_edges_));
  for (VertexId v = 0; v < NumVertices(); ++v) {
    for (VertexId u : Neighbors(v)) {
      if (v < u) edges.emplace_back(v, u);
    }
  }
  return edges;
}

std::vector<Pattern::LabeledEdge> Pattern::LabeledEdges() const {
  std::vector<LabeledEdge> edges;
  edges.reserve(static_cast<size_t>(num_edges_));
  for (VertexId v = 0; v < NumVertices(); ++v) {
    const std::span<const VertexId> nbrs = Neighbors(v);
    for (size_t i = 0; i < nbrs.size(); ++i) {
      if (v < nbrs[i]) {
        edges.push_back(LabeledEdge{v, nbrs[i], EdgeLabelAt(v, i)});
      }
    }
  }
  return edges;
}

std::string Pattern::ToString() const {
  std::ostringstream os;
  os << "n=" << NumVertices() << " m=" << NumEdges() << "; labels=[";
  for (VertexId v = 0; v < NumVertices(); ++v) {
    if (v) os << ",";
    os << labels_[v];
  }
  os << "]; edges=";
  bool first = true;
  for (const auto& [u, v] : Edges()) {
    if (!first) os << ",";
    os << u << "-" << v;
    if (has_edge_labels_) os << "(" << EdgeLabel(u, v) << ")";
    first = false;
  }
  return os.str();
}

bool Pattern::operator==(const Pattern& other) const {
  // offsets_ of a vertex-less pattern may be empty or {0}; both are equal.
  return labels_ == other.labels_ &&
         (labels_.empty() || offsets_ == other.offsets_) &&
         neighbors_ == other.neighbors_ &&
         has_edge_labels_ == other.has_edge_labels_ &&
         edge_labels_ == other.edge_labels_;
}

}  // namespace spidermine
