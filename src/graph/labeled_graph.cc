#include "graph/labeled_graph.h"

#include <algorithm>

#include "common/fnv1a.h"

namespace spidermine {

bool LabeledGraph::HasEdge(VertexId u, VertexId v) const {
  if (u < 0 || v < 0 || u >= NumVertices() || v >= NumVertices()) return false;
  // Search in the shorter adjacency list.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

EdgeLabelId LabeledGraph::EdgeLabel(VertexId u, VertexId v) const {
  if (u < 0 || v < 0 || u >= NumVertices() || v >= NumVertices()) return -1;
  if (Degree(u) > Degree(v)) std::swap(u, v);
  auto nbrs = Neighbors(u);
  auto it = std::lower_bound(nbrs.begin(), nbrs.end(), v);
  if (it == nbrs.end() || *it != v) return -1;
  if (!has_edge_labels_) return 0;
  return edge_labels_[static_cast<size_t>(
      offsets_[u] + (it - nbrs.begin()))];
}

uint64_t LabeledGraph::ContentHash() const {
  // FNV-1a over the canonical CSR content. Hashing int64 words directly
  // (rather than serialized bytes) keeps this allocation-free: the hash
  // binds an artifact to its graph, so it runs on every save AND load.
  Fnv1a fnv;
  fnv.MixWord(static_cast<uint64_t>(NumVertices()));
  fnv.MixWord(static_cast<uint64_t>(num_edges_));
  for (LabelId label : labels_) fnv.MixWord(static_cast<uint64_t>(label));
  for (VertexId u = 0; u < NumVertices(); ++u) {
    for (int64_t i = offsets_[u]; i < offsets_[u + 1]; ++i) {
      const VertexId v = neighbors_[static_cast<size_t>(i)];
      if (u >= v) continue;  // each undirected edge once
      fnv.MixWord((static_cast<uint64_t>(static_cast<uint32_t>(u)) << 32) |
                  static_cast<uint32_t>(v));
      fnv.MixWord(
          has_edge_labels_
              ? static_cast<uint64_t>(edge_labels_[static_cast<size_t>(i)])
              : 0);
    }
  }
  return fnv.hash();
}

}  // namespace spidermine
