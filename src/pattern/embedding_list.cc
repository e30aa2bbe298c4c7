#include "pattern/embedding_list.h"

#include <algorithm>

namespace spidermine {

bool ExtendEmbeddingsNewVertex(const LabeledGraph& graph,
                               const std::vector<Embedding>& base,
                               VertexId src, EdgeLabelId edge_label,
                               LabelId vertex_label, int64_t max_embeddings,
                               std::vector<Embedding>* out) {
  for (const Embedding& e : base) {
    const std::vector<VertexId> image = SortedImage(e);
    for (VertexId x : graph.Neighbors(e[static_cast<size_t>(src)])) {
      if (graph.Label(x) != vertex_label ||
          std::binary_search(image.begin(), image.end(), x)) {
        continue;
      }
      if (graph.EdgeLabel(e[static_cast<size_t>(src)], x) != edge_label) {
        continue;
      }
      Embedding extended = e;
      extended.push_back(x);
      out->push_back(std::move(extended));
      if (static_cast<int64_t>(out->size()) >= max_embeddings) return false;
    }
  }
  return true;
}

std::vector<Embedding> FilterEmbeddingsInternalEdge(
    const LabeledGraph& graph, const std::vector<Embedding>& embeddings,
    VertexId u, VertexId v, EdgeLabelId edge_label) {
  std::vector<Embedding> kept;
  for (const Embedding& e : embeddings) {
    const VertexId gu = e[static_cast<size_t>(u)];
    const VertexId gv = e[static_cast<size_t>(v)];
    if (graph.HasEdge(gu, gv) && graph.EdgeLabel(gu, gv) == edge_label) {
      kept.push_back(e);
    }
  }
  return kept;
}

}  // namespace spidermine
