#pragma once

#include <cstdint>
#include <vector>

#include "graph/labeled_graph.h"
#include "pattern/embedding.h"

/// \file embedding_list.h
/// Level-wise embedding-list steps of the complete baseline miner
/// (baselines/complete_miner.h): each pattern extension by one edge
/// derives its embeddings from its parent's, instead of searching the
/// network again.

namespace spidermine {

/// Level-extension step: appends to \p out every extension of \p base
/// embeddings mapping a NEW pattern vertex (attached to pattern vertex
/// \p src by an edge labeled \p edge_label, with vertex label
/// \p vertex_label) onto a fresh graph neighbor. Stops once \p out reaches
/// \p max_embeddings (the caller's per-pattern cap) and returns false
/// then, true when the enumeration completed.
bool ExtendEmbeddingsNewVertex(const LabeledGraph& graph,
                               const std::vector<Embedding>& base,
                               VertexId src, EdgeLabelId edge_label,
                               LabelId vertex_label, int64_t max_embeddings,
                               std::vector<Embedding>* out);

/// Internal-edge step: keeps the \p embeddings whose images of pattern
/// vertices \p u and \p v are joined by a graph edge labeled
/// \p edge_label (the embeddings of the pattern with that edge added; the
/// vertex set is unchanged).
std::vector<Embedding> FilterEmbeddingsInternalEdge(
    const LabeledGraph& graph, const std::vector<Embedding>& embeddings,
    VertexId u, VertexId v, EdgeLabelId edge_label);

}  // namespace spidermine
