#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

/// \file labeled_graph.h
/// The input-network representation: an immutable vertex-labeled undirected
/// graph in CSR form. This is the "single massive network" G of the paper;
/// patterns (small mutable graphs) live in pattern/pattern.h.

namespace spidermine {

/// Index of a vertex in a LabeledGraph.
using VertexId = int32_t;
/// Integer vertex label (the paper's Sigma = {l1, ..., lk}).
using LabelId = int32_t;
/// Integer edge label. The paper notes its method "can also be applied to
/// graphs with edge labels" (Sec. 3); label 0 is the default for unlabeled
/// edges, so vertex-label-only code paths are unchanged.
using EdgeLabelId = int32_t;

/// An immutable undirected graph whose vertices (and optionally edges)
/// carry labels.
///
/// Neighbor lists are sorted, enabling O(log d) HasEdge and linear-time
/// sorted-merge operations. Construct via GraphBuilder.
class LabeledGraph {
 public:
  LabeledGraph() = default;

  /// Number of vertices |V(G)|.
  int64_t NumVertices() const {
    return static_cast<int64_t>(labels_.size());
  }

  /// Number of undirected edges |E(G)|.
  int64_t NumEdges() const { return num_edges_; }

  /// Label of vertex \p v.
  LabelId Label(VertexId v) const { return labels_[v]; }

  /// Degree of vertex \p v.
  int64_t Degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// Sorted neighbors of vertex \p v.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v],
            static_cast<size_t>(offsets_[v + 1] - offsets_[v])};
  }

  /// True iff the undirected edge {u, v} exists.
  bool HasEdge(VertexId u, VertexId v) const;

  /// Label of the undirected edge {u, v}; 0 for unlabeled edges. Requires
  /// the edge to exist (returns -1 otherwise).
  EdgeLabelId EdgeLabel(VertexId u, VertexId v) const;

  /// Label of the edge to Neighbors(v)[i]: EdgeLabel(v, Neighbors(v)[i])
  /// without its search, for callers already walking the list. 0 on graphs
  /// without edge labels.
  EdgeLabelId EdgeLabelAt(VertexId v, size_t i) const {
    return has_edge_labels_
               ? edge_labels_[static_cast<size_t>(offsets_[v]) + i]
               : 0;
  }

  /// True iff any edge carries a nonzero label.
  bool HasEdgeLabels() const { return has_edge_labels_; }

  /// One plus the largest label id present (labels are dense ids from 0).
  LabelId NumLabels() const { return num_labels_; }

  /// All vertices carrying label \p label (sorted ascending).
  std::span<const VertexId> VerticesWithLabel(LabelId label) const {
    return {by_label_.data() + label_offsets_[label],
            static_cast<size_t>(label_offsets_[label + 1] -
                                label_offsets_[label])};
  }

  /// Count of vertices carrying label \p label.
  int64_t LabelCount(LabelId label) const {
    return label_offsets_[label + 1] - label_offsets_[label];
  }

  /// Deterministic 64-bit content hash over vertex labels, adjacency and
  /// edge labels (FNV-1a). Two graphs with equal hashes are equal with
  /// overwhelming probability; used to bind saved Stage I artifacts to
  /// the exact network they were mined over.
  uint64_t ContentHash() const;

 private:
  friend class GraphBuilder;

  std::vector<int64_t> offsets_;    // size n+1
  std::vector<VertexId> neighbors_; // size 2m, sorted per vertex
  std::vector<EdgeLabelId> edge_labels_;  // size 2m, aligned with neighbors_
  std::vector<LabelId> labels_;     // size n
  bool has_edge_labels_ = false;
  std::vector<int64_t> label_offsets_;  // size num_labels_+1
  std::vector<VertexId> by_label_;      // vertices grouped by label
  int64_t num_edges_ = 0;
  LabelId num_labels_ = 0;
};

}  // namespace spidermine
