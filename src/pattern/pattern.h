#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/labeled_graph.h"

/// \file pattern.h
/// A graph pattern: a small mutable vertex-labeled undirected graph. The
/// paper's patterns grow to a few hundred vertices; this representation is
/// CSR (one offsets array, one sorted neighbour buffer, edge labels parallel
/// to it), so copying a pattern costs a few allocations whatever its size,
/// and AddEdge inserts in place.

namespace spidermine {

/// A small mutable labeled graph. Vertex ids are dense 0..n-1 and stable
/// under growth (vertices are never removed).
class Pattern {
 public:
  Pattern() = default;

  /// Creates a single-vertex pattern.
  explicit Pattern(LabelId label) { AddVertex(label); }

  /// Adds a vertex carrying \p label; returns its id.
  VertexId AddVertex(LabelId label);

  /// Adds the undirected edge {u, v} carrying \p edge_label (0 = unlabeled;
  /// paper Sec. 3 extension). Returns false (and changes nothing) for
  /// self-loops and duplicate edges.
  bool AddEdge(VertexId u, VertexId v, EdgeLabelId edge_label = 0);

  /// Label of edge {u, v}; 0 for unlabeled edges, -1 when absent.
  EdgeLabelId EdgeLabel(VertexId u, VertexId v) const;

  /// Label of the edge from \p v to its \p i-th neighbour (Neighbors(v)[i]);
  /// 0 for unlabeled edges. The walk-the-adjacency counterpart of EdgeLabel.
  EdgeLabelId EdgeLabelAt(VertexId v, size_t i) const {
    return has_edge_labels_
               ? edge_labels_[static_cast<size_t>(offsets_[v]) + i]
               : 0;
  }

  /// True iff any edge carries a nonzero label.
  bool HasEdgeLabels() const { return has_edge_labels_; }

  /// Number of vertices.
  int32_t NumVertices() const { return static_cast<int32_t>(labels_.size()); }

  /// Number of edges. The paper's pattern size |P| is this count.
  int32_t NumEdges() const { return num_edges_; }

  /// Label of vertex \p v.
  LabelId Label(VertexId v) const { return labels_[v]; }

  /// Sorted neighbors of \p v.
  std::span<const VertexId> Neighbors(VertexId v) const {
    return {neighbors_.data() + offsets_[v], static_cast<size_t>(Degree(v))};
  }

  /// Degree of \p v.
  int32_t Degree(VertexId v) const { return offsets_[v + 1] - offsets_[v]; }

  /// True iff the undirected edge {u, v} exists.
  bool HasEdge(VertexId u, VertexId v) const;

  /// Hop distances from \p source within the pattern (-1 if unreachable),
  /// truncated at \p max_depth when non-negative.
  std::vector<int32_t> BfsDistances(VertexId source,
                                    int32_t max_depth = -1) const;

  /// True iff the pattern is connected (the empty pattern is connected).
  bool IsConnected() const;

  /// Max over shortest distances between all vertex pairs; the paper's
  /// diam(P). Requires a connected pattern.
  int32_t Diameter() const;

  /// Max distance from \p v to any other vertex (eccentricity). The pattern
  /// is "r-bounded from v" iff Eccentricity(v) <= r (paper Sec. 3).
  int32_t Eccentricity(VertexId v) const;

  /// True iff every vertex is within distance \p r of \p v.
  bool IsRBoundedFrom(VertexId v, int32_t r) const {
    return Eccentricity(v) <= r;
  }

  /// The subgraph induced on \p vertices (in the given order: induced vertex
  /// i corresponds to vertices[i]).
  Pattern InducedSubgraph(std::span<const VertexId> vertices) const;

  /// Sorted multiset of vertex labels, for cheap iso pre-checks.
  std::vector<LabelId> SortedLabels() const;

  /// All edges as (u, v) pairs with u < v, sorted.
  std::vector<std::pair<VertexId, VertexId>> Edges() const;

  /// One labeled edge (u < v).
  struct LabeledEdge {
    VertexId u;
    VertexId v;
    EdgeLabelId label;
  };

  /// All edges with their labels, sorted by (u, v).
  std::vector<LabeledEdge> LabeledEdges() const;

  /// Human-readable dump ("n=3 m=2; labels=[0,1,1]; edges=0-1,0-2").
  std::string ToString() const;

  /// Structural equality under the identity vertex mapping (NOT isomorphism;
  /// see ArePatternsIsomorphic in vf2.h for that).
  bool operator==(const Pattern& other) const;

 private:
  /// Inserts \p v into u's sorted neighbour range, with \p label when the
  /// pattern keeps edge labels, and shifts the later offsets.
  void InsertNeighbor(VertexId u, VertexId v, EdgeLabelId label);

  std::vector<LabelId> labels_;
  /// Neighbors(v) = neighbors_[offsets_[v], offsets_[v + 1]). Empty until
  /// the first AddVertex, NumVertices() + 1 entries from then on.
  std::vector<int32_t> offsets_;
  std::vector<VertexId> neighbors_;
  /// Edge labels parallel to neighbors_ (each edge stored at both ends);
  /// kept only once an edge has a nonzero label (has_edge_labels_), so the
  /// common vertex-label-only path pays nothing.
  std::vector<EdgeLabelId> edge_labels_;
  int32_t num_edges_ = 0;
  bool has_edge_labels_ = false;
};

}  // namespace spidermine
