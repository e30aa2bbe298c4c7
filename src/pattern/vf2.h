#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "graph/labeled_graph.h"
#include "pattern/embedding.h"
#include "pattern/pattern.h"

/// \file vf2.h
/// Label-aware (sub)graph isomorphism. FindEmbeddings enumerates the
/// embeddings E[P] of a pattern in the network; FindIsomorphism is the exact
/// test (with its vertex map) that the isomorphism-class index
/// (iso_index.h) runs to confirm a key hit. FindIsomorphism and IsSubPattern
/// search the second pattern itself as the host, with no graph built.

namespace spidermine {

/// Options controlling embedding enumeration.
struct Vf2Options {
  /// Stop after this many embeddings (<=0: unlimited).
  int64_t max_embeddings = 0;
  /// Abort the search after visiting this many search-tree states, as a
  /// safety valve on pathological inputs (<=0: unlimited).
  int64_t max_states = 0;
  /// When >= 0, pattern vertex \p anchor_pattern_vertex must map to graph
  /// vertex \p anchor_graph_vertex (used for spider heads).
  VertexId anchor_pattern_vertex = -1;
  VertexId anchor_graph_vertex = -1;
  /// Enumerate label-preserving homomorphisms instead of subgraph
  /// isomorphisms: distinct pattern vertices may share a graph image. Edge
  /// consistency is unchanged (every pattern edge must map to a graph
  /// edge), which on self-loop-free graphs already forbids adjacent
  /// pattern vertices from collapsing onto one image.
  bool homomorphic = false;
  /// Optional candidate source for the first vertex of the matching order
  /// (unused when an anchor is set). Called once with that pattern vertex,
  /// it returns an ascending subsequence of the graph vertices carrying its
  /// label that holds its image in every embedding, or nullopt to scan the
  /// whole label. The roots it drops start no embedding and the ones it
  /// keeps stay in scan order, so the enumeration order and the
  /// max_embeddings cut are those of the scan.
  std::function<std::optional<std::span<const VertexId>>(VertexId)>
      start_roots;
};

/// Statistics of one enumeration run.
struct Vf2Stats {
  int64_t states_visited = 0;
  bool aborted = false;  ///< true when max_states cut the search short
};

/// Invokes \p callback for every embedding of \p pattern in \p graph, in a
/// deterministic order: row[i] = image of pattern vertex i, valid only
/// during the call. The callback returns false to stop enumeration.
/// Requires a connected, non-empty pattern.
Vf2Stats EnumerateEmbeddings(
    const Pattern& pattern, const LabeledGraph& graph,
    const Vf2Options& options,
    const std::function<bool(std::span<const VertexId>)>& callback);

/// Collects the embeddings, in enumeration order, into a list of width
/// pattern.NumVertices() (see EnumerateEmbeddings).
OccurrenceList FindEmbeddings(const Pattern& pattern,
                              const LabeledGraph& graph,
                              const Vf2Options& options = {});

/// True iff at least one embedding exists.
bool ContainsEmbedding(const Pattern& pattern, const LabeledGraph& graph);

/// Exact labeled-graph isomorphism between two patterns (Definition 1):
/// returns a map m with m[u] = the vertex of \p b that vertex u of \p a
/// maps to, preserving vertex labels, edges and edge labels; nullopt when
/// the patterns are not isomorphic. Both patterns must be connected.
std::optional<std::vector<VertexId>> FindIsomorphism(const Pattern& a,
                                                     const Pattern& b);

/// True iff FindIsomorphism(a, b) finds a map.
bool ArePatternsIsomorphic(const Pattern& a, const Pattern& b);

/// True iff \p sub is subgraph-isomorphic to \p super: a label-preserving
/// injective map of sub's vertices into super's that keeps every edge and
/// edge label (not necessarily induced). The empty pattern is a
/// sub-pattern of every pattern; a non-empty \p sub must be connected.
bool IsSubPattern(const Pattern& sub, const Pattern& super);

}  // namespace spidermine
