#pragma once

#include <cstdint>
#include <vector>

#include "graph/labeled_graph.h"
#include "pattern/embedding.h"
#include "pattern/pattern.h"
#include "support/support_measure.h"

/// \file closure.h
/// Internal-edge closure: a post-growth refinement recovering pattern edges
/// that outward-only spider growth cannot add.
///
/// The paper's Stage I knows "all the frequent patterns up to a diameter
/// 2r", so an r = 1 spider may carry leaf-leaf edges (a triangle is
/// 1-bounded from any of its vertices) and growth plants such edges the
/// moment the spider is appended. This library's fast Stage I mines *stars*
/// (head + leaf multiset, Appendix B's simplification), which drops
/// leaf-leaf edges; combined with SpiderExtend's Internal Integrity rule
/// ("s contains no new edge connecting two vertices of P") a cycle-closing
/// edge between two already-grown vertices could never enter a pattern.
/// CloseInternalEdges restores those edges after growth: any graph edge
/// present between two pattern-vertex images in enough embeddings is added
/// when the enriched pattern stays frequent. Adding edges can only shrink
/// the diameter, so the Dmax bound is preserved.

namespace spidermine {

/// Greedily adds frequent internal edges to \p pattern.
///
/// Per iteration every non-adjacent pattern-vertex pair (i, j) is scored by
/// the support of the enriched pattern over the embeddings that realize the
/// edge in \p graph; the best pair with support >= \p min_support is
/// applied (embeddings lacking the edge are dropped) and scoring repeats.
/// Deterministic: ties break toward the lexicographically smallest pair.
///
/// \p embeddings is filtered in place to the surviving occurrence list and
/// \p support (when non-null) receives the enriched pattern's support.
/// Returns the number of edges added (0 when the pattern is already closed
/// or no candidate is frequent).
int32_t CloseInternalEdges(const LabeledGraph& graph, Pattern* pattern,
                           OccurrenceList* embeddings,
                           SupportMeasureKind measure, int64_t min_support,
                           int64_t* support = nullptr,
                           const SupportContext& context = {});

}  // namespace spidermine
