#include "spidermine/closure.h"

#include <algorithm>
#include <map>
#include <utility>

namespace spidermine {

namespace {

/// One scored closure candidate.
struct Candidate {
  VertexId i = -1;
  VertexId j = -1;
  EdgeLabelId edge_label = 0;
  int64_t support = 0;
  OccurrenceList surviving;
};

}  // namespace

int32_t CloseInternalEdges(const LabeledGraph& graph, Pattern* pattern,
                           OccurrenceList* embeddings,
                           SupportMeasureKind measure, int64_t min_support,
                           int64_t* support, const SupportContext& context) {
  int32_t added = 0;
  if (embeddings->empty()) return 0;
  const int32_t n = pattern->NumVertices();
  // The scored bucket's rows; swapped into the best candidate when it wins.
  OccurrenceList surviving;
  for (;;) {
    Candidate best;
    for (VertexId i = 0; i < n; ++i) {
      for (VertexId j = i + 1; j < n; ++j) {
        if (pattern->HasEdge(i, j)) continue;
        // Embeddings in which the candidate internal edge is realized,
        // bucketed by the graph edge's label: all surviving embeddings of
        // one candidate must realize the same labeled edge. Buckets hold
        // row numbers of *embeddings: most buckets fall below min_support
        // or lose the best-candidate race, so their rows are never copied.
        std::map<EdgeLabelId, std::vector<size_t>> by_label;
        for (size_t e = 0; e < embeddings->size(); ++e) {
          const OccurrenceList::Row emb = (*embeddings)[e];
          if (graph.HasEdge(emb[i], emb[j])) {
            by_label[graph.EdgeLabel(emb[i], emb[j])].push_back(e);
          }
        }
        for (const auto& [edge_label, surviving_idx] : by_label) {
          if (static_cast<int64_t>(surviving_idx.size()) < min_support) {
            continue;
          }
          // Gather only the buckets that reach scoring.
          surviving.Reset(embeddings->width());
          surviving.reserve(surviving_idx.size());
          for (size_t e : surviving_idx) surviving.Append((*embeddings)[e]);
          // Score with the enriched structure: edge-conflict measures need
          // the new edge to exist in the pattern.
          Pattern enriched = *pattern;
          enriched.AddEdge(i, j, edge_label);
          const int64_t s =
              ComputeSupport(measure, enriched, surviving, context);
          if (s < min_support) continue;
          if (s > best.support) {
            best.i = i;
            best.j = j;
            best.edge_label = edge_label;
            best.support = s;
            std::swap(best.surviving, surviving);
          }
        }
      }
    }
    if (best.i < 0) break;
    pattern->AddEdge(best.i, best.j, best.edge_label);
    *embeddings = std::move(best.surviving);
    if (support != nullptr) *support = best.support;
    ++added;
  }
  return added;
}

}  // namespace spidermine
