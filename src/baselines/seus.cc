#include "baselines/seus.h"

#include <algorithm>
#include <map>
#include <tuple>

#include "common/timer.h"
#include "pattern/iso_index.h"
#include "pattern/vf2.h"
#include "support/support_measure.h"

namespace spidermine {

namespace {

/// The summary graph: one node per label; edges[(a, b, l)] = number of
/// data edges labeled l between an a-labeled and a b-labeled vertex
/// (a <= b).
struct Summary {
  std::map<std::tuple<LabelId, LabelId, EdgeLabelId>, int64_t> edges;

  int64_t EdgeCount(LabelId a, LabelId b, EdgeLabelId edge_label) const {
    if (a > b) std::swap(a, b);
    auto it = edges.find({a, b, edge_label});
    return it == edges.end() ? 0 : it->second;
  }
};

Summary BuildSummary(const LabeledGraph& graph) {
  Summary s;
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    const std::span<const VertexId> neighbors = graph.Neighbors(v);
    for (size_t i = 0; i < neighbors.size(); ++i) {
      if (v < neighbors[i]) {
        LabelId a = graph.Label(v);
        LabelId b = graph.Label(neighbors[i]);
        if (a > b) std::swap(a, b);
        ++s.edges[{a, b, graph.EdgeLabelAt(v, i)}];
      }
    }
  }
  return s;
}

/// Summary-level support estimate for a candidate pattern: the minimum
/// summary edge count over its edges (an upper bound on any edge-disjoint
/// instance count).
int64_t SummaryEstimate(const Summary& summary, const Pattern& p) {
  int64_t estimate = INT64_MAX;
  for (const Pattern::LabeledEdge& edge : p.LabeledEdges()) {
    estimate = std::min(estimate, summary.EdgeCount(p.Label(edge.u),
                                                    p.Label(edge.v),
                                                    edge.label));
  }
  return estimate == INT64_MAX ? 0 : estimate;
}

}  // namespace

Result<SeusResult> SeusDiscover(const LabeledGraph& graph,
                                const SeusConfig& config) {
  if (config.min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  SeusResult result;
  Deadline deadline(config.time_budget_seconds);
  Summary summary = BuildSummary(graph);

  // Enumerate candidate patterns over the summary: BFS over patterns,
  // extending by any summary edge whose count passes the threshold.
  std::vector<Pattern> frontier;
  IsoSet seen;

  // Level 1: single summary edges.
  for (const auto& [labels, count] : summary.edges) {
    if (count < config.min_support) {
      ++result.candidates_pruned_by_summary;
      continue;
    }
    const auto& [a, b, edge_label] = labels;
    Pattern p;
    p.AddVertex(a);
    p.AddVertex(b);
    p.AddEdge(0, 1, edge_label);
    if (seen.Insert(p)) frontier.push_back(std::move(p));
  }

  std::vector<Pattern> candidates = frontier;
  while (!frontier.empty() &&
         static_cast<int64_t>(candidates.size()) < config.max_candidates) {
    if (deadline.Expired()) {
      result.timed_out = true;
      break;
    }
    std::vector<Pattern> next;
    for (const Pattern& p : frontier) {
      if (p.NumEdges() >= config.max_candidate_edges) continue;
      // Extend at every vertex with every summary-frequent partner label.
      for (VertexId v = 0; v < p.NumVertices(); ++v) {
        for (const auto& [labels, count] : summary.edges) {
          if (count < config.min_support) continue;
          const auto& [a, b, edge_label] = labels;
          LabelId partner;
          if (a == p.Label(v)) {
            partner = b;
          } else if (b == p.Label(v)) {
            partner = a;
          } else {
            continue;
          }
          Pattern q = p;
          VertexId nv = q.AddVertex(partner);
          q.AddEdge(v, nv, edge_label);
          if (SummaryEstimate(summary, q) < config.min_support) {
            ++result.candidates_pruned_by_summary;
            continue;
          }
          if (!seen.Insert(q)) continue;
          candidates.push_back(q);
          next.push_back(std::move(q));
          if (static_cast<int64_t>(candidates.size()) >=
              config.max_candidates) {
            break;
          }
        }
        if (static_cast<int64_t>(candidates.size()) >=
            config.max_candidates) {
          break;
        }
      }
      if (static_cast<int64_t>(candidates.size()) >= config.max_candidates) {
        break;
      }
    }
    frontier = std::move(next);
  }
  result.candidates_enumerated = static_cast<int64_t>(candidates.size());

  // Verification pass against the data graph.
  for (const Pattern& p : candidates) {
    if (deadline.Expired()) {
      result.timed_out = true;
      break;
    }
    Vf2Options options;
    options.max_embeddings = config.max_embeddings_per_pattern;
    options.max_states = 200000;
    OccurrenceList embeddings = FindEmbeddings(p, graph, options);
    DedupEmbeddingsByImage(&embeddings);
    int64_t support = ComputeSupport(SupportMeasureKind::kGreedyMisVertex, p,
                                     embeddings);
    if (support < config.min_support) continue;
    SeusPattern sp;
    sp.pattern = p;
    sp.support = support;
    sp.summary_estimate = SummaryEstimate(summary, p);
    result.patterns.push_back(std::move(sp));
  }
  std::sort(result.patterns.begin(), result.patterns.end(),
            [](const SeusPattern& a, const SeusPattern& b) {
              if (a.support != b.support) return a.support > b.support;
              return a.pattern.NumEdges() > b.pattern.NumEdges();
            });
  return result;
}

}  // namespace spidermine
