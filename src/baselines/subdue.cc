#include "baselines/subdue.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>

#include "common/timer.h"
#include "pattern/iso_index.h"
#include "support/support_measure.h"

namespace spidermine {

namespace {

/// Bit estimate of a graph's description length: vertex labels plus an
/// edge list (two vertex ids per edge).
double DescriptionLength(double vertices, double edges, double labels) {
  if (vertices < 1) vertices = 1;
  if (labels < 2) labels = 2;
  return vertices * std::log2(labels) +
         2.0 * edges * std::log2(vertices + 1.0);
}

struct Candidate {
  Pattern pattern;
  OccurrenceList embeddings;
  int64_t instances = 0;
  double value = 0.0;
};

double CompressionValue(const LabeledGraph& graph, const Candidate& c) {
  const double n = static_cast<double>(graph.NumVertices());
  const double m = static_cast<double>(graph.NumEdges());
  const double labels = static_cast<double>(graph.NumLabels());
  const double dl_g = DescriptionLength(n, m, labels);
  const double vs = c.pattern.NumVertices();
  const double es = c.pattern.NumEdges();
  const double k = static_cast<double>(c.instances);
  // Collapse every disjoint instance to a single vertex carrying a new
  // label; instance-internal edges disappear.
  const double n_rest = std::max(1.0, n - k * (vs - 1.0));
  const double m_rest = std::max(0.0, m - k * es);
  const double dl_s = DescriptionLength(vs, es, labels);
  double dl_rest = DescriptionLength(n_rest, m_rest, labels + 1.0);
  // Instance bookkeeping: a pointer per occurrence plus re-attachment of
  // the instance's boundary edges (which internal vertex each external
  // edge touched: log2(vs) bits per estimated boundary edge). This is the
  // part of SUBDUE's MDL that makes rare large substructures pay their
  // way -- and the source of its small/high-frequency bias.
  const double avg_degree = n > 0 ? 2.0 * m / n : 0.0;
  const double boundary_edges = vs * std::max(0.0, avg_degree - 1.0);
  dl_rest += k * std::log2(n + 1.0) +
             k * boundary_edges * std::log2(vs + 1.0);
  return dl_g / (dl_s + dl_rest);
}

void EvaluateCandidate(const LabeledGraph& graph, Candidate* c) {
  DedupEmbeddingsByImage(&c->embeddings);
  c->instances = ComputeSupport(SupportMeasureKind::kGreedyMisVertex,
                                c->pattern, c->embeddings);
  c->value = CompressionValue(graph, *c);
}

bool BetterCandidate(const Candidate& a, const Candidate& b) {
  if (a.value != b.value) return a.value > b.value;
  return a.pattern.NumEdges() > b.pattern.NumEdges();
}

/// One-edge extensions by key, each with the ascending edge labels it is
/// realized with.
using Extensions = std::unordered_map<uint64_t, std::vector<EdgeLabelId>>;

void AddExtension(Extensions* extensions, uint64_t key,
                  EdgeLabelId edge_label) {
  std::vector<EdgeLabelId>& labels = (*extensions)[key];
  const auto at = std::lower_bound(labels.begin(), labels.end(), edge_label);
  if (at == labels.end() || *at != edge_label) labels.insert(at, edge_label);
}

}  // namespace

Result<SubdueResult> SubdueDiscover(const LabeledGraph& graph,
                                    const SubdueConfig& config) {
  if (config.beam_width < 1) {
    return Status::InvalidArgument("beam_width must be >= 1");
  }
  SubdueResult result;
  Deadline deadline(config.time_budget_seconds);

  // Initial candidates: single-vertex substructures per label. SUBDUE
  // expands EVERY frequent label at level 0 (the beam truncation applies
  // to grown children), so substructures over rare-but-compressing labels
  // are not lost before they can grow.
  std::vector<Candidate> beam;
  for (LabelId label = 0; label < graph.NumLabels(); ++label) {
    auto vertices = graph.VerticesWithLabel(label);
    if (vertices.size() < 2) continue;
    Candidate c;
    c.pattern.AddVertex(label);
    c.embeddings = OccurrenceList(1);
    for (VertexId v : vertices) c.embeddings.AppendRow()[0] = v;
    EvaluateCandidate(graph, &c);
    beam.push_back(std::move(c));
  }
  std::sort(beam.begin(), beam.end(), BetterCandidate);

  std::vector<Candidate> best = beam;
  IsoSet seen;
  for (const Candidate& c : beam) seen.Insert(c.pattern);

  while (!beam.empty()) {
    if (deadline.Expired()) {
      result.timed_out = true;
      break;
    }
    std::vector<Candidate> children;
    for (const Candidate& parent : beam) {
      if (parent.pattern.NumEdges() >= config.max_substructure_edges) continue;
      if (result.expansions >= config.max_expansions) break;

      // Discover one-edge extensions realizable in the instances.
      Extensions ext_new;
      Extensions ext_internal;
      const Pattern& p = parent.pattern;
      for (OccurrenceList::Row e : parent.embeddings) {
        std::unordered_set<VertexId> image(e.begin(), e.end());
        for (VertexId u = 0; u < p.NumVertices(); ++u) {
          const std::span<const VertexId> neighbors = graph.Neighbors(e[u]);
          for (size_t i = 0; i < neighbors.size(); ++i) {
            if (image.count(neighbors[i])) continue;
            AddExtension(&ext_new,
                         (static_cast<uint64_t>(u) << 32) |
                             static_cast<uint32_t>(graph.Label(neighbors[i])),
                         graph.EdgeLabelAt(e[u], i));
          }
        }
        for (VertexId u = 0; u < p.NumVertices(); ++u) {
          for (VertexId v = u + 1; v < p.NumVertices(); ++v) {
            if (!p.HasEdge(u, v) && graph.HasEdge(e[u], e[v])) {
              AddExtension(&ext_internal,
                           (static_cast<uint64_t>(u) << 32) |
                               static_cast<uint32_t>(v),
                           graph.EdgeLabel(e[u], e[v]));
            }
          }
        }
      }

      auto admit = [&](Candidate&& child) {
        ++result.expansions;
        if (child.embeddings.empty()) return;
        if (!seen.Insert(child.pattern)) return;
        EvaluateCandidate(graph, &child);
        if (child.instances < 2) return;  // repetition is what compresses
        children.push_back(std::move(child));
      };

      for (const auto& [key, edge_labels] : ext_new) {
        const VertexId u = static_cast<VertexId>(key >> 32);
        const LabelId label = static_cast<LabelId>(key & 0xffffffffu);
        for (EdgeLabelId edge_label : edge_labels) {
          if (result.expansions >= config.max_expansions) break;
          Candidate child;
          child.pattern = p;
          VertexId nv = child.pattern.AddVertex(label);
          child.pattern.AddEdge(u, nv, edge_label);
          child.embeddings = OccurrenceList(child.pattern.NumVertices());
          for (OccurrenceList::Row e : parent.embeddings) {
            std::unordered_set<VertexId> image(e.begin(), e.end());
            const std::span<const VertexId> neighbors = graph.Neighbors(e[u]);
            for (size_t i = 0; i < neighbors.size(); ++i) {
              const VertexId x = neighbors[i];
              if (graph.Label(x) != label ||
                  graph.EdgeLabelAt(e[u], i) != edge_label || image.count(x)) {
                continue;
              }
              const std::span<VertexId> extended =
                  child.embeddings.AppendRow();
              std::copy(e.begin(), e.end(), extended.begin());
              extended.back() = x;
              if (static_cast<int64_t>(child.embeddings.size()) >=
                  config.max_embeddings_per_pattern) {
                break;
              }
            }
            if (static_cast<int64_t>(child.embeddings.size()) >=
                config.max_embeddings_per_pattern) {
              break;
            }
          }
          admit(std::move(child));
        }
        if (result.expansions >= config.max_expansions) break;
      }
      for (const auto& [key, edge_labels] : ext_internal) {
        const VertexId u = static_cast<VertexId>(key >> 32);
        const VertexId v = static_cast<VertexId>(key & 0xffffffffu);
        for (EdgeLabelId edge_label : edge_labels) {
          if (result.expansions >= config.max_expansions) break;
          Candidate child;
          child.pattern = p;
          child.pattern.AddEdge(u, v, edge_label);
          child.embeddings = OccurrenceList(child.pattern.NumVertices());
          for (OccurrenceList::Row e : parent.embeddings) {
            if (graph.HasEdge(e[u], e[v]) &&
                graph.EdgeLabel(e[u], e[v]) == edge_label) {
              child.embeddings.Append(e);
            }
          }
          admit(std::move(child));
        }
        if (result.expansions >= config.max_expansions) break;
      }
    }
    if (children.empty()) break;
    std::sort(children.begin(), children.end(), BetterCandidate);
    if (static_cast<int32_t>(children.size()) > config.beam_width) {
      children.resize(static_cast<size_t>(config.beam_width));
    }
    for (const Candidate& c : children) best.push_back(c);
    beam = std::move(children);
    if (result.expansions >= config.max_expansions) break;
  }

  std::sort(best.begin(), best.end(), BetterCandidate);
  if (static_cast<int32_t>(best.size()) > config.max_best) {
    best.resize(static_cast<size_t>(config.max_best));
  }
  for (Candidate& c : best) {
    SubduePattern sp;
    sp.pattern = std::move(c.pattern);
    sp.instances = c.instances;
    sp.value = c.value;
    result.patterns.push_back(std::move(sp));
  }
  return result;
}

}  // namespace spidermine
