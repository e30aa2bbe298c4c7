#include "baselines/grew.h"

#include <algorithm>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "common/timer.h"
#include "pattern/iso_index.h"

namespace spidermine {

namespace {

bool LargerGrewPattern(const GrewPattern& a, const GrewPattern& b) {
  if (a.pattern.NumEdges() != b.pattern.NumEdges()) {
    return a.pattern.NumEdges() > b.pattern.NumEdges();
  }
  return a.support > b.support;
}

/// Where a graph vertex appears: pattern id, embedding index, and the
/// pattern-local vertex it realizes.
struct Occurrence {
  int32_t pattern_id;
  int32_t embedding_idx;
  VertexId pattern_vertex;
};

/// A candidate merge family: connect pattern a at local vertex av with
/// pattern b at local vertex bv by an edge labeled edge_label.
struct MergeDescriptor {
  int32_t a;
  VertexId av;
  int32_t b;
  VertexId bv;
  EdgeLabelId edge_label;
  bool operator<(const MergeDescriptor& o) const {
    return std::tie(a, av, b, bv, edge_label) <
           std::tie(o.a, o.av, o.b, o.bv, o.edge_label);
  }
};

struct MergeInstance {
  int32_t ea;  // embedding index in pattern a
  int32_t eb;  // embedding index in pattern b
};

}  // namespace

Result<GrewResult> GrewDiscover(const LabeledGraph& graph,
                                const GrewConfig& config) {
  if (config.min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  GrewResult result;
  Deadline deadline(config.time_budget_seconds);

  // Level 0: single-vertex patterns for frequent labels; the embeddings
  // (single vertices) are trivially disjoint.
  std::vector<GrewPattern> patterns;
  for (LabelId label = 0; label < graph.NumLabels(); ++label) {
    auto vertices = graph.VerticesWithLabel(label);
    if (static_cast<int64_t>(vertices.size()) < config.min_support) continue;
    GrewPattern p;
    p.pattern.AddVertex(label);
    p.embeddings = OccurrenceList(1);
    for (VertexId v : vertices) p.embeddings.AppendRow()[0] = v;
    p.support = static_cast<int64_t>(p.embeddings.size());
    patterns.push_back(std::move(p));
  }

  IsoSet seen;
  for (const GrewPattern& p : patterns) seen.Insert(p.pattern);

  for (int32_t iter = 0; iter < config.max_iterations; ++iter) {
    if (deadline.Expired()) {
      result.timed_out = true;
      break;
    }
    ++result.iterations;

    // Index every embedding vertex.
    std::unordered_map<VertexId, std::vector<Occurrence>> where;
    for (size_t pid = 0; pid < patterns.size(); ++pid) {
      const GrewPattern& p = patterns[pid];
      for (size_t ei = 0; ei < p.embeddings.size(); ++ei) {
        const OccurrenceList::Row e = p.embeddings[ei];
        for (VertexId pv = 0; pv < p.pattern.NumVertices(); ++pv) {
          where[e[pv]].push_back(Occurrence{static_cast<int32_t>(pid),
                                            static_cast<int32_t>(ei), pv});
        }
      }
    }

    // Collect connection instances per descriptor.
    std::map<MergeDescriptor, std::vector<MergeInstance>> candidates;
    for (VertexId u = 0; u < graph.NumVertices(); ++u) {
      auto iu = where.find(u);
      if (iu == where.end()) continue;
      const std::span<const VertexId> neighbors = graph.Neighbors(u);
      for (size_t i = 0; i < neighbors.size(); ++i) {
        const VertexId v = neighbors[i];
        if (v <= u) continue;
        const EdgeLabelId edge_label = graph.EdgeLabelAt(u, i);
        auto iv = where.find(v);
        if (iv == where.end()) continue;
        for (const Occurrence& oa : iu->second) {
          for (const Occurrence& ob : iv->second) {
            // Only merge distinct embeddings; same-pattern merges (oa.pid
            // == ob.pid) build chains of the same structure.
            if (oa.pattern_id == ob.pattern_id &&
                oa.embedding_idx == ob.embedding_idx) {
              continue;
            }
            // Normalize orientation: smaller pattern id first.
            if (oa.pattern_id < ob.pattern_id ||
                (oa.pattern_id == ob.pattern_id &&
                 oa.pattern_vertex <= ob.pattern_vertex)) {
              candidates[{oa.pattern_id, oa.pattern_vertex, ob.pattern_id,
                          ob.pattern_vertex, edge_label}]
                  .push_back({oa.embedding_idx, ob.embedding_idx});
            } else {
              candidates[{ob.pattern_id, ob.pattern_vertex, oa.pattern_id,
                          oa.pattern_vertex, edge_label}]
                  .push_back({ob.embedding_idx, oa.embedding_idx});
            }
          }
        }
      }
    }

    // Realize frequent descriptors as merged patterns with greedily chosen
    // vertex-disjoint instances.
    std::vector<GrewPattern> merged_patterns;
    for (auto& [desc, instances] : candidates) {
      if (static_cast<int64_t>(instances.size()) < config.min_support) {
        continue;
      }
      const GrewPattern& pa = patterns[desc.a];
      const GrewPattern& pb = patterns[desc.b];
      std::unordered_set<VertexId> used;
      OccurrenceList merged_embeddings(pa.embeddings.width() +
                                       pb.embeddings.width());
      for (const MergeInstance& inst : instances) {
        const OccurrenceList::Row ea = pa.embeddings[inst.ea];
        const OccurrenceList::Row eb = pb.embeddings[inst.eb];
        bool conflict = false;
        for (VertexId x : ea) {
          if (used.count(x)) {
            conflict = true;
            break;
          }
        }
        for (VertexId x : eb) {
          if (conflict) break;
          if (used.count(x)) conflict = true;
        }
        // Also require the two embeddings to be disjoint from each other.
        if (!conflict) {
          std::unordered_set<VertexId> image(ea.begin(), ea.end());
          for (VertexId x : eb) {
            if (image.count(x)) {
              conflict = true;
              break;
            }
          }
        }
        if (conflict) continue;
        for (VertexId x : ea) used.insert(x);
        for (VertexId x : eb) used.insert(x);
        const std::span<VertexId> merged = merged_embeddings.AppendRow();
        std::copy(eb.begin(), eb.end(),
                  std::copy(ea.begin(), ea.end(), merged.begin()));
      }
      if (static_cast<int64_t>(merged_embeddings.size()) <
          config.min_support) {
        continue;
      }
      GrewPattern q;
      q.pattern = pa.pattern;
      VertexId offset = q.pattern.NumVertices();
      for (VertexId v = 0; v < pb.pattern.NumVertices(); ++v) {
        q.pattern.AddVertex(pb.pattern.Label(v));
      }
      for (const Pattern::LabeledEdge& edge : pb.pattern.LabeledEdges()) {
        q.pattern.AddEdge(offset + edge.u, offset + edge.v, edge.label);
      }
      q.pattern.AddEdge(desc.av, offset + desc.bv, desc.edge_label);
      if (!seen.Insert(q.pattern)) continue;
      q.embeddings = std::move(merged_embeddings);
      q.support = static_cast<int64_t>(q.embeddings.size());
      merged_patterns.push_back(std::move(q));
    }
    if (merged_patterns.empty()) break;

    // Retain the best patterns for the next iteration (GREW's greedy,
    // no-guarantee character: everything else is forgotten).
    for (GrewPattern& q : merged_patterns) patterns.push_back(std::move(q));
    std::sort(patterns.begin(), patterns.end(), LargerGrewPattern);
    if (static_cast<int32_t>(patterns.size()) > config.max_patterns) {
      patterns.resize(static_cast<size_t>(config.max_patterns));
    }
  }

  std::sort(patterns.begin(), patterns.end(), LargerGrewPattern);
  result.patterns = std::move(patterns);
  return result;
}

}  // namespace spidermine
