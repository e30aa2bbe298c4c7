#include "baselines/origami.h"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <unordered_set>

#include "common/rng.h"
#include "common/timer.h"
#include "pattern/iso_index.h"
#include "support/support_measure.h"

namespace spidermine {

namespace {

struct Walk {
  Pattern pattern;
  OccurrenceList embeddings;
};

/// Edge features of a pattern: sorted (label, label) pairs; the similarity
/// of two patterns is the Jaccard coefficient of these feature multisets.
std::vector<uint64_t> EdgeFeatures(const Pattern& p) {
  std::vector<uint64_t> features;
  for (const auto& [u, v] : p.Edges()) {
    LabelId a = p.Label(u);
    LabelId b = p.Label(v);
    if (a > b) std::swap(a, b);
    features.push_back((static_cast<uint64_t>(a) << 32) |
                       static_cast<uint32_t>(b));
  }
  std::sort(features.begin(), features.end());
  return features;
}

double Jaccard(const std::vector<uint64_t>& a,
               const std::vector<uint64_t>& b) {
  size_t i = 0;
  size_t j = 0;
  size_t common = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++common;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t total = a.size() + b.size() - common;
  return total == 0 ? 1.0 : static_cast<double>(common) /
                                static_cast<double>(total);
}

}  // namespace

Result<OrigamiResult> OrigamiMine(const TransactionGraph& txn,
                                  const OrigamiConfig& config) {
  if (config.min_support < 1) {
    return Status::InvalidArgument("min_support must be >= 1");
  }
  const LabeledGraph& graph = txn.graph;
  OrigamiResult result;
  Rng rng(config.seed);
  Deadline deadline(config.time_budget_seconds);
  SupportContext ctx;
  ctx.txn_of_vertex = &txn.txn_of_vertex;

  auto txn_support = [&](const Walk& w) {
    return ComputeSupport(SupportMeasureKind::kTransaction, w.pattern,
                          w.embeddings, ctx);
  };

  // Frequent seed edges: (label, label) kinds with enough transactions.
  struct SeedEdge {
    LabelId a, b;
  };
  std::vector<SeedEdge> seeds;
  {
    std::unordered_map<uint64_t, std::unordered_set<int32_t>> kind_txns;
    for (VertexId v = 0; v < graph.NumVertices(); ++v) {
      for (VertexId u : graph.Neighbors(v)) {
        if (v >= u) continue;
        LabelId a = graph.Label(v);
        LabelId b = graph.Label(u);
        if (a > b) std::swap(a, b);
        kind_txns[(static_cast<uint64_t>(a) << 32) |
                  static_cast<uint32_t>(b)]
            .insert(txn.txn_of_vertex[v]);
      }
    }
    for (const auto& [kind, txns] : kind_txns) {
      if (static_cast<int64_t>(txns.size()) < config.min_support) continue;
      seeds.push_back({static_cast<LabelId>(kind >> 32),
                       static_cast<LabelId>(kind & 0xffffffffu)});
    }
  }
  if (seeds.empty()) return result;

  IsoSet distinct;
  for (int32_t sample = 0; sample < config.num_samples; ++sample) {
    if (deadline.Expired()) {
      result.timed_out = true;
      break;
    }
    // Start from a uniformly random frequent edge kind.
    const SeedEdge seed = seeds[rng.Index(seeds.size())];
    Walk walk;
    walk.pattern.AddVertex(seed.a);
    walk.pattern.AddVertex(seed.b);
    walk.pattern.AddEdge(0, 1);
    walk.embeddings = OccurrenceList(2);
    for (VertexId v : graph.VerticesWithLabel(seed.a)) {
      for (VertexId u : graph.Neighbors(v)) {
        if (graph.Label(u) != seed.b) continue;
        if (seed.a == seed.b && v > u) continue;
        walk.embeddings.Append(std::array{v, u});
        if (static_cast<int64_t>(walk.embeddings.size()) >=
            config.max_embeddings_per_pattern) {
          break;
        }
      }
      if (static_cast<int64_t>(walk.embeddings.size()) >=
          config.max_embeddings_per_pattern) {
        break;
      }
    }
    if (txn_support(walk) < config.min_support) continue;

    // Random walk: pick a random frequent one-edge extension until maximal.
    for (int32_t step = 0; step < config.max_walk_steps; ++step) {
      const Pattern& p = walk.pattern;
      // Candidate extensions from the occurrence list.
      std::vector<uint64_t> ext_new;
      std::vector<uint64_t> ext_internal;
      {
        std::unordered_set<uint64_t> seen_new;
        std::unordered_set<uint64_t> seen_int;
        for (OccurrenceList::Row e : walk.embeddings) {
          std::unordered_set<VertexId> image(e.begin(), e.end());
          for (VertexId u = 0; u < p.NumVertices(); ++u) {
            for (VertexId x : graph.Neighbors(e[u])) {
              if (image.count(x)) continue;
              uint64_t key = (static_cast<uint64_t>(u) << 32) |
                             static_cast<uint32_t>(graph.Label(x));
              if (seen_new.insert(key).second) ext_new.push_back(key);
            }
          }
          for (VertexId u = 0; u < p.NumVertices(); ++u) {
            for (VertexId v = u + 1; v < p.NumVertices(); ++v) {
              if (!p.HasEdge(u, v) && graph.HasEdge(e[u], e[v])) {
                uint64_t key = (static_cast<uint64_t>(u) << 32) |
                               static_cast<uint32_t>(v);
                if (seen_int.insert(key).second) ext_internal.push_back(key);
              }
            }
          }
        }
      }
      // Try candidates in random order; take the first frequent one.
      std::vector<std::pair<bool, uint64_t>> order;
      for (uint64_t k : ext_new) order.emplace_back(true, k);
      for (uint64_t k : ext_internal) order.emplace_back(false, k);
      rng.Shuffle(&order);
      bool extended = false;
      for (const auto& [is_new, key] : order) {
        Walk next;
        next.pattern = p;
        if (is_new) {
          VertexId u = static_cast<VertexId>(key >> 32);
          LabelId label = static_cast<LabelId>(key & 0xffffffffu);
          VertexId nv = next.pattern.AddVertex(label);
          next.pattern.AddEdge(u, nv);
          next.embeddings = OccurrenceList(next.pattern.NumVertices());
          for (OccurrenceList::Row e : walk.embeddings) {
            std::unordered_set<VertexId> image(e.begin(), e.end());
            for (VertexId x : graph.Neighbors(e[u])) {
              if (graph.Label(x) != label || image.count(x)) continue;
              const std::span<VertexId> extended_e =
                  next.embeddings.AppendRow();
              std::copy(e.begin(), e.end(), extended_e.begin());
              extended_e.back() = x;
              if (static_cast<int64_t>(next.embeddings.size()) >=
                  config.max_embeddings_per_pattern) {
                break;
              }
            }
            if (static_cast<int64_t>(next.embeddings.size()) >=
                config.max_embeddings_per_pattern) {
              break;
            }
          }
        } else {
          VertexId u = static_cast<VertexId>(key >> 32);
          VertexId v = static_cast<VertexId>(key & 0xffffffffu);
          next.pattern.AddEdge(u, v);
          next.embeddings = OccurrenceList(next.pattern.NumVertices());
          for (OccurrenceList::Row e : walk.embeddings) {
            if (graph.HasEdge(e[u], e[v])) next.embeddings.Append(e);
          }
        }
        if (txn_support(next) >= config.min_support) {
          walk = std::move(next);
          extended = true;
          break;
        }
      }
      if (!extended) break;  // maximal
    }

    if (!distinct.Insert(walk.pattern)) continue;
    OrigamiPattern op;
    op.support = txn_support(walk);
    op.pattern = std::move(walk.pattern);
    result.sampled.push_back(std::move(op));
  }

  // Greedy alpha-orthogonal selection, scanning in sampling order (the
  // randomized order is part of ORIGAMI's design; small maximal patterns,
  // being sampled more often, dominate the pool).
  std::vector<std::vector<uint64_t>> chosen_features;
  for (const OrigamiPattern& op : result.sampled) {
    if (static_cast<int32_t>(result.representatives.size()) >=
        config.max_representatives) {
      break;
    }
    std::vector<uint64_t> features = EdgeFeatures(op.pattern);
    bool orthogonal = true;
    for (const auto& other : chosen_features) {
      if (Jaccard(features, other) > config.alpha) {
        orthogonal = false;
        break;
      }
    }
    if (!orthogonal) continue;
    chosen_features.push_back(std::move(features));
    result.representatives.push_back(op);
  }
  std::sort(result.representatives.begin(), result.representatives.end(),
            [](const OrigamiPattern& a, const OrigamiPattern& b) {
              return a.pattern.NumEdges() > b.pattern.NumEdges();
            });
  return result;
}

}  // namespace spidermine
