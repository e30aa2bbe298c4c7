#include "graph/graph_partition.h"

#include <algorithm>
#include <utility>

#include "common/fnv1a.h"
#include "common/strings.h"
#include "graph/binary_format.h"
#include "graph/graph_builder.h"

namespace spidermine {

namespace {

using binary_format::AppendI32;
using binary_format::AppendI64;
using binary_format::AppendU64;
using binary_format::AppendU8;

}  // namespace

Status PartitionPlan::Validate(int64_t num_vertices) const {
  if (num_partitions < 1) {
    return Status::InvalidArgument(
        StrCat("partition plan needs >= 1 partition, got ", num_partitions));
  }
  if (radius < 1) {
    return Status::InvalidArgument(
        StrCat("partition halo radius must be >= 1, got ", radius));
  }
  if (static_cast<int64_t>(boundaries.size()) != num_partitions + 1) {
    return Status::InvalidArgument(
        StrCat("partition plan has ", boundaries.size(), " boundaries for ",
               num_partitions, " partitions (expected P + 1)"));
  }
  if (boundaries.front() != 0 || boundaries.back() != num_vertices) {
    return Status::InvalidArgument(
        StrCat("partition boundaries must span [0, ", num_vertices,
               "), got [", boundaries.front(), ", ", boundaries.back(),
               ")"));
  }
  for (size_t i = 1; i < boundaries.size(); ++i) {
    if (boundaries[i] <= boundaries[i - 1]) {
      return Status::InvalidArgument(
          StrCat("partition ", i - 1, " is empty or reordered (boundary ",
                 boundaries[i - 1], " -> ", boundaries[i], ")"));
    }
  }
  return Status::Ok();
}

Result<PartitionPlan> MakePartitionPlanFromDegrees(
    std::span<const int64_t> degrees, int32_t num_partitions, int32_t radius,
    bool balance_by_degree) {
  const int64_t n = static_cast<int64_t>(degrees.size());
  if (num_partitions < 1 || num_partitions > n) {
    return Status::InvalidArgument(
        StrCat("need 1 <= partitions <= ", n, " vertices, got ",
               num_partitions));
  }
  if (radius < 1) {
    return Status::InvalidArgument(
        StrCat("partition halo radius must be >= 1, got ", radius));
  }
  // Per-vertex work weight; +1 keeps zero-degree stretches from collapsing
  // into one partition.
  int64_t total = 0;
  for (int64_t v = 0; v < n; ++v) {
    total += 1 + (balance_by_degree ? degrees[static_cast<size_t>(v)] : 0);
  }
  PartitionPlan plan;
  plan.num_partitions = num_partitions;
  plan.radius = radius;
  plan.boundaries.assign(static_cast<size_t>(num_partitions) + 1, 0);
  plan.boundaries.back() = n;
  int64_t cursor = 0;
  int64_t cumulative = 0;
  for (int32_t p = 0; p + 1 < num_partitions; ++p) {
    // Close partition p at the first vertex whose cumulative weight reaches
    // the p+1-th even share, leaving at least one vertex per remaining
    // partition. Pure integer arithmetic: deterministic everywhere.
    const int64_t target =
        total / num_partitions * (p + 1) +
        total % num_partitions * (p + 1) / num_partitions;
    const int64_t hi_limit = n - (num_partitions - p - 1);
    while (cursor < hi_limit &&
           (cursor <= plan.boundaries[static_cast<size_t>(p)] ||
            cumulative < target)) {
      cumulative +=
          1 + (balance_by_degree ? degrees[static_cast<size_t>(cursor)] : 0);
      ++cursor;
    }
    plan.boundaries[static_cast<size_t>(p) + 1] = cursor;
  }
  SM_RETURN_NOT_OK(plan.Validate(n));
  return plan;
}

Result<PartitionPlan> MakePartitionPlan(const LabeledGraph& graph,
                                        int32_t num_partitions,
                                        int32_t radius,
                                        bool balance_by_degree) {
  std::vector<int64_t> degrees(static_cast<size_t>(graph.NumVertices()));
  for (VertexId v = 0; v < graph.NumVertices(); ++v) {
    degrees[static_cast<size_t>(v)] = graph.Degree(v);
  }
  return MakePartitionPlanFromDegrees(degrees, num_partitions, radius,
                                      balance_by_degree);
}

uint64_t GraphPartition::ContentHash() const {
  // The same word fold as LabeledGraph::ContentHash.
  Fnv1a fnv;
  fnv.MixWord(parent_hash);
  fnv.MixWord(static_cast<uint64_t>(parent_num_vertices));
  fnv.MixWord(static_cast<uint64_t>(parent_num_edges));
  fnv.MixWord(static_cast<uint64_t>(num_partitions));
  fnv.MixWord(static_cast<uint64_t>(partition_index));
  fnv.MixWord(static_cast<uint64_t>(radius));
  fnv.MixWord(static_cast<uint64_t>(owned_begin));
  fnv.MixWord(static_cast<uint64_t>(owned_end));
  fnv.MixWord(graph.ContentHash());
  for (VertexId orig : local_to_orig) {
    fnv.MixWord(static_cast<uint64_t>(orig));
  }
  return fnv.hash();
}

Result<GraphPartition> BuildGraphPartition(const LabeledGraph& graph,
                                           const PartitionPlan& plan,
                                           int32_t partition_index) {
  const int64_t n = graph.NumVertices();
  SM_RETURN_NOT_OK(plan.Validate(n));
  if (partition_index < 0 || partition_index >= plan.num_partitions) {
    return Status::InvalidArgument(
        StrCat("partition index ", partition_index, " outside [0, ",
               plan.num_partitions, ")"));
  }

  GraphPartition part;
  part.partition_index = partition_index;
  part.num_partitions = plan.num_partitions;
  part.radius = plan.radius;
  part.owned_begin = plan.boundaries[static_cast<size_t>(partition_index)];
  part.owned_end = plan.boundaries[static_cast<size_t>(partition_index) + 1];
  part.parent_hash = graph.ContentHash();
  part.parent_num_vertices = n;
  part.parent_num_edges = graph.NumEdges();

  // BFS out `radius` hops from the owned range; everything reached beyond
  // it is a ghost. The halo set H = union of owned r-balls, and the
  // partition is the subgraph induced on H, so each owned vertex's r-ball
  // (every shortest path of length <= r stays inside it) is exact.
  std::vector<uint8_t> in_halo(static_cast<size_t>(n), 0);
  std::vector<VertexId> frontier;
  frontier.reserve(static_cast<size_t>(part.num_owned()));
  for (int64_t v = part.owned_begin; v < part.owned_end; ++v) {
    in_halo[static_cast<size_t>(v)] = 1;
    frontier.push_back(static_cast<VertexId>(v));
  }
  std::vector<VertexId> ghosts;
  std::vector<VertexId> next;
  for (int32_t hop = 0; hop < plan.radius && !frontier.empty(); ++hop) {
    next.clear();
    for (VertexId u : frontier) {
      for (VertexId v : graph.Neighbors(u)) {
        if (!in_halo[static_cast<size_t>(v)]) {
          in_halo[static_cast<size_t>(v)] = 1;
          next.push_back(v);
          ghosts.push_back(v);
        }
      }
    }
    frontier.swap(next);
  }
  std::sort(ghosts.begin(), ghosts.end());

  part.local_to_orig.reserve(static_cast<size_t>(part.num_owned()) +
                             ghosts.size());
  for (int64_t v = part.owned_begin; v < part.owned_end; ++v) {
    part.local_to_orig.push_back(static_cast<VertexId>(v));
  }
  part.local_to_orig.insert(part.local_to_orig.end(), ghosts.begin(),
                            ghosts.end());

  std::vector<VertexId> orig_to_local(static_cast<size_t>(n), -1);
  for (size_t local = 0; local < part.local_to_orig.size(); ++local) {
    orig_to_local[static_cast<size_t>(part.local_to_orig[local])] =
        static_cast<VertexId>(local);
  }

  GraphBuilder builder;
  for (VertexId orig : part.local_to_orig) {
    builder.AddVertex(graph.Label(orig));
  }
  for (size_t local = 0; local < part.local_to_orig.size(); ++local) {
    const VertexId orig_u = part.local_to_orig[local];
    for (VertexId orig_v : graph.Neighbors(orig_u)) {
      if (orig_u >= orig_v) continue;  // each undirected edge once
      const VertexId local_v = orig_to_local[static_cast<size_t>(orig_v)];
      if (local_v < 0) continue;  // endpoint outside the halo
      builder.AddEdge(static_cast<VertexId>(local), local_v,
                      graph.HasEdgeLabels() ? graph.EdgeLabel(orig_u, orig_v)
                                            : 0);
    }
  }
  SM_ASSIGN_OR_RETURN(part.graph, builder.Build());
  return part;
}

std::string GraphPartitionToBytes(const GraphPartition& part) {
  std::string payload;
  AppendU64(&payload, part.parent_hash);
  AppendI64(&payload, part.parent_num_vertices);
  AppendI64(&payload, part.parent_num_edges);
  AppendI32(&payload, part.num_partitions);
  AppendI32(&payload, part.partition_index);
  AppendI32(&payload, part.radius);
  AppendI64(&payload, part.owned_begin);
  AppendI64(&payload, part.owned_end);
  const LabeledGraph& g = part.graph;
  AppendI64(&payload, g.NumVertices());
  AppendI64(&payload, g.NumEdges());
  AppendU8(&payload, g.HasEdgeLabels() ? 1 : 0);
  for (VertexId v = 0; v < g.NumVertices(); ++v) {
    AppendI32(&payload, g.Label(v));
  }
  for (VertexId orig : part.local_to_orig) {
    AppendI32(&payload, orig);
  }
  for (VertexId u = 0; u < g.NumVertices(); ++u) {
    for (VertexId v : g.Neighbors(u)) {
      if (u >= v) continue;
      AppendI32(&payload, u);
      AppendI32(&payload, v);
      if (g.HasEdgeLabels()) AppendI32(&payload, g.EdgeLabel(u, v));
    }
  }
  AppendU64(&payload, part.ContentHash());
  return binary_format::WrapPayload(kSmgpMagic, payload, kSmgpFormatVersion);
}

Status SaveGraphPartition(const GraphPartition& part,
                          const std::string& path) {
  return binary_format::WriteFile(path, GraphPartitionToBytes(part));
}

Result<GraphPartition> GraphPartitionFromBytes(const std::string& bytes) {
  SM_ASSIGN_OR_RETURN(
      std::string_view payload,
      binary_format::UnwrapPayload(bytes, kSmgpMagic, kSmgpFormatVersion));
  binary_format::Reader reader(payload);
  GraphPartition part;
  int64_t local_n = 0;
  int64_t local_m = 0;
  uint8_t has_edge_labels = 0;
  if (!reader.ReadU64(&part.parent_hash) ||
      !reader.ReadI64(&part.parent_num_vertices) ||
      !reader.ReadI64(&part.parent_num_edges) ||
      !reader.ReadI32(&part.num_partitions) ||
      !reader.ReadI32(&part.partition_index) ||
      !reader.ReadI32(&part.radius) || !reader.ReadI64(&part.owned_begin) ||
      !reader.ReadI64(&part.owned_end) || !reader.ReadI64(&local_n) ||
      !reader.ReadI64(&local_m) || !reader.ReadU8(&has_edge_labels)) {
    return Status::IoError("smgp payload truncated in the fixed header");
  }
  if (part.num_partitions < 1 || part.partition_index < 0 ||
      part.partition_index >= part.num_partitions || part.radius < 1 ||
      part.parent_num_vertices < 0 || part.parent_num_edges < 0 ||
      part.owned_begin < 0 || part.owned_begin >= part.owned_end ||
      part.owned_end > part.parent_num_vertices || local_n < 0 ||
      local_m < 0 || local_n < part.num_owned()) {
    return Status::IoError("smgp partition geometry out of range");
  }
  GraphBuilder builder;
  for (int64_t v = 0; v < local_n; ++v) {
    int32_t label = -1;
    if (!reader.ReadI32(&label)) {
      return Status::IoError("smgp payload truncated in the label column");
    }
    builder.AddVertex(label);
  }
  part.local_to_orig.resize(static_cast<size_t>(local_n));
  for (int64_t v = 0; v < local_n; ++v) {
    if (!reader.ReadI32(&part.local_to_orig[static_cast<size_t>(v)])) {
      return Status::IoError("smgp payload truncated in the id map");
    }
  }
  for (int64_t e = 0; e < local_m; ++e) {
    int32_t u = -1;
    int32_t v = -1;
    int32_t edge_label = 0;
    if (!reader.ReadI32(&u) || !reader.ReadI32(&v) ||
        (has_edge_labels && !reader.ReadI32(&edge_label))) {
      return Status::IoError("smgp payload truncated in the edge list");
    }
    builder.AddEdge(u, v, edge_label);
  }
  uint64_t stored_hash = 0;
  if (!reader.ReadU64(&stored_hash) || !reader.AtEnd()) {
    return Status::IoError("smgp payload has wrong trailing length");
  }
  SM_ASSIGN_OR_RETURN(part.graph, builder.Build());
  if (part.graph.NumVertices() != local_n ||
      part.graph.NumEdges() != local_m) {
    return Status::IoError(
        "smgp edge list had duplicates or self-loops (invalid writer)");
  }
  // Id-map invariants: owned prefix is exactly [owned_begin, owned_end),
  // ghosts strictly ascending, inside the parent graph, outside the owned
  // range.
  const int64_t num_owned = part.num_owned();
  for (int64_t local = 0; local < local_n; ++local) {
    const VertexId orig = part.local_to_orig[static_cast<size_t>(local)];
    if (local < num_owned) {
      if (orig != part.owned_begin + local) {
        return Status::IoError(
            StrCat("smgp owned id map broken at local ", local));
      }
    } else {
      if (orig < 0 || orig >= part.parent_num_vertices ||
          (orig >= part.owned_begin && orig < part.owned_end) ||
          (local > num_owned &&
           orig <= part.local_to_orig[static_cast<size_t>(local) - 1])) {
        return Status::IoError(
            StrCat("smgp ghost id map broken at local ", local));
      }
    }
  }
  if (part.ContentHash() != stored_hash) {
    return Status::IoError(
        "smgp partition content hash mismatch (partition does not match "
        "its parent graph or was tampered with)");
  }
  return part;
}

Result<GraphPartition> LoadGraphPartition(const std::string& path) {
  SM_ASSIGN_OR_RETURN(std::string bytes, binary_format::ReadFile(path));
  return GraphPartitionFromBytes(bytes);
}

}  // namespace spidermine
