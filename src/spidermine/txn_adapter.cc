#include "spidermine/txn_adapter.h"

#include <algorithm>
#include <fstream>
#include <sstream>
#include <utility>

#include "common/strings.h"
#include "graph/graph_builder.h"

namespace spidermine {

Result<TransactionGraph> BuildTransactionGraph(
    const std::vector<LabeledGraph>& database) {
  TransactionGraph out;
  GraphBuilder builder;
  for (size_t t = 0; t < database.size(); ++t) {
    const LabeledGraph& g = database[t];
    VertexId base = builder.NumVertices() > 0
                        ? static_cast<VertexId>(builder.NumVertices())
                        : 0;
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      builder.AddVertex(g.Label(v));
      out.txn_of_vertex.push_back(static_cast<int32_t>(t));
    }
    for (VertexId v = 0; v < g.NumVertices(); ++v) {
      for (VertexId u : g.Neighbors(v)) {
        if (v < u) builder.AddEdge(base + v, base + u);
      }
    }
  }
  SM_ASSIGN_OR_RETURN(out.graph, builder.Build());
  out.num_transactions = static_cast<int32_t>(database.size());
  return out;
}

Result<QueryResult> MineTransactions(const TransactionGraph& txn,
                                     SessionConfig config, TopKQuery query) {
  // The adapter mines under transaction support by definition. A caller who
  // explicitly configured a DIFFERENT measure (or a foreign transaction
  // map) is contradicting that; reject instead of silently clobbering.
  if (query.support_measure != SupportMeasureKind::kTransaction &&
      query.support_measure != SupportMeasureKind::kGreedyMisVertex) {
    return Status::InvalidArgument(
        StrCat("MineTransactions mines under the transaction measure; the "
               "query asks for ",
               SupportMeasureName(query.support_measure),
               " (leave support_measure at its default or set it to "
               "transaction)"));
  }
  if (config.txn_of_vertex != nullptr &&
      config.txn_of_vertex != &txn.txn_of_vertex) {
    return Status::InvalidArgument(
        "MineTransactions derives txn_of_vertex from the transaction graph; "
        "the config carries a different transaction map");
  }
  query.support_measure = SupportMeasureKind::kTransaction;
  config.txn_of_vertex = &txn.txn_of_vertex;
  return MineOnce(&txn.graph, config, query);
}

Result<VertexTxnMap> LoadVertexTxnMap(const std::string& path,
                                      int64_t num_vertices) {
  std::ifstream in(path);
  if (!in) return Status::IoError(StrCat("cannot open for read: ", path));

  std::vector<std::pair<VertexId, int32_t>> incidences;
  int32_t max_txn = -1;
  std::string line;
  int64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view stripped = StripAsciiWhitespace(line);
    if (stripped.empty() || stripped[0] == '#') continue;
    std::istringstream fields{std::string(stripped)};
    int64_t v = -1;
    int64_t t = -1;
    fields >> v >> t;
    if (fields.fail() || v < 0 || v >= num_vertices || t < 0 ||
        t > INT32_MAX) {
      return Status::IoError(
          StrCat("line ", line_no, ": expected '<vertex> <txn_id>' with "
                 "vertex in [0, ", num_vertices, ") and txn_id >= 0, got '",
                 stripped, "'"));
    }
    incidences.emplace_back(static_cast<VertexId>(v),
                            static_cast<int32_t>(t));
    max_txn = std::max(max_txn, static_cast<int32_t>(t));
  }
  // CSR pack: sort by (vertex, txn), collapse duplicates, prefix-sum.
  std::sort(incidences.begin(), incidences.end());
  incidences.erase(std::unique(incidences.begin(), incidences.end()),
                   incidences.end());
  VertexTxnMap map;
  map.num_transactions = max_txn + 1;
  map.offsets.assign(static_cast<size_t>(num_vertices) + 1, 0);
  map.txn_ids.reserve(incidences.size());
  for (const auto& [v, t] : incidences) {
    ++map.offsets[static_cast<size_t>(v) + 1];
    map.txn_ids.push_back(t);
  }
  for (size_t i = 1; i < map.offsets.size(); ++i) {
    map.offsets[i] += map.offsets[i - 1];
  }
  return map;
}

}  // namespace spidermine
