#pragma once

#include <string>
#include <vector>

#include "common/result.h"
#include "graph/labeled_graph.h"
#include "spidermine/config.h"
#include "spidermine/session.h"
#include "support/support_measure.h"

/// \file txn_adapter.h
/// Graph-transaction setting adapter (paper Sec. 2: "SpiderMine ... can be
/// adapted to graph-transaction setting with no difficulty"). The database
/// is embedded as the disjoint union of its graphs; connected patterns can
/// never straddle two transactions, and support is counted as the number of
/// distinct transactions hit (SupportMeasureKind::kTransaction).
///
/// Beyond the disjoint-union embedding, per-vertex transaction PAYLOADS
/// (Lei et al., "Mining Top-k Sequential Patterns in Database Graphs")
/// attach a transaction id set to every vertex of a single network:
/// LoadVertexTxnMap reads them from disk into the CSR VertexTxnMap that
/// SessionConfig::txn_map serves queries from.

namespace spidermine {

/// A transaction database folded into one graph.
struct TransactionGraph {
  LabeledGraph graph;
  /// Transaction id of every union-graph vertex.
  std::vector<int32_t> txn_of_vertex;
  /// Number of transactions.
  int32_t num_transactions = 0;
};

/// Builds the disjoint union of \p database.
Result<TransactionGraph> BuildTransactionGraph(
    const std::vector<LabeledGraph>& database);

/// Runs SpiderMine (MineOnce) over a transaction database: \p config and
/// \p query are adjusted to transaction support automatically
/// (min_support counts transactions). Conflicting configs are rejected
/// instead of silently overwritten: the query's support_measure must be
/// kTransaction or the struct default (kGreedyMisVertex, which the adapter
/// upgrades), and a caller-set txn_of_vertex must be \p txn's own vector.
Result<QueryResult> MineTransactions(const TransactionGraph& txn,
                                     SessionConfig config, TopKQuery query);

/// Loads per-vertex transaction payloads from a `--txn-map` file: plain
/// text, one `<vertex> <txn_id>` incidence per line, `#` starts a comment,
/// blank lines ignored. Vertices must lie in [0, \p num_vertices) and ids
/// must be >= 0; duplicate incidences collapse. num_transactions becomes
/// max id + 1 (0 for an empty file).
Result<VertexTxnMap> LoadVertexTxnMap(const std::string& path,
                                      int64_t num_vertices);

}  // namespace spidermine
