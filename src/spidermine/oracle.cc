#include "spidermine/oracle.h"

#include <algorithm>

#include "baselines/complete_miner.h"

namespace spidermine {

Result<OracleResult> ExactTopKLargest(const LabeledGraph& graph,
                                      const OracleConfig& config) {
  if (config.k <= 0) {
    return Status::InvalidArgument("oracle k must be positive");
  }
  if (config.dmax < 0) {
    return Status::InvalidArgument("oracle dmax must be non-negative");
  }
  // The oracle rides on the complete baseline miner, whose level-extension
  // steps derive each pattern's embeddings from its parent's
  // (baselines/complete_miner.cc).
  CompleteMinerConfig complete;
  complete.min_support = config.min_support;
  complete.support_measure = config.support_measure;
  complete.max_patterns = config.max_patterns;
  complete.max_pattern_edges = config.max_pattern_edges;
  complete.time_budget_seconds = config.time_budget_seconds;
  SM_ASSIGN_OR_RETURN(CompleteMineResult mined,
                      MineComplete(graph, complete));

  OracleResult result;
  result.exact = !mined.aborted;
  // Filter by the diameter bound. Diameter is not monotone under subgraph
  // extension, so it cannot prune enumeration; it is applied post-hoc,
  // which is correct because the complete miner enumerates every frequent
  // connected pattern regardless of diameter.
  for (CompletePattern& candidate : mined.patterns) {
    const int32_t diameter = candidate.pattern.Diameter();
    if (diameter > config.dmax) continue;
    ++result.total_qualifying;
    result.top_k.push_back(OraclePattern{std::move(candidate.pattern),
                                         candidate.support, diameter});
  }
  std::sort(result.top_k.begin(), result.top_k.end(),
            [](const OraclePattern& a, const OraclePattern& b) {
              if (a.pattern.NumEdges() != b.pattern.NumEdges()) {
                return a.pattern.NumEdges() > b.pattern.NumEdges();
              }
              if (a.pattern.NumVertices() != b.pattern.NumVertices()) {
                return a.pattern.NumVertices() > b.pattern.NumVertices();
              }
              return a.support > b.support;
            });
  if (static_cast<int64_t>(result.top_k.size()) > config.k) {
    result.top_k.resize(static_cast<size_t>(config.k));
  }
  return result;
}

}  // namespace spidermine
