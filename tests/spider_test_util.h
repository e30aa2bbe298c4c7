#pragma once

#include <algorithm>
#include <string>
#include <vector>

#include "common/strings.h"
#include "common/thread_pool.h"
#include "pattern/dfs_code.h"
#include "spider/spider_store.h"
#include "spidermine/session.h"

/// \file spider_test_util.h
/// Shared SpiderStore / mined-result test helpers. Transcripts are compared
/// run-vs-run (never against literal goldens), so every suite must agree on
/// one canonical format — keep the single definitions here.

namespace spidermine {

/// One shared one-thread pool for suites that call the pool-taking library
/// entries (MineStarSpiders, MineStage1Partial, GrowthEngine) without
/// wanting parallelism: every loop runs inline, in order, on the caller.
inline ThreadPool& SerialPool() {
  static ThreadPool pool(1);
  return pool;
}

/// Canonical transcript of a mined pattern list: per-pattern minimum DFS
/// code + support + embedding count, in result order. Two runs with
/// identical transcripts returned the same patterns, supports and ordering.
inline std::string PatternsTranscript(
    const std::vector<MinedPattern>& patterns) {
  std::string out;
  for (const MinedPattern& p : patterns) {
    out += StrCat("V=", p.NumVertices(), " E=", p.NumEdges(),
                  " sup=", p.support, " emb=", p.embeddings.size(), " ",
                  DfsCodeToString(MinimumDfsCode(p.pattern)), "\n");
  }
  return out;
}

/// Canonical text transcript of a mined store (order-sensitive): head
/// label, (edge label, leaf label) pairs, anchors (or just the support
/// when \p with_anchors is false — large-graph suites), closed flag.
inline std::string StoreTranscript(const SpiderStore& store,
                                   bool with_anchors = true) {
  std::string out;
  for (int32_t id = 0; id < static_cast<int32_t>(store.size()); ++id) {
    out += "h" + std::to_string(store.head_label(id));
    for (const SpiderLeafKey& key : store.leaves(id)) {
      out += "," + std::to_string(key.first) + ":" +
             std::to_string(key.second);
    }
    if (with_anchors) {
      out += "|a";
      for (VertexId v : store.anchors(id)) out += std::to_string(v) + ";";
    } else {
      out += "|s" + std::to_string(store.support(id));
    }
    out += store.closed(id) ? "|c" : "|o";
    out += "\n";
  }
  return out;
}

/// Store id of the star (head, leaf-label multiset), or -1 when absent.
inline int32_t FindStar(const SpiderStore& store, LabelId head,
                        std::vector<LabelId> leaves) {
  std::sort(leaves.begin(), leaves.end());
  for (int32_t id = 0; id < static_cast<int32_t>(store.size()); ++id) {
    if (store.head_label(id) != head) continue;
    std::vector<LabelId> labels;
    for (const SpiderLeafKey& key : store.leaves(id)) {
      labels.push_back(key.second);
    }
    std::sort(labels.begin(), labels.end());
    if (labels == leaves) return id;
  }
  return -1;
}

}  // namespace spidermine
