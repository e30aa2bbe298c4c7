#pragma once

// Shared helpers for the figure/table reproduction harnesses. Each bench
// binary prints a header describing the paper artifact it regenerates,
// then CSV rows of the same series the paper plots. Absolute numbers
// differ from the paper (hardware + Java vs C++); EXPERIMENTS.md records
// the shape comparison.

#include <cstdio>
#include <map>
#include <optional>
#include <string>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/timer.h"
#include "graph/labeled_graph.h"
#include "spidermine/config.h"
#include "spidermine/session.h"

namespace spidermine::bench {

/// Process peak resident set size in bytes (0 when unavailable). Note the
/// value is a process-lifetime high-water mark: within one bench it only
/// ever grows, so report it per run and interpret the first budgeted run's
/// value as the bound of interest.
inline int64_t PeakRssBytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<int64_t>(usage.ru_maxrss);  // bytes on macOS
#else
  return static_cast<int64_t>(usage.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

/// Prints the bench banner.
inline void Banner(const char* artifact, const char* description) {
  std::printf("# === %s ===\n# %s\n", artifact, description);
}

/// Timed one-shot SpiderMine run (MineOnce: Stage I + one query, as the
/// paper's figures time it); returns total seconds and fills \p out.
inline double RunSpiderMine(const LabeledGraph& graph,
                            const SessionConfig& config,
                            const TopKQuery& query, QueryResult* out) {
  WallTimer timer;
  Result<QueryResult> result = MineOnce(&graph, config, query);
  double seconds = timer.ElapsedSeconds();
  if (result.ok()) *out = std::move(result).value();
  return seconds;
}

/// Timed session build (the cold Stage I pass); returns wall seconds and
/// fills \p out on success (nullopt on failure).
inline double BuildMiningSession(const LabeledGraph& graph,
                                 SessionConfig config,
                                 std::optional<MiningSession>* out) {
  WallTimer timer;
  Result<MiningSession> session = MiningSession::Create(&graph, config);
  double seconds = timer.ElapsedSeconds();
  if (session.ok()) {
    out->emplace(std::move(session).value());
  } else {
    std::fprintf(stderr, "session build failed: %s\n",
                 session.status().ToString().c_str());
    out->reset();
  }
  return seconds;
}

/// Timed warm query against an existing session; returns wall seconds and
/// fills \p out. The amortization a session buys over one-shot mining is
/// exactly (cold stage1 seconds) / (this).
inline double RunSessionQuery(MiningSession* session, const TopKQuery& query,
                              QueryResult* out) {
  WallTimer timer;
  Result<QueryResult> result = session->RunQuery(query);
  double seconds = timer.ElapsedSeconds();
  if (result.ok()) {
    *out = std::move(result).value();
  } else {
    std::fprintf(stderr, "query failed: %s\n",
                 result.status().ToString().c_str());
  }
  return seconds;
}

/// Histogram of pattern sizes (key = |V|), as the distribution figures use.
inline std::map<int32_t, int32_t> SizeDistribution(
    const std::vector<MinedPattern>& patterns) {
  std::map<int32_t, int32_t> hist;
  for (const MinedPattern& p : patterns) ++hist[p.NumVertices()];
  return hist;
}

/// Prints a size histogram as rows: algo,size,count.
inline void PrintDistribution(const char* algo,
                              const std::map<int32_t, int32_t>& hist) {
  for (const auto& [size, count] : hist) {
    std::printf("%s,%d,%d\n", algo, size, count);
  }
}

/// Largest |V| over the returned patterns (0 when empty).
inline int32_t LargestVertices(const std::vector<MinedPattern>& patterns) {
  int32_t best = 0;
  for (const MinedPattern& p : patterns) {
    best = std::max(best, p.NumVertices());
  }
  return best;
}

/// Largest |E| over the returned patterns (0 when empty).
inline int32_t LargestEdges(const std::vector<MinedPattern>& patterns) {
  int32_t best = 0;
  for (const MinedPattern& p : patterns) best = std::max(best, p.NumEdges());
  return best;
}

}  // namespace spidermine::bench
