// Query throughput per support measure against one resident session.
//
// The measure is a per-query knob, so one Stage I pass serves every
// workload; what differs is the closure recount — greedy MIS / MNI /
// count over the injective lists, the homomorphic recount (a homomorphic
// VF2 enumeration), and transaction coverage over a
// per-vertex payload map, with and without per-run sampling. This bench
// answers the operator's question "what does switching measures cost?":
// per measure, queries/sec on a 50k-vertex graph, plus the headline
// ratio hom_vs_mni_qps (homomorphic recount vs the same minimum-image
// recount over injective lists).
//
// Determinism rides along: each measure's transcript must be
// byte-identical across repeats (same seed, same session), or the bench
// aborts — a throughput number for a nondeterministic engine is garbage.
//
// Acceptance bar: the homomorphic recount must stay within 5x of the
// mni query rate (ratio >= 0.2) — it shares the growth path and only
// relaxes the final recount, so a collapse here means the closure
// fallback regressed. Exit 2 when the bench runs but misses the bar.
//
// Output: a single JSON object on stdout (committed as
// BENCH_support_measures.json by tools/run_bench_trajectory.sh).

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/timer.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "pattern/dfs_code.h"
#include "spidermine/session.h"
#include "support/support_measure.h"

namespace spidermine::bench {
namespace {

constexpr int32_t kVertices = 50'000;
constexpr double kAvgDegree = 2.0;
constexpr int32_t kLabels = 10;
constexpr int32_t kInjectVertices = 12;
constexpr int32_t kInjectCopies = 4;
constexpr int64_t kSupport = 3;
constexpr int32_t kTopK = 16;
constexpr int32_t kThreads = 0;  // all cores, like a serving deployment
constexpr int32_t kRepeats = 3;
constexpr int64_t kNumTransactions = 64;
constexpr int64_t kTxnSample = 16;
constexpr double kBar = 0.2;  // hom qps >= 0.2 * mni qps

LabeledGraph BuildGraph() {
  Rng rng(11);
  GraphBuilder builder =
      GenerateErdosRenyi(kVertices, kAvgDegree, kLabels, &rng);
  Pattern planted =
      RandomConnectedPattern(kInjectVertices, 0.15, kLabels, &rng);
  PatternInjector injector(&builder);
  if (!injector.Inject(planted, kInjectCopies, &rng).ok()) std::abort();
  return std::move(builder.Build()).value();
}

/// Synthetic per-vertex payloads: vertex v carries transaction v % 64 —
/// deterministic, every transaction populated, non-trivial intersections.
VertexTxnMap BuildTxnMap(int64_t num_vertices) {
  VertexTxnMap map;
  map.num_transactions = kNumTransactions;
  map.offsets.assign(static_cast<size_t>(num_vertices) + 1, 0);
  for (VertexId v = 0; v < num_vertices; ++v) {
    map.txn_ids.push_back(static_cast<int32_t>(v % kNumTransactions));
    map.offsets[static_cast<size_t>(v) + 1] = v + 1;
  }
  return map;
}

std::string Transcript(const std::vector<MinedPattern>& patterns) {
  std::string out;
  for (const MinedPattern& p : patterns) {
    out += StrCat("V=", p.NumVertices(), " E=", p.NumEdges(),
                  " sup=", p.support, " ",
                  DfsCodeToString(MinimumDfsCode(p.pattern)), "\n");
  }
  return out;
}

struct Cell {
  std::string name;
  SupportMeasureKind measure = SupportMeasureKind::kGreedyMisVertex;
  int64_t txn_sample = 0;
  double best_seconds = 0.0;
  double qps = 0.0;
  int64_t patterns = 0;
  MineStats stats = {};  // of the fastest repeat
};

int Main() {
  std::fprintf(stderr, "building %d-vertex bench graph...\n", kVertices);
  LabeledGraph graph = BuildGraph();
  VertexTxnMap txn_map = BuildTxnMap(graph.NumVertices());

  SessionConfig config;
  config.min_support = kSupport;
  config.num_threads = kThreads;
  config.txn_map = &txn_map;
  Result<MiningSession> session = MiningSession::Create(&graph, config);
  if (!session.ok()) {
    std::fprintf(stderr, "session: %s\n", session.status().ToString().c_str());
    return 1;
  }

  std::vector<Cell> cells = {
      {"vertex-mis", SupportMeasureKind::kGreedyMisVertex, 0},
      {"edge-mis", SupportMeasureKind::kGreedyMisEdge, 0},
      {"mni", SupportMeasureKind::kMinImage, 0},
      {"count", SupportMeasureKind::kEmbeddingCount, 0},
      {"homomorphism", SupportMeasureKind::kHomomorphism, 0},
      {"transaction", SupportMeasureKind::kTransaction, 0},
      {"transaction-sampled", SupportMeasureKind::kTransaction, kTxnSample},
  };
  for (Cell& cell : cells) {
    TopKQuery query;
    query.min_support = kSupport;
    query.k = kTopK;
    query.dmax = 4;
    query.rng_seed = 7;
    query.support_measure = cell.measure;
    query.txn_sample = cell.txn_sample;
    // Identical engine caps for every cell, sized so even the count
    // measure — whose inflated supports defeat the frequency pruning
    // that keeps the default frontier small — stays bounded. The ratio
    // compares recount costs, not pruning luck.
    query.seed_count_override = 32;
    query.max_patterns_per_round = 256;
    query.max_embeddings_per_pattern = 4096;
    std::string reference;
    for (int32_t rep = 0; rep < kRepeats; ++rep) {
      WallTimer timer;
      Result<QueryResult> result = session->RunQuery(query);
      const double seconds = timer.ElapsedSeconds();
      if (!result.ok()) {
        std::fprintf(stderr, "query %s: %s\n", cell.name.c_str(),
                     result.status().ToString().c_str());
        return 1;
      }
      const std::string transcript = Transcript(result->patterns);
      if (rep == 0) {
        reference = transcript;
        cell.best_seconds = seconds;
        cell.stats = result->stats;
      } else if (transcript != reference) {
        std::fprintf(stderr,
                     "TRANSCRIPT MISMATCH for %s at repeat %d — the "
                     "measure is not deterministic\n",
                     cell.name.c_str(), rep);
        return 1;
      } else if (seconds < cell.best_seconds) {
        cell.best_seconds = seconds;
        cell.stats = result->stats;
      }
      cell.patterns = static_cast<int64_t>(result->patterns.size());
    }
    cell.qps = cell.best_seconds > 0 ? 1.0 / cell.best_seconds : 0.0;
    std::fprintf(stderr, "%-20s best=%.3fs qps=%.2f patterns=%lld\n",
                 cell.name.c_str(), cell.best_seconds, cell.qps,
                 static_cast<long long>(cell.patterns));
  }

  auto find = [&cells](const std::string& name) -> const Cell& {
    for (const Cell& c : cells) {
      if (c.name == name) return c;
    }
    std::abort();
  };
  const double mni_qps = find("mni").qps;
  const double hom_vs_mni =
      mni_qps > 0 ? find("homomorphism").qps / mni_qps : 0.0;

  std::printf("{\n  \"bench\": \"support_measures\",\n");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"graph_vertices\": %d,\n  \"k\": %d,\n  \"repeats\": %d,\n",
              kVertices, kTopK, kRepeats);
  std::printf("  \"num_transactions\": %lld,\n  \"txn_sample\": %lld,\n",
              static_cast<long long>(kNumTransactions),
              static_cast<long long>(kTxnSample));
  std::printf("  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::printf(
        "    {\"measure\": \"%s\", \"txn_sample\": %lld, "
        "\"best_seconds\": %.6f, \"queries_per_second\": %.3f, "
        "\"patterns\": %lld, \"stats\": %s}%s\n",
        c.name.c_str(), static_cast<long long>(c.txn_sample), c.best_seconds,
        c.qps, static_cast<long long>(c.patterns), c.stats.ToJson().c_str(),
        i + 1 < cells.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"hom_vs_mni_qps_ratio\": %.3f,\n", hom_vs_mni);
  std::printf("  \"transcripts_identical_across_repeats\": true\n}\n");
  return hom_vs_mni >= kBar ? 0 : 2;  // exit 2 = ran but missed the bar
}

}  // namespace
}  // namespace spidermine::bench

int main() { return spidermine::bench::Main(); }
