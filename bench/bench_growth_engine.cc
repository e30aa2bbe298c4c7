// The embedding-list growth engine vs the per-candidate VF2 closure path
// (the Stage II/III hot path it replaces).
//
// Workload: a sparse 300k-vertex ER graph with planted 16-vertex patterns
// and a wide closure window (k=64 -> 512 candidates). On a graph this size
// every closure candidate's from-scratch VF2 search must filter thousands
// of label-compatible roots, while the carried complete list — maintained
// incrementally through seeding, spider extensions and merge joins — hands
// closure E[P] for free. Growth itself never reads the carried lists, so
// the two modes execute byte-identical Stages II/III; the bench asserts
// the final top-K transcripts match across every mode x thread-count cell
// before reporting a single number.
//
// Metrics: per (threads, budget) the end-to-end query seconds and the
// post-growth seconds (total - stage II - stage III: closure plus the
// mode-independent accumulate/dedup epilogue — attributing the epilogue to
// closure UNDERSTATES the engine's speedup, never inflates it). The
// headline is the post-growth speedup at 8 threads; the acceptance bar is
// >= 2x (exit 2 when the bench runs but misses it).
//
// Output: a single JSON object on stdout (committed as
// BENCH_growth_engine.json by tools/run_bench_trajectory.sh), including the
// core count it was taken on (hardware_concurrency).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/strings.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "pattern/dfs_code.h"
#include "spidermine/session.h"

namespace spidermine::bench {
namespace {

constexpr int32_t kVertices = 300'000;
constexpr double kAvgDegree = 2.0;
constexpr int32_t kLabels = 8;
constexpr int32_t kInjectVertices = 16;
constexpr int32_t kInjectCopies = 4;
constexpr int64_t kSupport = 3;
constexpr int32_t kTopK = 64;  // closure window resolves to 8 * 64 = 512
constexpr int32_t kRestarts = 2;
constexpr int64_t kEngineBudget = 4096;
constexpr int32_t kRepeats = 2;  // per cell; min is reported
constexpr double kBar = 2.0;

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

TopKQuery BenchQuery(int64_t embedding_list_budget) {
  TopKQuery query;
  query.min_support = kSupport;
  query.k = kTopK;
  query.dmax = 4;
  query.rng_seed = 7;
  query.restarts = kRestarts;
  query.embedding_list_budget = embedding_list_budget;
  return query;
}

/// Canonical byte transcript of a result list (minimum DFS codes +
/// supports, in order) — the cross-mode identity check.
std::string Transcript(const std::vector<MinedPattern>& patterns) {
  std::string out;
  for (const MinedPattern& p : patterns) {
    out += StrCat("V=", p.NumVertices(), " E=", p.NumEdges(),
                  " sup=", p.support, " emb=", p.embeddings.size(), " ",
                  DfsCodeToString(MinimumDfsCode(p.pattern)), "\n");
  }
  return out;
}

struct Cell {
  int32_t threads = 0;
  int64_t budget = 0;
  double total_seconds = 0.0;
  double post_growth_seconds = 0.0;
  int64_t emb_carried = 0;
  int64_t vf2_fallbacks = 0;
  int64_t patterns = 0;
};

int Main() {
  std::fprintf(stderr, "building %d-vertex bench graph...\n", kVertices);
  LabeledGraph graph = BuildGraph();

  std::vector<Cell> cells;
  std::string reference_transcript;
  for (int32_t threads : {1, 2, 8}) {
    SessionConfig config;
    config.min_support = kSupport;
    config.num_threads = threads;
    Result<MiningSession> session = MiningSession::Create(&graph, config);
    if (!session.ok()) {
      std::fprintf(stderr, "session: %s\n",
                   session.status().ToString().c_str());
      return 1;
    }
    for (int64_t budget : {int64_t{0}, kEngineBudget}) {
      Cell cell;
      cell.threads = threads;
      cell.budget = budget;
      for (int32_t rep = 0; rep < kRepeats; ++rep) {
        Result<QueryResult> result = session->RunQuery(BenchQuery(budget));
        if (!result.ok()) {
          std::fprintf(stderr, "query: %s\n",
                       result.status().ToString().c_str());
          return 1;
        }
        const MineStats& stats = result->stats;
        const double post_growth = stats.total_seconds -
                                   stats.stage2_seconds -
                                   stats.stage3_seconds;
        if (rep == 0 || stats.total_seconds < cell.total_seconds) {
          cell.total_seconds = stats.total_seconds;
          cell.post_growth_seconds = post_growth;
        }
        cell.emb_carried = stats.emb_carried;
        cell.vf2_fallbacks = stats.vf2_fallbacks;
        cell.patterns = static_cast<int64_t>(result->patterns.size());
        const std::string transcript = Transcript(result->patterns);
        if (reference_transcript.empty()) {
          reference_transcript = transcript;
        } else if (transcript != reference_transcript) {
          std::fprintf(stderr,
                       "TRANSCRIPT MISMATCH at threads=%d budget=%lld — "
                       "modes are not byte-identical\n",
                       threads, static_cast<long long>(budget));
          return 1;
        }
      }
      std::fprintf(stderr,
                   "threads=%d budget=%lld: total=%.3fs post-growth=%.3fs "
                   "carried=%lld fallbacks=%lld\n",
                   threads, static_cast<long long>(budget),
                   cell.total_seconds, cell.post_growth_seconds,
                   static_cast<long long>(cell.emb_carried),
                   static_cast<long long>(cell.vf2_fallbacks));
      cells.push_back(cell);
    }
  }

  auto find = [&cells](int32_t threads, int64_t budget) -> const Cell& {
    for (const Cell& c : cells) {
      if (c.threads == threads && c.budget == budget) return c;
    }
    std::abort();
  };
  auto speedup = [&find](int32_t threads, bool post_growth) {
    const Cell& off = find(threads, 0);
    const Cell& on = find(threads, kEngineBudget);
    const double a = post_growth ? off.post_growth_seconds : off.total_seconds;
    const double b = post_growth ? on.post_growth_seconds : on.total_seconds;
    return b > 0 ? a / b : 0.0;
  };
  const double headline = speedup(8, /*post_growth=*/true);

  std::printf("{\n  \"bench\": \"growth_engine\",\n");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"graph_vertices\": %d,\n  \"k\": %d,\n  \"restarts\": %d,\n",
              kVertices, kTopK, kRestarts);
  std::printf("  \"engine_budget\": %lld,\n",
              static_cast<long long>(kEngineBudget));
  std::printf("  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::printf(
        "    {\"threads\": %d, \"emb_budget\": %lld, "
        "\"total_seconds\": %.6f, \"post_growth_seconds\": %.6f, "
        "\"emb_carried\": %lld, \"vf2_fallbacks\": %lld, "
        "\"patterns\": %lld}%s\n",
        c.threads, static_cast<long long>(c.budget), c.total_seconds,
        c.post_growth_seconds, static_cast<long long>(c.emb_carried),
        static_cast<long long>(c.vf2_fallbacks),
        static_cast<long long>(c.patterns),
        i + 1 < cells.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"post_growth_speedup_1t\": %.2f,\n", speedup(1, true));
  std::printf("  \"post_growth_speedup_2t\": %.2f,\n", speedup(2, true));
  std::printf("  \"post_growth_speedup_8t\": %.2f,\n", headline);
  std::printf("  \"end_to_end_speedup_8t\": %.2f,\n", speedup(8, false));
  std::printf("  \"transcripts_identical_across_modes\": true\n}\n");
  return headline >= kBar ? 0 : 2;  // exit 2 = ran but missed the 2x bar
}

}  // namespace
}  // namespace spidermine::bench

int main() { return spidermine::bench::Main(); }
