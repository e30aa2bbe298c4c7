// The Stage II/III query path end to end, and closure's E[P] search rooted
// at stored-star anchors against the label scan it replaces.
//
// Workload: a sparse 300k-vertex ER graph over 8 labels with planted
// 16-vertex patterns and a wide closure window (k=64 -> 512 candidates).
// Every closure candidate's E[P] search starts from one pattern vertex; a
// label scan filters ~37k label-compatible roots there, while the anchors
// of the stored star around that vertex are a small subset that contains
// every embedding's start.
//
// Metrics: per thread count (1, 2, 8) the end-to-end query seconds, the
// post-growth seconds (total - stage II - stage III: closure plus the
// accumulate/dedup epilogue), the closure search count (rooted + scanned)
// and the heap allocations of one query (`allocations`: calls of the
// global operator new, which this binary alone replaces with a counting
// one; the fewest over the cell's repeats), with the top-K transcript
// required identical across thread counts. Then an A/B over the returned
// patterns: FindEmbeddings with and without the stored-star roots must
// return identical lists, and the headline `rooted_closure_speedup` is the
// scan's summed search time over the rooted one's; the bar is >= 2x (exit
// 2 when the bench runs but misses it).
//
// Output: a single JSON object on stdout (committed as
// BENCH_growth_engine.json by tools/run_bench_trajectory.sh), including the
// core count it was taken on (hardware_concurrency).

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
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
#include "pattern/vf2.h"
#include "spidermine/session.h"

namespace {
std::atomic<int64_t> heap_allocations{0};
}  // namespace

// Counting replacements of the global allocation functions (the array and
// nothrow forms forward to these).
void* operator new(std::size_t size) {
  heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

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
constexpr int32_t kRepeats = 2;    // per cell; min reported
constexpr int32_t kAbRepeats = 5;  // per A/B side; min reported
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

TopKQuery BenchQuery() {
  TopKQuery query;
  query.min_support = kSupport;
  query.k = kTopK;
  query.dmax = 4;
  query.rng_seed = 7;
  query.restarts = kRestarts;
  return query;
}

/// Canonical byte transcript of a result list (minimum DFS codes +
/// supports, in order) — the cross-thread identity check.
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
  int64_t patterns = 0;
  int64_t allocations = 0;  // fewest of one query over the repeats
  MineStats stats;          // of the fastest repeat
};

/// One side of the A/B: every pattern's E[P] search, the way closure runs
/// it, with (\p store non-null) or without the stored-star roots.
struct SearchSide {
  double seconds = 0.0;
  int64_t rooted = 0;
  std::vector<OccurrenceList> lists;
};

/// True iff both sides found the same rows, in the same order.
bool SameLists(const std::vector<OccurrenceList>& a,
               const std::vector<OccurrenceList>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].width() != b[i].width() || a[i].size() != b[i].size()) {
      return false;
    }
    for (size_t r = 0; r < a[i].size(); ++r) {
      if (!std::ranges::equal(a[i][r], b[i][r])) return false;
    }
  }
  return true;
}

SearchSide SearchAll(const LabeledGraph& graph, const SpiderStore* store,
                     const std::vector<MinedPattern>& patterns,
                     int64_t max_embeddings) {
  SearchSide side;
  WallTimer timer;
  for (const MinedPattern& mp : patterns) {
    Vf2Options options;
    options.max_embeddings = max_embeddings;
    if (store != nullptr) {
      options.start_roots = [store, &mp, &side](VertexId v) {
        auto roots = StarRoots(*store, mp.pattern, v, /*homomorphic=*/false);
        if (roots) ++side.rooted;
        return roots;
      };
    }
    side.lists.push_back(FindEmbeddings(mp.pattern, graph, options));
  }
  side.seconds = timer.ElapsedSeconds();
  return side;
}

int Main() {
  std::fprintf(stderr, "building %d-vertex bench graph...\n", kVertices);
  LabeledGraph graph = BuildGraph();
  const TopKQuery query = BenchQuery();

  std::vector<Cell> cells;
  std::string reference_transcript;
  std::vector<MinedPattern> returned;
  std::unique_ptr<MiningSession> last_session;
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
    Cell cell;
    cell.threads = threads;
    for (int32_t rep = 0; rep < kRepeats; ++rep) {
      const int64_t allocations_before = heap_allocations.load();
      Result<QueryResult> result = session->RunQuery(query);
      const int64_t query_allocations =
          heap_allocations.load() - allocations_before;
      if (rep == 0 || query_allocations < cell.allocations) {
        cell.allocations = query_allocations;
      }
      if (!result.ok()) {
        std::fprintf(stderr, "query: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      if (rep == 0 || result->stats.total_seconds < cell.stats.total_seconds) {
        cell.stats = result->stats;
      }
      cell.patterns = static_cast<int64_t>(result->patterns.size());
      const std::string transcript = Transcript(result->patterns);
      if (reference_transcript.empty()) {
        reference_transcript = transcript;
        returned = result->patterns;
      } else if (transcript != reference_transcript) {
        std::fprintf(stderr,
                     "TRANSCRIPT MISMATCH at threads=%d — results are not "
                     "byte-identical across thread counts\n",
                     threads);
        return 1;
      }
    }
    std::fprintf(stderr, "threads=%d: %s\n", threads,
                 cell.stats.ToJson().c_str());
    cells.push_back(cell);
    last_session =
        std::make_unique<MiningSession>(std::move(session).value());
  }

  // ---- A/B over the returned patterns, serial, min of kAbRepeats per
  // side.
  const SpiderStore& store = last_session->store();
  SearchSide scan;
  SearchSide rooted;
  for (int32_t rep = 0; rep < kAbRepeats; ++rep) {
    SearchSide s = SearchAll(graph, nullptr, returned,
                             query.max_embeddings_per_pattern);
    SearchSide r = SearchAll(graph, &store, returned,
                             query.max_embeddings_per_pattern);
    if (!SameLists(r.lists, s.lists)) {
      std::fprintf(stderr,
                   "ROOTED LIST MISMATCH — rooted and scanned searches "
                   "differ\n");
      return 1;
    }
    if (rep == 0 || s.seconds < scan.seconds) scan = std::move(s);
    if (rep == 0 || r.seconds < rooted.seconds) rooted = std::move(r);
  }
  const double speedup =
      rooted.seconds > 0 ? scan.seconds / rooted.seconds : 0.0;
  std::fprintf(stderr, "A/B over %zu patterns: scan=%.3fs rooted=%.3fs\n",
               returned.size(), scan.seconds, rooted.seconds);

  std::printf("{\n  \"bench\": \"growth_engine\",\n");
  std::printf("  \"hardware_concurrency\": %u,\n",
              std::thread::hardware_concurrency());
  std::printf("  \"graph_vertices\": %d,\n  \"k\": %d,\n  \"restarts\": %d,\n",
              kVertices, kTopK, kRestarts);
  std::printf("  \"cells\": [\n");
  for (size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    std::printf(
        "    {\"threads\": %d, \"post_growth_seconds\": %.6f, "
        "\"patterns\": %lld, \"allocations\": %lld, \"stats\": %s}%s\n",
        c.threads,
        c.stats.total_seconds - c.stats.stage2_seconds - c.stats.stage3_seconds,
        static_cast<long long>(c.patterns),
        static_cast<long long>(c.allocations),
        c.stats.ToJson().c_str(), i + 1 < cells.size() ? "," : "");
  }
  std::printf("  ],\n");
  std::printf("  \"ab_patterns\": %zu,\n  \"ab_rooted\": %lld,\n",
              returned.size(), static_cast<long long>(rooted.rooted));
  std::printf("  \"ab_scan_seconds\": %.6f,\n", scan.seconds);
  std::printf("  \"ab_rooted_seconds\": %.6f,\n", rooted.seconds);
  std::printf("  \"rooted_closure_speedup\": %.2f,\n", speedup);
  std::printf("  \"rooted_lists_identical\": true,\n");
  std::printf("  \"transcripts_identical_across_threads\": true\n}\n");
  return speedup >= kBar ? 0 : 2;  // exit 2 = ran but missed the 2x bar
}

}  // namespace
}  // namespace spidermine::bench

int main() { return spidermine::bench::Main(); }
