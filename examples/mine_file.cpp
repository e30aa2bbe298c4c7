// Command-line miner: open a MiningSession over a graph file (Stage I runs
// once) and export the top-K patterns of one or more queries.
//
//   $ ./examples/mine_file --input graph.lg --sigma 2 --k 10 --dmax 8 --runs 3 --out patterns.txt
//
// The input format is the LG-style text of graph_io.h ("v <id> <label>" /
// "e <u> <v>"). With no --input, a demo graph is generated so the binary
// is runnable standalone. Patterns are written in pattern_io.h format.
// --runs N issues N queries (seeds seed, seed+1, ...) against the ONE
// cached Stage I spider set and exports the accumulated best patterns —
// the session amortization a one-shot MineOnce() per run cannot give.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "graph/graph_io.h"
#include "pattern/pattern_io.h"
#include "spidermine/closed_filter.h"
#include "spidermine/session.h"

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--input graph.lg] [--out patterns.txt] [options]\n"
      "  --sigma N        minimum support (default 2)\n"
      "  --k N            number of patterns (default 10)\n"
      "  --dmax N         pattern diameter bound (default 8)\n"
      "  --epsilon F      error bound in (0,1) (default 0.1)\n"
      "  --vmin N         large-pattern vertex floor (default |V|/10)\n"
      "  --support NAME   mis-vertex | mis-edge | mni (default mis-vertex)\n"
      "  --restarts N     stage II+III repetitions per query (default 1)\n"
      "  --runs N         queries against the one session (default 1)\n"
      "  --budget SECONDS per-query wall-clock budget (default 120)\n"
      "  --seed N         RNG seed of the first query (default 42)\n"
      "  --closed-only    post-filter to closed patterns\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace spidermine;

  std::string input_path;
  std::string out_path;
  SessionConfig session_config;
  TopKQuery query;
  query.time_budget_seconds = 120;
  query.dmax = 8;
  int runs = 1;
  uint64_t base_seed = 42;
  bool closed_only = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        Usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--input") {
      input_path = next();
    } else if (arg == "--out") {
      out_path = next();
    } else if (arg == "--sigma") {
      session_config.min_support = std::atoll(next());
    } else if (arg == "--k") {
      query.k = std::atoi(next());
    } else if (arg == "--dmax") {
      query.dmax = std::atoi(next());
    } else if (arg == "--epsilon") {
      query.epsilon = std::atof(next());
    } else if (arg == "--vmin") {
      query.vmin = std::atoll(next());
    } else if (arg == "--restarts") {
      query.restarts = std::atoi(next());
    } else if (arg == "--runs") {
      runs = std::atoi(next());
    } else if (arg == "--budget") {
      query.time_budget_seconds = std::atof(next());
    } else if (arg == "--seed") {
      base_seed = static_cast<uint64_t>(std::atoll(next()));
    } else if (arg == "--closed-only") {
      closed_only = true;
    } else if (arg == "--support") {
      std::string name = next();
      if (name == "mis-vertex") {
        query.support_measure = SupportMeasureKind::kGreedyMisVertex;
      } else if (name == "mis-edge") {
        query.support_measure = SupportMeasureKind::kGreedyMisEdge;
      } else if (name == "mni") {
        query.support_measure = SupportMeasureKind::kMinImage;
      } else {
        std::fprintf(stderr, "unknown support measure '%s'\n", name.c_str());
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      Usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag '%s'\n", arg.c_str());
      Usage(argv[0]);
      return 2;
    }
  }

  // Load or synthesize the input network.
  LabeledGraph graph;
  if (!input_path.empty()) {
    Result<LabeledGraph> loaded = LoadGraphText(input_path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::move(loaded).value();
  } else {
    std::fprintf(stderr,
                 "no --input; generating a 400-vertex demo graph with a "
                 "planted pattern\n");
    Rng rng(base_seed);
    GraphBuilder builder = GenerateErdosRenyi(400, 2.0, 30, &rng);
    Pattern planted = RandomConnectedPattern(14, 0.15, 30, &rng);
    PatternInjector injector(&builder);
    if (Status s = injector.Inject(planted, 3, &rng); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    Result<LabeledGraph> built = builder.Build();
    if (!built.ok()) return 1;
    graph = std::move(built).value();
  }
  std::fprintf(stderr, "graph: %lld vertices, %lld edges, %d labels\n",
               static_cast<long long>(graph.NumVertices()),
               static_cast<long long>(graph.NumEdges()),
               static_cast<int>(graph.NumLabels()));

  // One session: Stage I over the file happens here, once.
  Result<MiningSession> session =
      MiningSession::Create(&graph, session_config);
  if (!session.ok()) {
    std::fprintf(stderr, "stage I failed: %s\n",
                 session.status().ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "stage I: %lld spiders in %.2fs (mined once)\n",
               static_cast<long long>(session->stage1_stats().num_spiders),
               session->stage1_stats().stage1_seconds);

  // N queries against the cached store; patterns of all runs accumulate
  // under the engine's own dedup/ordering semantics (AccumulateTopK), so
  // one pattern recovered by every run fills a single top-K slot.
  std::vector<MinedPattern> patterns;
  for (int run = 0; run < (runs < 1 ? 1 : runs); ++run) {
    query.rng_seed = base_seed + static_cast<uint64_t>(run);
    Result<QueryResult> result = session->RunQuery(query);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "query %d (seed=%llu): %zu patterns, M=%lld, %.2fs%s\n",
                 run + 1, static_cast<unsigned long long>(query.rng_seed),
                 result->patterns.size(),
                 static_cast<long long>(result->stats.seed_count_m),
                 result->stats.total_seconds,
                 result->stats.timed_out ? ", budget hit" : "");
    AccumulateTopK(&patterns, std::move(result->patterns), query.k);
  }
  if (closed_only) patterns = FilterToClosed(std::move(patterns));

  std::vector<Pattern> shapes;
  std::vector<int64_t> supports;
  for (const MinedPattern& p : patterns) {
    shapes.push_back(p.pattern);
    supports.push_back(p.support);
  }
  if (!out_path.empty()) {
    if (Status s = SavePatternsText(shapes, out_path, &supports); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  } else {
    std::fputs(PatternsToText(shapes, &supports).c_str(), stdout);
  }
  return 0;
}
