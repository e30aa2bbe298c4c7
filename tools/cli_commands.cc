#include "tools/cli_commands.h"

#include <unistd.h>

#include <algorithm>
#include <optional>
#include <type_traits>

#include "baselines/complete_miner.h"
#include "baselines/grew.h"
#include "baselines/seus.h"
#include "baselines/subdue.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "gen/barabasi_albert.h"
#include "gen/callgraph_sim.h"
#include "gen/dblp_sim.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/binary_format.h"
#include "graph/binary_io.h"
#include "graph/degree_stats.h"
#include "graph/graph_io.h"
#include "graph/graph_metrics.h"
#include "graph/graph_partition.h"
#include "spidermine/stage1_partition.h"
#include "spidermine/txn_adapter.h"
#include "spidermine/variants.h"
#include "tools/serve_loop.h"
#include "tools/stage1_workers.h"

namespace spidermine::cli {

namespace {

bool HasExtension(const std::string& path, std::string_view ext) {
  return path.size() >= ext.size() &&
         path.compare(path.size() - ext.size(), ext.size(), ext) == 0;
}

/// Upper clamps for the parallelism flags: values beyond these cannot help
/// (more threads than the machine meaningfully schedules; a grain larger
/// than any vertex list is one shard anyway) and are treated as "as large
/// as useful" rather than an error.
constexpr int64_t kMaxShardGrainFlag = int64_t{1} << 31;

/// Validates `--threads`: negatives are rejected with a clear error,
/// absurdly large values are clamped to 8x the hardware threads (capped at
/// 1024). 0 = all hardware threads.
Result<int32_t> ValidateThreadsFlag(int64_t threads) {
  if (threads < 0) {
    return Status::InvalidArgument(
        StrCat("--threads must be >= 0 (got ", threads,
               "); 0 selects all hardware threads"));
  }
  const int64_t max_threads = std::min<int64_t>(
      1024, 8LL * std::max(1, ThreadPool::DefaultThreads()));
  return static_cast<int32_t>(std::min(threads, max_threads));
}

/// Validates `--shard-grain`: negatives are rejected with a clear error,
/// absurdly large values are clamped. 0 = automatic grain. Mined results
/// are identical at any accepted value.
Result<int64_t> ValidateShardGrainFlag(int64_t grain) {
  if (grain < 0) {
    return Status::InvalidArgument(
        StrCat("--shard-grain must be >= 0 (got ", grain,
               "); 0 selects the automatic vertex-range grain"));
  }
  return std::min(grain, kMaxShardGrainFlag);
}

void PrintPatternRow(std::ostream& out, size_t rank, const Pattern& pattern,
                     int64_t support) {
  out << rank << ". |V|=" << pattern.NumVertices()
      << " |E|=" << pattern.NumEdges() << " support=" << support << "  "
      << pattern.ToString() << "\n";
}

/// Loads the optional `--txn-map` file into \p storage (which the caller
/// keeps alive for the session's lifetime) and returns the borrowed
/// pointer to wire into the config; an empty path yields nullptr.
Result<const VertexTxnMap*> MaybeLoadTxnMap(const std::string& path,
                                            const LabeledGraph& graph,
                                            VertexTxnMap* storage) {
  if (path.empty()) return static_cast<const VertexTxnMap*>(nullptr);
  SM_ASSIGN_OR_RETURN(*storage, LoadVertexTxnMap(path, graph.NumVertices()));
  return static_cast<const VertexTxnMap*>(storage);
}

constexpr char kTxnMapHelp[] =
    "per-vertex transaction payload file ('<vertex> <txn_id>' lines; "
    "enables --measure=transaction on a single network)";

/// The support-measure names of the --measure flag and "measure" key.
constexpr std::pair<std::string_view, SupportMeasureKind> kMeasureNames[] = {
    {"vertex-mis", SupportMeasureKind::kGreedyMisVertex},
    {"edge-mis", SupportMeasureKind::kGreedyMisEdge},
    {"mni", SupportMeasureKind::kMinImage},
    {"count", SupportMeasureKind::kEmbeddingCount},
    {"homomorphism", SupportMeasureKind::kHomomorphism},
    {"transaction", SupportMeasureKind::kTransaction},
};

std::string_view MeasureFlagName(SupportMeasureKind kind) {
  for (const auto& [name, named_kind] : kMeasureNames) {
    if (named_kind == kind) return name;
  }
  return "";
}

/// Every user-settable query parameter, once. Registration order is free:
/// FlagSet::Usage() sorts by name.
constexpr QueryParam kQueryParams[] = {
    {"support",
     "query support threshold (0 = the artifact's mined floor; values "
     "below the floor are rejected)",
     &TopKQuery::min_support, kQueryCommand},
    {"k", "number of top patterns K", &TopKQuery::k},
    {"dmax", "pattern diameter bound Dmax", &TopKQuery::dmax},
    {"epsilon", "error bound epsilon", &TopKQuery::epsilon},
    {"vmin", "minimum large-pattern vertices (0 = |V|/10)", &TopKQuery::vmin},
    {"seed", "rng seed", &TopKQuery::rng_seed},
    {"seed-count", "seed-count override M (0 = paper formula)",
     &TopKQuery::seed_count_override, kServeOnly},
    {"restarts", "independent stage II+III runs", &TopKQuery::restarts},
    {"measure",
     "support measure: vertex-mis | edge-mis | mni | count | homomorphism | "
     "transaction",
     &TopKQuery::support_measure},
    {"txn-sample",
     "count only a per-run uniform sample of this many transactions "
     "(0 = all; requires --measure=transaction)",
     &TopKQuery::txn_sample},
    {"time-budget", "wall-clock budget seconds (0 = off)",
     &TopKQuery::time_budget_seconds},
    {"strict-dmax", "drop results whose diameter exceeds dmax (Definition 2)",
     &TopKQuery::enforce_dmax_on_results},
};

/// Registers the output flags of the tail `mine` and `query` share.
void AddOutputFlags(std::string_view stats_help, FlagSet* flags) {
  flags->AddBool("maximal", false, "keep only maximal patterns")
      .AddBool("variants", false, "print Fig.23-style variant groups")
      .AddBool("stats", false, stats_help)
      .AddString("out", "",
                 "write top patterns to <out>.<rank>.smp (binary pattern "
                 "files; empty = do not save)");
}

/// The output tail `mine` and `query` share: the --maximal filter, the
/// pattern rows under a "top N patterns (<measure> support<header_extra>):"
/// line, --variants, --stats (printing \p stats_text) and --out.
Status PrintQueryOutput(const FlagSet& flags, QueryResult result,
                        std::string_view header_extra,
                        std::string_view stats_text, std::ostream& out) {
  std::vector<MinedPattern> patterns = std::move(result.patterns);
  if (flags.GetBool("maximal")) patterns = FilterMaximal(std::move(patterns));

  out << "top " << patterns.size() << " patterns ("
      << SupportMeasureName(result.stats.support_measure) << " support"
      << header_extra << "):\n";
  for (size_t i = 0; i < patterns.size(); ++i) {
    PrintPatternRow(out, i + 1, patterns[i].pattern, patterns[i].support);
  }
  if (flags.GetBool("variants")) {
    std::vector<VariantGroup> groups = GroupVariants(patterns);
    out << "variant groups:\n" << VariantGroupsToString(patterns, groups);
  }
  if (flags.GetBool("stats")) out << stats_text;
  if (!flags.GetString("out").empty()) {
    const std::string& prefix = flags.GetString("out");
    for (size_t i = 0; i < patterns.size(); ++i) {
      const std::string path = StrCat(prefix, ".", i + 1, ".smp");
      SM_RETURN_NOT_OK(SavePatternBinary(patterns[i].pattern, path));
    }
    out << "wrote " << patterns.size() << " pattern files to " << prefix
        << ".*.smp\n";
  }
  return Status::Ok();
}

}  // namespace

Result<int32_t> CheckedInt32(int64_t value, std::string_view name,
                             std::string_view quote) {
  if (value != static_cast<int32_t>(value)) {
    return Status::InvalidArgument(
        StrCat(quote, name, quote, " is out of range (", value, ")"));
  }
  return static_cast<int32_t>(value);
}

Result<SupportMeasureKind> ParseMeasure(const std::string& name) {
  for (const auto& [flag_name, kind] : kMeasureNames) {
    if (name == flag_name) return kind;
  }
  return Status::InvalidArgument(
      StrCat("unknown measure '", name,
             "' (expected vertex-mis, edge-mis, mni, count, homomorphism "
             "or transaction)"));
}

std::span<const QueryParam> QueryParams() { return kQueryParams; }

const QueryParam* FindQueryParam(std::string_view key) {
  // The serve key naming rule, compared in place: the flag name with every
  // '-' spelled '_'.
  auto same = [](char flag, char k) { return (flag == '-' ? '_' : flag) == k; };
  for (const QueryParam& param : kQueryParams) {
    if (std::ranges::equal(param.flag, key, same)) return &param;
  }
  return nullptr;
}

void AddQueryFlags(QueryCommand command, FlagSet* flags) {
  const TopKQuery defaults;
  for (const QueryParam& param : kQueryParams) {
    if ((param.commands & command) == 0) continue;
    std::visit(
        [&](auto member) {
          using T = std::remove_cvref_t<decltype(defaults.*member)>;
          const T& value = defaults.*member;
          if constexpr (std::is_same_v<T, bool>) {
            flags->AddBool(param.flag, value, param.help);
          } else if constexpr (std::is_same_v<T, double>) {
            flags->AddDouble(param.flag, value, param.help);
          } else if constexpr (std::is_same_v<T, SupportMeasureKind>) {
            flags->AddString(param.flag, MeasureFlagName(value), param.help);
          } else {
            flags->AddInt(param.flag, static_cast<int64_t>(value),
                          param.help);
          }
        },
        param.member);
  }
}

Result<TopKQuery> QueryFromFlags(QueryCommand command, const FlagSet& flags) {
  TopKQuery query;
  for (const QueryParam& param : kQueryParams) {
    if ((param.commands & command) == 0) continue;
    auto read = [&](auto member) -> Status {
      using T = std::remove_cvref_t<decltype(query.*member)>;
      T& field = query.*member;
      if constexpr (std::is_same_v<T, bool>) {
        field = flags.GetBool(param.flag);
      } else if constexpr (std::is_same_v<T, double>) {
        field = flags.GetDouble(param.flag);
      } else if constexpr (std::is_same_v<T, SupportMeasureKind>) {
        SM_ASSIGN_OR_RETURN(field, ParseMeasure(flags.GetString(param.flag)));
      } else if constexpr (std::is_same_v<T, int32_t>) {
        SM_ASSIGN_OR_RETURN(field, CheckedInt32(flags.GetInt(param.flag),
                                                StrCat("--", param.flag)));
      } else {
        field = static_cast<T>(flags.GetInt(param.flag));
      }
      return Status::Ok();
    };
    SM_RETURN_NOT_OK(std::visit(read, param.member));
  }
  return query;
}

Result<LabeledGraph> LoadGraphAuto(const std::string& path) {
  if (HasExtension(path, ".smg")) return LoadGraphBinary(path);
  return LoadGraphText(path);
}

Status SaveGraphAuto(const LabeledGraph& graph, const std::string& path) {
  if (HasExtension(path, ".smg")) return SaveGraphBinary(graph, path);
  return SaveGraphText(graph, path);
}

Status CmdGen(const std::vector<std::string>& args, std::ostream& out) {
  FlagSet flags("spidermine gen",
                "generate a synthetic network and write it to --out");
  flags.AddString("model", "er", "er | ba | dblp | jeti")
      .AddInt("vertices", 1000, "vertex count (er/ba)")
      .AddDouble("avg-degree", 3.0, "average degree (er)")
      .AddInt("ba-edges", 2, "edges per new vertex (ba)")
      .AddInt("labels", 20, "number of vertex labels (er/ba)")
      .AddInt("seed", 42, "rng seed")
      .AddInt("inject-vertices", 0, "plant a pattern with this many vertices")
      .AddInt("inject-count", 2, "number of planted embeddings")
      .AddInt("inject-diameter", 4, "planted pattern diameter bound")
      .AddString("out", "", "output path (.smg binary, otherwise LG text)");
  SM_RETURN_NOT_OK(flags.Parse(args));
  const std::string out_path = flags.GetString("out");
  if (out_path.empty()) {
    return Status::InvalidArgument(StrCat("--out is required\n", flags.Usage()));
  }

  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  const std::string model = flags.GetString("model");
  LabeledGraph graph;
  if (model == "er" || model == "ba") {
    GraphBuilder builder =
        model == "er"
            ? GenerateErdosRenyi(flags.GetInt("vertices"),
                                 flags.GetDouble("avg-degree"),
                                 static_cast<LabelId>(flags.GetInt("labels")),
                                 &rng)
            : GenerateBarabasiAlbert(
                  flags.GetInt("vertices"),
                  static_cast<int32_t>(flags.GetInt("ba-edges")),
                  static_cast<LabelId>(flags.GetInt("labels")), &rng);
    if (flags.GetInt("inject-vertices") > 0) {
      Pattern planted = RandomPatternWithDiameter(
          static_cast<int32_t>(flags.GetInt("inject-vertices")),
          static_cast<int32_t>(flags.GetInt("inject-diameter")),
          static_cast<LabelId>(flags.GetInt("labels")), &rng);
      PatternInjector injector(&builder);
      SM_RETURN_NOT_OK(injector.Inject(
          planted, static_cast<int32_t>(flags.GetInt("inject-count")), &rng));
      out << "injected pattern: |V|=" << planted.NumVertices()
          << " |E|=" << planted.NumEdges() << " x"
          << flags.GetInt("inject-count") << "\n";
    }
    SM_ASSIGN_OR_RETURN(graph, builder.Build());
  } else if (model == "dblp") {
    DblpSimConfig config;
    config.seed = static_cast<uint64_t>(flags.GetInt("seed"));
    SM_ASSIGN_OR_RETURN(DblpDataset dataset, GenerateDblpSim(config));
    graph = std::move(dataset.graph);
  } else if (model == "jeti") {
    CallGraphSimConfig config;
    SM_ASSIGN_OR_RETURN(CallGraphDataset dataset,
                        GenerateCallGraphSim(config));
    graph = std::move(dataset.graph);
  } else {
    return Status::InvalidArgument(
        StrCat("unknown model '", model, "' (expected er, ba, dblp, jeti)"));
  }

  SM_RETURN_NOT_OK(SaveGraphAuto(graph, out_path));
  out << "wrote " << out_path << ": |V|=" << graph.NumVertices()
      << " |E|=" << graph.NumEdges() << " labels=" << graph.NumLabels()
      << "\n";
  return Status::Ok();
}

Status CmdStats(const std::vector<std::string>& args, std::ostream& out) {
  FlagSet flags("spidermine stats", "print structural statistics of a graph");
  flags.AddInt("diameter-sources", 32,
               "BFS sources for the effective-diameter estimate (0 skips)")
      .AddInt("seed", 1, "rng seed for sampling");
  SM_RETURN_NOT_OK(flags.Parse(args));
  if (flags.positional().size() != 1) {
    return Status::InvalidArgument(
        StrCat("expected exactly one graph file\n", flags.Usage()));
  }
  SM_ASSIGN_OR_RETURN(LabeledGraph graph,
                      LoadGraphAuto(flags.positional()[0]));
  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  GraphSummary summary =
      Summarize(graph, &rng,
                static_cast<int32_t>(flags.GetInt("diameter-sources")));
  out << summary.ToString();
  DegreeStats degrees = ComputeDegreeStats(graph);
  out << "degree min/avg/max: " << degrees.min << "/" << degrees.average
      << "/" << degrees.max << "\n";
  return Status::Ok();
}

Status CmdMine(const std::vector<std::string>& args, std::ostream& out) {
  FlagSet flags("spidermine mine", "run SpiderMine over a graph file");
  flags.AddInt("support", 2, "support threshold sigma")
      .AddInt("threads", 1,
              "worker threads for all stages (0 = all cores); results are "
              "identical at any value")
      .AddInt("shard-grain", 0,
              "Stage I vertex-range shard grain (0 = auto); results are "
              "identical at any value")
      .AddString("txn-map", "", kTxnMapHelp);
  AddQueryFlags(kMineCommand, &flags);
  AddOutputFlags("print mining statistics", &flags);
  SM_RETURN_NOT_OK(flags.Parse(args));
  if (flags.positional().size() != 1) {
    return Status::InvalidArgument(
        StrCat("expected exactly one graph file\n", flags.Usage()));
  }
  SM_ASSIGN_OR_RETURN(LabeledGraph graph,
                      LoadGraphAuto(flags.positional()[0]));

  SessionConfig config;
  config.min_support = flags.GetInt("support");
  SM_ASSIGN_OR_RETURN(config.num_threads,
                      ValidateThreadsFlag(flags.GetInt("threads")));
  SM_ASSIGN_OR_RETURN(config.stage1_shard_grain,
                      ValidateShardGrainFlag(flags.GetInt("shard-grain")));
  SM_ASSIGN_OR_RETURN(TopKQuery query, QueryFromFlags(kMineCommand, flags));
  VertexTxnMap txn_map_storage;  // must outlive MineOnce()
  SM_ASSIGN_OR_RETURN(
      config.txn_map,
      MaybeLoadTxnMap(flags.GetString("txn-map"), graph, &txn_map_storage));

  // `mine` is the one-shot path; the session lifecycle is served by
  // `stage1` / `query` / `serve`.
  SM_ASSIGN_OR_RETURN(QueryResult result, MineOnce(&graph, config, query));
  const std::string stats_text = result.stats.ToString();
  return PrintQueryOutput(flags, std::move(result), "", stats_text, out);
}

Status CmdStage1(const std::vector<std::string>& args, std::ostream& out) {
  FlagSet flags("spidermine stage1",
                "mine the Stage I spider set once and save it to --out; "
                "`query` then answers top-K requests without re-mining");
  flags.AddInt("support", 2, "support floor sigma of the mined spider set")
      .AddInt("max-leaves", 8, "max leaves per star spider")
      .AddInt("max-spiders", 0, "global spider budget (0 = unlimited)")
      .AddInt("threads", 1,
              "worker threads (0 = all cores); results are identical at "
              "any value")
      .AddInt("shard-grain", 0,
              "Stage I vertex-range shard grain (0 = auto); results are "
              "identical at any value")
      .AddDouble("time-budget", 0.0,
                 "Stage I wall-clock budget seconds (0 = off); an expired "
                 "budget saves a truncated but usable artifact; "
                 "incompatible with --workers")
      .AddInt("workers", 0,
              "mine out-of-core via N concurrent worker PROCESSES over "
              "graph partitions (0 = in-process); the artifact is "
              "byte-identical either way, but no worker ever holds the "
              "whole graph")
      .AddInt("partitions", 0,
              "graph partitions in --workers mode (0 = one per worker); "
              "more partitions than workers bounds per-worker memory "
              "further")
      .AddString("parts-dir", "",
                 "scratch directory for the .smgp/.sm2p intermediates "
                 "(default <out>.parts; removed after a successful merge)")
      .AddBool("keep-parts", false,
               "keep the partition/partial scratch files after the merge")
      .AddString("worker-binary", "",
                 "binary worker processes exec (default: this binary, via "
                 "$SPIDERMINE_CLI_BIN or /proc/self/exe)")
      .AddBool("stats", false, "print Stage I statistics")
      .AddString("out", "",
                 "artifact output path (conventionally .sm2; written in "
                 "the zero-copy mmap format of docs/FORMATS.md)");
  SM_RETURN_NOT_OK(flags.Parse(args));
  if (flags.positional().size() != 1) {
    return Status::InvalidArgument(
        StrCat("expected exactly one graph file\n", flags.Usage()));
  }
  const std::string out_path = flags.GetString("out");
  if (out_path.empty()) {
    return Status::InvalidArgument(
        StrCat("--out is required\n", flags.Usage()));
  }

  const int64_t workers = flags.GetInt("workers");
  const int64_t partitions = flags.GetInt("partitions");
  if (workers < 0 || workers > 1024 || partitions < 0 ||
      partitions > 1 << 20) {
    return Status::InvalidArgument(
        StrCat("--workers must be in [0, 1024] and --partitions in [0, "
               "1048576] (got ",
               workers, " / ", partitions, ")"));
  }
  if (workers == 0 &&
      (partitions > 0 || flags.GetBool("keep-parts") ||
       !flags.GetString("parts-dir").empty() ||
       !flags.GetString("worker-binary").empty())) {
    return Status::InvalidArgument(
        "--partitions/--parts-dir/--keep-parts/--worker-binary require "
        "--workers >= 1");
  }
  SM_ASSIGN_OR_RETURN(
      const int32_t max_leaves,
      CheckedInt32(flags.GetInt("max-leaves"), "--max-leaves"));
  if (workers > 0) {
    if (flags.WasSet("time-budget")) {
      return Status::InvalidArgument(
          "--time-budget cannot be combined with --workers: a wall-clock "
          "cutoff is nondeterministic across processes and the merged "
          "artifact must be exact; budget the run with --max-spiders "
          "instead");
    }
    PartitionedStage1Options options;
    options.num_workers = static_cast<int32_t>(workers);
    options.num_partitions = static_cast<int32_t>(partitions);
    options.min_support = flags.GetInt("support");
    options.max_star_leaves = max_leaves;
    options.max_spiders = flags.GetInt("max-spiders");
    SM_ASSIGN_OR_RETURN(options.worker_threads,
                        ValidateThreadsFlag(flags.GetInt("threads")));
    SM_ASSIGN_OR_RETURN(options.shard_grain,
                        ValidateShardGrainFlag(flags.GetInt("shard-grain")));
    options.parts_dir = flags.GetString("parts-dir");
    options.keep_parts = flags.GetBool("keep-parts");
    options.worker_binary = flags.GetString("worker-binary");
    SM_ASSIGN_OR_RETURN(
        PartitionedStage1Stats stats,
        RunPartitionedStage1(flags.positional()[0], out_path, options, {},
                             flags.GetBool("stats") ? &out : nullptr));
    out << "stage1: merged " << stats.merged_spiders << " spiders from "
        << stats.num_partitions << " partitions via " << workers
        << " workers" << (stats.truncated ? " (truncated)" : "")
        << "; wrote " << out_path << "\n";
    return Status::Ok();
  }
  SM_ASSIGN_OR_RETURN(LabeledGraph graph,
                      LoadGraphAuto(flags.positional()[0]));

  SessionConfig config;
  config.min_support = flags.GetInt("support");
  config.max_star_leaves = max_leaves;
  config.max_spiders = flags.GetInt("max-spiders");
  SM_ASSIGN_OR_RETURN(config.num_threads,
                      ValidateThreadsFlag(flags.GetInt("threads")));
  SM_ASSIGN_OR_RETURN(config.stage1_shard_grain,
                      ValidateShardGrainFlag(flags.GetInt("shard-grain")));
  config.stage1_time_budget_seconds = flags.GetDouble("time-budget");

  SM_ASSIGN_OR_RETURN(MiningSession session,
                      MiningSession::Create(&graph, config));
  SM_RETURN_NOT_OK(session.SaveStage1(out_path));
  const MineStats& stats = session.stage1_stats();
  out << "stage1: mined " << stats.num_spiders << " spiders ("
      << stats.num_closed_spiders << " closed) in " << stats.stage1_seconds
      << "s" << (session.stage1_truncated() ? " (truncated)" : "")
      << "; wrote " << out_path << " ("
      << stats.stage1_store_bytes / 1024 << " KiB store)\n";
  if (flags.GetBool("stats")) out << stats.StageOneLine();
  return Status::Ok();
}

Status CmdPartition(const std::vector<std::string>& args,
                    std::ostream& out) {
  FlagSet flags("spidermine partition",
                "cut a graph into vertex-range partitions with r-hop "
                "halos (the manual first step of the out-of-core Stage I "
                "pipeline; `stage1 --workers` runs all three steps)");
  flags.AddInt("parts", 2, "number of partitions")
      .AddInt("radius", 1,
              "halo radius in hops; must cover the radius of what is "
              "mined per partition (1 for Stage I star spiders)")
      .AddBool("uniform", false,
               "balance partitions by vertex count instead of by degree "
               "(degree balancing approximates equal edge work)")
      .AddString("out", "", "output prefix; writes <out>.<i>.smgp");
  SM_RETURN_NOT_OK(flags.Parse(args));
  if (flags.positional().size() != 1) {
    return Status::InvalidArgument(
        StrCat("expected exactly one graph file\n", flags.Usage()));
  }
  const std::string prefix = flags.GetString("out");
  if (prefix.empty()) {
    return Status::InvalidArgument(
        StrCat("--out is required\n", flags.Usage()));
  }
  SM_ASSIGN_OR_RETURN(LabeledGraph graph,
                      LoadGraphAuto(flags.positional()[0]));
  SM_ASSIGN_OR_RETURN(
      PartitionPlan plan,
      MakePartitionPlan(graph, static_cast<int32_t>(flags.GetInt("parts")),
                        static_cast<int32_t>(flags.GetInt("radius")),
                        !flags.GetBool("uniform")));
  int64_t total_ghosts = 0;
  for (int32_t p = 0; p < plan.num_partitions; ++p) {
    SM_ASSIGN_OR_RETURN(GraphPartition part,
                        BuildGraphPartition(graph, plan, p));
    const std::string path = StrCat(prefix, ".", p, ".smgp");
    SM_RETURN_NOT_OK(SaveGraphPartition(part, path));
    out << "  part " << p << ": owned [" << part.owned_begin << ", "
        << part.owned_end << ") + " << part.num_ghosts()
        << " ghosts -> " << path << "\n";
    total_ghosts += part.num_ghosts();
  }
  out << "partition: wrote " << plan.num_partitions
      << " partitions (radius " << plan.radius << ") covering "
      << graph.NumVertices() << " vertices; " << total_ghosts
      << " ghosts total ("
      << (graph.NumVertices() > 0
              ? 100.0 * static_cast<double>(total_ghosts) /
                    static_cast<double>(graph.NumVertices())
              : 0.0)
      << "% replication)\n";
  return Status::Ok();
}

Status CmdStage1Part(const std::vector<std::string>& args,
                     std::ostream& out) {
  FlagSet flags("spidermine stage1-part",
                "mine ONE partition's Stage I contribution into a .sm2p "
                "partial (the worker step of `stage1 --workers`; sigma "
                "and --max-spiders are recorded but applied at merge)");
  flags.AddInt("support", 2, "global support floor sigma (merge-time)")
      .AddInt("max-leaves", 8, "max leaves per star spider")
      .AddInt("max-spiders", 0,
              "global spider budget (0 = unlimited; merge-time)")
      .AddInt("threads", 1,
              "worker threads (0 = all cores); results are identical at "
              "any value")
      .AddInt("shard-grain", 0,
              "Stage I vertex-range shard grain (0 = auto); results are "
              "identical at any value")
      .AddString("out", "", "partial output path (conventionally .sm2p)");
  SM_RETURN_NOT_OK(flags.Parse(args));
  if (flags.positional().size() != 1) {
    return Status::InvalidArgument(
        StrCat("expected exactly one .smgp partition file\n",
               flags.Usage()));
  }
  const std::string out_path = flags.GetString("out");
  if (out_path.empty()) {
    return Status::InvalidArgument(
        StrCat("--out is required\n", flags.Usage()));
  }
  SM_ASSIGN_OR_RETURN(GraphPartition part,
                      LoadGraphPartition(flags.positional()[0]));

  Stage1PartialConfig config;
  config.min_support = flags.GetInt("support");
  SM_ASSIGN_OR_RETURN(
      config.max_star_leaves,
      CheckedInt32(flags.GetInt("max-leaves"), "--max-leaves"));
  config.max_spiders = flags.GetInt("max-spiders");
  SM_ASSIGN_OR_RETURN(config.shard_grain,
                      ValidateShardGrainFlag(flags.GetInt("shard-grain")));
  SM_ASSIGN_OR_RETURN(const int32_t threads,
                      ValidateThreadsFlag(flags.GetInt("threads")));
  ThreadPool pool(threads > 0 ? threads : ThreadPool::DefaultThreads());
  SM_ASSIGN_OR_RETURN(Stage1PartialResult result,
                      MineStage1Partial(part, config, pool));

  SM_RETURN_NOT_OK(SaveStage1Partial(result.store, result.meta, out_path));
  out << "stage1-part: partition " << part.partition_index << "/"
      << part.num_partitions << " mined " << result.store.size()
      << " owned-anchor stars (" << result.local_stars
      << " enumerated locally); wrote " << out_path << "\n";
  return Status::Ok();
}

Status CmdStage1Merge(const std::vector<std::string>& args,
                      std::ostream& out) {
  FlagSet flags("spidermine stage1-merge",
                "fold all .sm2p partials of one partitioned run into the "
                "final .sm2, byte-identical to a single-process `stage1`");
  flags.AddString("out", "",
                  "artifact output path (conventionally .sm2)");
  SM_RETURN_NOT_OK(flags.Parse(args));
  if (flags.positional().empty()) {
    return Status::InvalidArgument(
        StrCat("expected the .sm2p partials of one run\n", flags.Usage()));
  }
  const std::string out_path = flags.GetString("out");
  if (out_path.empty()) {
    return Status::InvalidArgument(
        StrCat("--out is required\n", flags.Usage()));
  }
  SM_ASSIGN_OR_RETURN(
      Stage1MergeStats stats,
      MergeStage1PartialsToFile(flags.positional(), out_path));
  out << "stage1-merge: " << flags.positional().size() << " partials -> "
      << stats.merged_spiders << " spiders (" << stats.frequent_stars
      << " frequent" << (stats.truncated ? ", truncated" : "")
      << "); wrote " << out_path << "\n";
  return Status::Ok();
}

Status CmdQuery(const std::vector<std::string>& args, std::ostream& out) {
  FlagSet flags("spidermine query",
                "answer a top-K query against a saved stage1 artifact");
  flags.AddInt("threads", 1,
               "worker threads (0 = all cores); results are identical at "
               "any value")
      .AddString("txn-map", "", kTxnMapHelp);
  AddQueryFlags(kQueryCommand, &flags);
  AddOutputFlags("print query statistics", &flags);
  SM_RETURN_NOT_OK(flags.Parse(args));
  if (flags.positional().size() != 2) {
    return Status::InvalidArgument(
        StrCat("expected <graph file> <stage1 artifact>\n", flags.Usage()));
  }
  SM_ASSIGN_OR_RETURN(LabeledGraph graph,
                      LoadGraphAuto(flags.positional()[0]));

  SessionConfig session_config;
  SM_ASSIGN_OR_RETURN(session_config.num_threads,
                      ValidateThreadsFlag(flags.GetInt("threads")));
  VertexTxnMap txn_map_storage;  // must outlive the session
  SM_ASSIGN_OR_RETURN(
      session_config.txn_map,
      MaybeLoadTxnMap(flags.GetString("txn-map"), graph, &txn_map_storage));
  SM_ASSIGN_OR_RETURN(
      MiningSession session,
      MiningSession::LoadStage1(&graph, session_config,
                                flags.positional()[1]));

  SM_ASSIGN_OR_RETURN(TopKQuery query, QueryFromFlags(kQueryCommand, flags));
  SM_ASSIGN_OR_RETURN(QueryResult result, session.RunQuery(query));
  const std::string stats_text =
      StrCat("artifact load: ", Stage1LoadModeName(session.stage1_load_mode()),
             " in ", session.stage1_load_seconds(), "s\n",
             result.stats.ToString(session.stage1_stats()));
  return PrintQueryOutput(
      flags, std::move(result),
      StrCat(", ", session.store().size(), " cached spiders"), stats_text,
      out);
}

Status PrecheckStage1Artifact(const std::string& path) {
  const std::string magic = binary_format::PeekMagic(path);
  if (magic.empty()) {
    return Status::IoError(
        StrCat("cannot read stage1 artifact '", path, "'"));
  }
  return CheckStage1Magic(path, magic);
}

Status CmdServe(const std::vector<std::string>& args, std::ostream& err) {
  FlagSet flags("spidermine serve",
                "answer newline-delimited JSON top-K queries from a "
                "resident session (see docs/CLI.md for the schema)");
  flags.AddInt("support", 2,
               "support floor sigma when mining at startup (a stage1 "
               "artifact carries its own floor and ignores this)")
      .AddInt("max-leaves", 8, "max leaves per star spider (mining only)")
      .AddInt("max-spiders", 0,
              "global spider budget when mining (0 = unlimited)")
      .AddInt("threads", 1,
              "worker threads shared by all in-flight queries (0 = all "
              "cores); results are identical at any value")
      .AddInt("shard-grain", 0,
              "Stage I vertex-range shard grain (0 = auto; mining only)")
      .AddString("txn-map", "", kTxnMapHelp)
      .AddInt("max-inflight", 1,
              "queries executed concurrently on the session; over a "
              "socket/TCP transport this is also the admission gate "
              "(excess requests get an \"overloaded\" rejection)")
      .AddString("socket", "",
                 "serve over a unix domain socket at this path instead of "
                 "stdin/stdout (combinable with --tcp)")
      .AddInt("tcp", -1,
              "also serve over TCP on 127.0.0.1:<port> (0 = ephemeral; "
              "-1 = off); combinable with --socket")
      .AddInt("cache-entries", 256,
              "result cache capacity in entries (0 disables the cache)")
      .AddInt("cache-bytes", 64 * 1024 * 1024,
              "result cache capacity in payload bytes (0 disables the "
              "cache)")
      .AddBool("quiet", false, "suppress the end-of-loop summary line");
  SM_RETURN_NOT_OK(flags.Parse(args));
  if (flags.positional().size() != 1 && flags.positional().size() != 2) {
    return Status::InvalidArgument(
        StrCat("expected <graph file> [<stage1 artifact>]\n", flags.Usage()));
  }
  const int64_t inflight = flags.GetInt("max-inflight");
  if (inflight < 1 || inflight > 1024) {
    return Status::InvalidArgument(
        StrCat("--max-inflight must be in [1, 1024] (got ", inflight, ")"));
  }
  const int64_t tcp_port = flags.GetInt("tcp");
  if (tcp_port < -1 || tcp_port > 65535) {
    return Status::InvalidArgument(
        StrCat("--tcp must be a port in [0, 65535], or -1 = off (got ",
               tcp_port, ")"));
  }
  const int64_t cache_entries = flags.GetInt("cache-entries");
  const int64_t cache_bytes = flags.GetInt("cache-bytes");
  if (cache_entries < 0 || cache_bytes < 0) {
    return Status::InvalidArgument(
        StrCat("--cache-entries/--cache-bytes must be >= 0 (got ",
               cache_entries, " / ", cache_bytes, ")"));
  }
  // A missing or unrecognizable artifact fails here — before the graph is
  // loaded or any worker pool exists — so a bad path costs milliseconds.
  if (flags.positional().size() == 2) {
    SM_RETURN_NOT_OK(PrecheckStage1Artifact(flags.positional()[1]));
  }
  SM_ASSIGN_OR_RETURN(LabeledGraph graph,
                      LoadGraphAuto(flags.positional()[0]));

  SessionConfig config;
  SM_ASSIGN_OR_RETURN(config.num_threads,
                      ValidateThreadsFlag(flags.GetInt("threads")));
  VertexTxnMap txn_map_storage;  // must outlive the serving session
  SM_ASSIGN_OR_RETURN(
      config.txn_map,
      MaybeLoadTxnMap(flags.GetString("txn-map"), graph, &txn_map_storage));
  std::optional<MiningSession> session;
  if (flags.positional().size() == 2) {
    // Warm start: adopt a precomputed artifact (its mining parameters
    // override the config's Stage I knobs).
    SM_ASSIGN_OR_RETURN(
        MiningSession loaded,
        MiningSession::LoadStage1(&graph, config, flags.positional()[1]));
    session.emplace(std::move(loaded));
  } else {
    // Cold start: mine Stage I here, once, before serving begins.
    config.min_support = flags.GetInt("support");
    SM_ASSIGN_OR_RETURN(
        config.max_star_leaves,
        CheckedInt32(flags.GetInt("max-leaves"), "--max-leaves"));
    config.max_spiders = flags.GetInt("max-spiders");
    SM_ASSIGN_OR_RETURN(config.stage1_shard_grain,
                        ValidateShardGrainFlag(flags.GetInt("shard-grain")));
    SM_ASSIGN_OR_RETURN(MiningSession mined,
                        MiningSession::Create(&graph, config));
    session.emplace(std::move(mined));
  }
  err << "serve: session ready (stage1 "
      << Stage1LoadModeName(session->stage1_load_mode());
  if (session->stage1_load_mode() != Stage1LoadMode::kMined) {
    err << " in " << session->stage1_load_seconds() << "s";
  }
  err << "), " << session->store().size()
      << " cached spiders (support floor "
      << session->config().min_support << "), max "
      << inflight << " in-flight queries\n";

  // The cache outlives the loop it is handed to; every transport of this
  // process shares it (hits cross connections and transports).
  ResultCacheConfig cache_config;
  cache_config.max_entries = cache_entries;
  cache_config.max_bytes = cache_bytes;
  ResultCache cache(cache_config);

  ServeOptions options;
  options.max_inflight = static_cast<int32_t>(inflight);
  options.summary = !flags.GetBool("quiet");
  options.cache = &cache;
  ServeTransportOptions transport;
  transport.socket_path = flags.GetString("socket");
  transport.tcp_port = static_cast<int32_t>(tcp_port);
  if (transport.socket_path.empty() && tcp_port < 0) {
    transport.stream_in_fd = STDIN_FILENO;
    transport.stream_out_fd = STDOUT_FILENO;
  }
  return RunServeServer(*session, transport, err, options);
}

Status CmdBaseline(const std::vector<std::string>& args, std::ostream& out) {
  FlagSet flags("spidermine baseline", "run a comparison miner");
  flags.AddString("algo", "subdue", "subdue | seus | grew | complete")
      .AddInt("support", 2, "support threshold")
      .AddInt("k", 10, "patterns reported")
      .AddDouble("time-budget", 60.0, "wall-clock budget seconds");
  SM_RETURN_NOT_OK(flags.Parse(args));
  if (flags.positional().size() != 1) {
    return Status::InvalidArgument(
        StrCat("expected exactly one graph file\n", flags.Usage()));
  }
  SM_ASSIGN_OR_RETURN(LabeledGraph graph,
                      LoadGraphAuto(flags.positional()[0]));
  const std::string algo = flags.GetString("algo");
  const int64_t support = flags.GetInt("support");
  const auto k = static_cast<size_t>(flags.GetInt("k"));

  if (algo == "subdue") {
    SubdueConfig config;
    config.max_best = static_cast<int32_t>(k);
    config.time_budget_seconds = flags.GetDouble("time-budget");
    SM_ASSIGN_OR_RETURN(SubdueResult result, SubdueDiscover(graph, config));
    out << "subdue: " << result.patterns.size() << " substructures\n";
    for (size_t i = 0; i < result.patterns.size() && i < k; ++i) {
      PrintPatternRow(out, i + 1, result.patterns[i].pattern,
                      result.patterns[i].instances);
    }
  } else if (algo == "seus") {
    SeusConfig config;
    config.min_support = support;
    SM_ASSIGN_OR_RETURN(SeusResult result, SeusDiscover(graph, config));
    out << "seus: " << result.patterns.size() << " structures\n";
    for (size_t i = 0; i < result.patterns.size() && i < k; ++i) {
      PrintPatternRow(out, i + 1, result.patterns[i].pattern,
                      result.patterns[i].support);
    }
  } else if (algo == "grew") {
    GrewConfig config;
    config.min_support = support;
    SM_ASSIGN_OR_RETURN(GrewResult result, GrewDiscover(graph, config));
    out << "grew: " << result.patterns.size() << " patterns\n";
    for (size_t i = 0; i < result.patterns.size() && i < k; ++i) {
      PrintPatternRow(out, i + 1, result.patterns[i].pattern,
                      result.patterns[i].support);
    }
  } else if (algo == "complete") {
    CompleteMinerConfig config;
    config.min_support = support;
    config.time_budget_seconds = flags.GetDouble("time-budget");
    SM_ASSIGN_OR_RETURN(CompleteMineResult result,
                        MineComplete(graph, config));
    out << "complete: " << result.patterns.size() << " frequent patterns"
        << (result.aborted ? " (budget hit; prefix only)" : "") << "\n";
    std::sort(result.patterns.begin(), result.patterns.end(),
              [](const CompletePattern& a, const CompletePattern& b) {
                return a.pattern.NumEdges() > b.pattern.NumEdges();
              });
    for (size_t i = 0; i < result.patterns.size() && i < k; ++i) {
      PrintPatternRow(out, i + 1, result.patterns[i].pattern,
                      result.patterns[i].support);
    }
  } else {
    return Status::InvalidArgument(
        StrCat("unknown algo '", algo,
               "' (expected subdue, seus, grew, complete)"));
  }
  return Status::Ok();
}

Status CmdConvert(const std::vector<std::string>& args, std::ostream& out) {
  FlagSet flags("spidermine convert",
                "convert between text and binary graph formats");
  SM_RETURN_NOT_OK(flags.Parse(args));
  if (flags.positional().size() != 2) {
    return Status::InvalidArgument(
        StrCat("expected <input> <output>\n", flags.Usage()));
  }
  SM_ASSIGN_OR_RETURN(LabeledGraph graph,
                      LoadGraphAuto(flags.positional()[0]));
  SM_RETURN_NOT_OK(SaveGraphAuto(graph, flags.positional()[1]));
  out << "converted " << flags.positional()[0] << " -> "
      << flags.positional()[1] << " (|V|=" << graph.NumVertices()
      << " |E|=" << graph.NumEdges() << ")\n";
  return Status::Ok();
}

int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err) {
  static constexpr char kUsage[] =
      "usage: spidermine <gen|stats|mine|stage1|partition|stage1-part|"
      "stage1-merge|query|serve|baseline|convert> [flags]\n"
      "run `spidermine <subcommand> --help` semantics: any flag error "
      "prints the subcommand's flag list\n";
  if (args.empty()) {
    err << kUsage;
    return 2;
  }
  const std::string& command = args[0];
  std::vector<std::string> rest(args.begin() + 1, args.end());
  Status status;
  if (command == "gen") {
    status = CmdGen(rest, out);
  } else if (command == "stats") {
    status = CmdStats(rest, out);
  } else if (command == "mine") {
    status = CmdMine(rest, out);
  } else if (command == "stage1") {
    status = CmdStage1(rest, out);
  } else if (command == "partition") {
    status = CmdPartition(rest, out);
  } else if (command == "stage1-part") {
    status = CmdStage1Part(rest, out);
  } else if (command == "stage1-merge") {
    status = CmdStage1Merge(rest, out);
  } else if (command == "query") {
    status = CmdQuery(rest, out);
  } else if (command == "serve") {
    status = CmdServe(rest, err);
  } else if (command == "baseline") {
    status = CmdBaseline(rest, out);
  } else if (command == "convert") {
    status = CmdConvert(rest, out);
  } else {
    err << "unknown subcommand '" << command << "'\n" << kUsage;
    return 2;
  }
  if (!status.ok()) {
    err << status.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace spidermine::cli
