#pragma once

#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/flags.h"
#include "common/result.h"
#include "graph/labeled_graph.h"
#include "spidermine/session.h"
#include "support/support_measure.h"

/// \file cli_commands.h
/// The spidermine command-line tool, factored as a library so each
/// subcommand is unit-testable without spawning processes. The `main`
/// binary (spidermine_cli.cc) only dispatches to RunCli. Full user-facing
/// reference with copy-pasteable examples: docs/CLI.md.
///
/// Subcommands:
///   gen      generate a synthetic network (ER / BA / DBLP-sim / Jeti-sim)
///            with optional pattern injection, write it to a file
///   stats    print structural statistics of a graph file
///   mine     run SpiderMine over a graph file and print the top-K patterns
///            (one-shot: Stage I + one query)
///   stage1   mine Stage I once and save the spider-store artifact (.sm2);
///            with --workers N the graph is partitioned and mined by N
///            worker processes out-of-core, byte-identical result
///   partition    cut a graph into vertex-range partitions with r-hop
///                halos (.smgp), the inputs of stage1-part
///   stage1-part  mine one partition's Stage I contribution (.sm2p)
///   stage1-merge fold the .sm2p partials into the final .sm2,
///                byte-identical to a single-process stage1
///   query    answer a top-K query against a saved stage1 artifact without
///            re-mining; repeated queries take milliseconds-to-seconds
///   serve    keep one session resident and answer newline-delimited JSON
///            top-K queries concurrently (stdin/stdout, a unix socket
///            and/or TCP)
///   baseline run a comparison miner (subdue / seus / grew / complete)
///   convert  convert between the text (.lg) and binary (.smg) formats

namespace spidermine::cli {

/// Dispatches `spidermine <subcommand> [flags]`. Writes normal output to
/// \p out and errors/usage to \p err; returns the process exit code.
/// `serve` is the exception: it answers on the process's stdout fd.
int RunCli(const std::vector<std::string>& args, std::ostream& out,
           std::ostream& err);

/// Parses a support-measure flag/request value ("vertex-mis", "edge-mis",
/// "mni", "count", "homomorphism", "transaction"); kInvalidArgument
/// naming the unknown value otherwise.
/// Shared by the mine/query flag parsing and the serve JSON schema.
Result<SupportMeasureKind> ParseMeasure(const std::string& name);

/// The one checked int64 -> int32 narrowing of the CLI's int32 flags and
/// serve's int32 request keys: kInvalidArgument
/// `<quote><name><quote> is out of range (<value>)` instead of a silent
/// wrap (2^32 + 3 would otherwise run as 3). Serve quotes its keys
/// (`"k"`); flags pass `--k` unquoted.
Result<int32_t> CheckedInt32(int64_t value, std::string_view name,
                             std::string_view quote = "");

/// The commands that read a query parameter as a flag (a bit set). Every
/// parameter is also a `serve` request key.
enum QueryCommand : uint8_t {
  kServeOnly = 0,
  kMineCommand = 1,
  kQueryCommand = 2,
};

/// The TopKQuery member a query parameter sets; the member's type is the
/// parameter's value type (int32/int64/uint64 = integer, double = number,
/// bool, SupportMeasureKind = a ParseMeasure name).
using QueryMember =
    std::variant<int32_t TopKQuery::*, int64_t TopKQuery::*,
                 uint64_t TopKQuery::*, double TopKQuery::*,
                 bool TopKQuery::*, SupportMeasureKind TopKQuery::*>;

/// One user-settable query parameter: the single definition that `mine`,
/// `query` and `serve` all read. Defaults come from `TopKQuery{}`.
struct QueryParam {
  /// Flag name; the serve request key is the same name with '-' -> '_'.
  std::string_view flag;
  std::string_view help;
  QueryMember member;
  /// QueryCommand bits of the commands that register it as a flag.
  uint8_t commands = kMineCommand | kQueryCommand;
};

/// The query parameter table (docs/CLI.md documents it per front end).
std::span<const QueryParam> QueryParams();

/// The table row whose serve key is \p key; nullptr when there is none.
const QueryParam* FindQueryParam(std::string_view key);

/// Registers the table's flags of \p command on \p flags.
void AddQueryFlags(QueryCommand command, FlagSet* flags);

/// Reads the flags AddQueryFlags registered into a TopKQuery; fields
/// \p command has no flag for keep their TopKQuery{} defaults.
Result<TopKQuery> QueryFromFlags(QueryCommand command, const FlagSet& flags);

/// Loads a graph choosing the decoder by file extension: ".smg" = binary
/// (graph/binary_io.h), anything else = LG text (graph/graph_io.h).
Result<LabeledGraph> LoadGraphAuto(const std::string& path);

/// Saves a graph choosing the encoder by file extension (see LoadGraphAuto).
Status SaveGraphAuto(const LabeledGraph& graph, const std::string& path);

/// Individual subcommands (args exclude the subcommand name).
Status CmdGen(const std::vector<std::string>& args, std::ostream& out);
Status CmdStats(const std::vector<std::string>& args, std::ostream& out);
Status CmdMine(const std::vector<std::string>& args, std::ostream& out);
Status CmdStage1(const std::vector<std::string>& args, std::ostream& out);
Status CmdPartition(const std::vector<std::string>& args, std::ostream& out);
Status CmdStage1Part(const std::vector<std::string>& args,
                     std::ostream& out);
Status CmdStage1Merge(const std::vector<std::string>& args,
                      std::ostream& out);
Status CmdQuery(const std::vector<std::string>& args, std::ostream& out);
Status CmdBaseline(const std::vector<std::string>& args, std::ostream& out);
Status CmdConvert(const std::vector<std::string>& args, std::ostream& out);

/// Cheap fail-fast check of a stage1 artifact path: the file must be
/// readable and carry the `.sm2` format magic ("SMS2"). `serve` runs it before the graph is loaded and the
/// worker pool is built, so a typo'd --artifact path fails in
/// milliseconds, not after seconds of graph loading. kIoError otherwise.
Status PrecheckStage1Artifact(const std::string& path);

/// `serve`: builds (or loads) a session, then answers newline-delimited
/// JSON queries from stdin on stdout until EOF or {"cmd":"shutdown"},
/// running up to --max-inflight queries concurrently; diagnostics and the
/// final latency summary go to \p err. With --socket=<path> and/or
/// --tcp=<port> the same server (tools/serve_loop.h) listens instead of
/// reading stdin: any number of concurrent connections, a global
/// --max-inflight admission gate ("overloaded" rejections), and a shared
/// result cache (--cache-entries/--cache-bytes) answering repeated
/// queries without recomputation. Tests drive the server itself through
/// RunServeServer. See tools/serve_loop.h for the protocol.
Status CmdServe(const std::vector<std::string>& args, std::ostream& err);

}  // namespace spidermine::cli
