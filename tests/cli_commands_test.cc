#include "tools/cli_commands.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <type_traits>

#include "common/strings.h"
#include "graph/binary_format.h"
#include "graph/binary_io.h"
#include "spider/spider_store_mmap.h"
#include "tools/serve_loop.h"

namespace spidermine::cli {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class CliTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& path : cleanup_) std::filesystem::remove(path);
  }

  std::string Track(const std::string& path) {
    cleanup_.push_back(path);
    return path;
  }

  std::vector<std::string> cleanup_;
};

TEST_F(CliTest, GenWritesGraphAndReportsSize) {
  const std::string path = Track(TempPath("cli_gen_test.smg"));
  std::ostringstream out;
  Status status = CmdGen({"--model=er", "--vertices=200", "--avg-degree=2.5",
                          "--labels=10", "--seed=7", "--out=" + path},
                         out);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_NE(out.str().find("|V|=200"), std::string::npos);

  Result<LabeledGraph> loaded = LoadGraphAuto(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->NumVertices(), 200);
}

TEST_F(CliTest, GenWithInjectionMentionsPlantedPattern) {
  const std::string path = Track(TempPath("cli_gen_inject.lg"));
  std::ostringstream out;
  Status status =
      CmdGen({"--model=er", "--vertices=150", "--labels=12",
              "--inject-vertices=10", "--inject-count=2", "--out=" + path},
             out);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.str().find("injected pattern: |V|=10"), std::string::npos);
}

TEST_F(CliTest, GenRequiresOut) {
  std::ostringstream out;
  Status status = CmdGen({"--model=er"}, out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(CliTest, GenRejectsUnknownModel) {
  std::ostringstream out;
  Status status =
      CmdGen({"--model=hypercube", "--out=" + TempPath("x.lg")}, out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("hypercube"), std::string::npos);
}

TEST_F(CliTest, StatsPrintsSummary) {
  const std::string path = Track(TempPath("cli_stats.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=100", "--labels=5",
                      "--out=" + path},
                     gen_out)
                  .ok());
  std::ostringstream out;
  Status status = CmdStats({path}, out);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.str().find("vertices: 100"), std::string::npos);
  EXPECT_NE(out.str().find("degree min/avg/max"), std::string::npos);
}

TEST_F(CliTest, StatsFailsOnMissingFile) {
  std::ostringstream out;
  EXPECT_FALSE(CmdStats({TempPath("does_not_exist.smg")}, out).ok());
}

TEST_F(CliTest, MineFindsPlantedPattern) {
  const std::string path = Track(TempPath("cli_mine.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=200", "--avg-degree=1.5",
                      "--labels=15", "--seed=5", "--inject-vertices=12",
                      "--inject-count=3", "--out=" + path},
                     gen_out)
                  .ok());
  std::ostringstream out;
  Status status = CmdMine({path, "--support=3", "--k=5", "--dmax=4",
                           "--vmin=12", "--seed=2", "--stats"},
                          out);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.str().find("top "), std::string::npos);
  EXPECT_NE(out.str().find("|V|=12"), std::string::npos);
  EXPECT_NE(out.str().find("stage I:"), std::string::npos);
  EXPECT_NE(out.str().find("spiders"), std::string::npos);
}

TEST_F(CliTest, MineSavesPatternFiles) {
  const std::string graph_path = Track(TempPath("cli_mine_out.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=120", "--avg-degree=1.5",
                      "--labels=10", "--inject-vertices=8",
                      "--inject-count=3", "--out=" + graph_path},
                     gen_out)
                  .ok());
  const std::string prefix = TempPath("cli_mine_patterns");
  std::ostringstream out;
  Status status = CmdMine({graph_path, "--support=3", "--k=2", "--dmax=4",
                           "--vmin=8", "--out=" + prefix},
                          out);
  ASSERT_TRUE(status.ok()) << status;
  // At least the rank-1 pattern file must exist and load back.
  const std::string first = prefix + ".1.smp";
  Track(first);
  Track(prefix + ".2.smp");
  ASSERT_TRUE(std::filesystem::exists(first));
  Result<Pattern> loaded = LoadPatternBinary(first);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_GT(loaded->NumVertices(), 0);
}

TEST_F(CliTest, MineVariantsAndMaximalFlags) {
  const std::string path = Track(TempPath("cli_mine2.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=150", "--avg-degree=1.5",
                      "--labels=10", "--inject-vertices=8",
                      "--inject-count=3", "--out=" + path},
                     gen_out)
                  .ok());
  std::ostringstream out;
  Status status = CmdMine(
      {path, "--support=3", "--k=5", "--dmax=4", "--vmin=8", "--maximal",
       "--variants"},
      out);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.str().find("variant groups:"), std::string::npos);
}

TEST_F(CliTest, MineRejectsNegativeThreadsWithClearError) {
  const std::string path = Track(TempPath("cli_mine_threads.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=50", "--labels=5",
                      "--out=" + path},
                     gen_out)
                  .ok());
  std::ostringstream out;
  Status status = CmdMine({path, "--threads=-1"}, out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--threads"), std::string::npos);
  EXPECT_NE(status.message().find("-1"), std::string::npos);
}

TEST_F(CliTest, MineRejectsNegativeShardGrainWithClearError) {
  const std::string path = Track(TempPath("cli_mine_grain.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=50", "--labels=5",
                      "--out=" + path},
                     gen_out)
                  .ok());
  std::ostringstream out;
  Status status = CmdMine({path, "--shard-grain=-5"}, out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("--shard-grain"), std::string::npos);
}

TEST_F(CliTest, MineClampsAbsurdThreadAndGrainValues) {
  // Absurd-but-positive values are clamped, not rejected: the run must
  // succeed (and results are identical at any accepted value anyway).
  const std::string path = Track(TempPath("cli_mine_clamp.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=60", "--avg-degree=1.5",
                      "--labels=6", "--out=" + path},
                     gen_out)
                  .ok());
  std::ostringstream out;
  Status status = CmdMine({path, "--support=3", "--k=2",
                           "--threads=999999999", "--shard-grain=4"},
                          out);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.str().find("top "), std::string::npos);
}

TEST_F(CliTest, MineRejectsBadMeasure) {
  const std::string path = Track(TempPath("cli_mine3.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=50", "--labels=5",
                      "--out=" + path},
                     gen_out)
                  .ok());
  std::ostringstream out;
  Status status = CmdMine({path, "--measure=bogus"}, out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(CliTest, Stage1WritesArtifactAndReportsSpiders) {
  const std::string graph_path = Track(TempPath("cli_stage1.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=150", "--avg-degree=1.5",
                      "--labels=12", "--seed=5", "--inject-vertices=10",
                      "--inject-count=3", "--out=" + graph_path},
                     gen_out)
                  .ok());
  const std::string artifact = Track(TempPath("cli_stage1.sm2"));
  std::ostringstream out;
  Status status =
      CmdStage1({graph_path, "--support=3", "--out=" + artifact}, out);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_TRUE(std::filesystem::exists(artifact));
  EXPECT_NE(out.str().find("stage1: mined "), std::string::npos);

  // stage1 writes the zero-copy format; the artifact opens mmap'd.
  EXPECT_EQ(binary_format::PeekMagic(artifact),
            std::string(kSm2Magic, 4));
  Result<std::unique_ptr<MappedStage1>> loaded = MappedStage1::Open(artifact);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_GT((*loaded)->store().size(), 0);
  EXPECT_EQ((*loaded)->meta().min_support, 3);
  EXPECT_TRUE((*loaded)->EnsureValidated().ok());
}

TEST_F(CliTest, StatsShowOnlyTheStagesTheCommandRan) {
  const std::string graph_path = Track(TempPath("cli_stats_stages.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=150", "--avg-degree=1.5",
                      "--labels=12", "--seed=5", "--inject-vertices=10",
                      "--inject-count=3", "--out=" + graph_path},
                     gen_out)
                  .ok());
  const std::string artifact = Track(TempPath("cli_stats_stages.sm2"));
  std::ostringstream stage1_out;
  ASSERT_TRUE(CmdStage1({graph_path, "--support=3", "--out=" + artifact,
                         "--stats"},
                        stage1_out)
                  .ok());
  const std::string stage1_text = stage1_out.str();
  const std::string mined = "stage1: mined ";
  ASSERT_EQ(stage1_text.rfind(mined, 0), 0u) << stage1_text;
  const std::string spiders = stage1_text.substr(
      mined.size(), stage1_text.find(' ', mined.size()) - mined.size());
  ASSERT_GT(std::stoll(spiders), 0);
  const std::string stage1_line = "\nstage I: " + spiders + " spiders (";

  // `stage1 --stats` reports Stage I only: no query stage ran.
  EXPECT_NE(stage1_text.find(stage1_line), std::string::npos) << stage1_text;
  for (const char* query_line : {"support:", "stage II:", "stage III:",
                                 "growth:", "isomorphism:", "total:"}) {
    EXPECT_EQ(stage1_text.find(query_line), std::string::npos)
        << query_line << " in:\n" << stage1_text;
  }

  // `query --stats` shows the loaded artifact's Stage I, not zeros, next to
  // the query's own lines.
  std::ostringstream query_out;
  ASSERT_TRUE(CmdQuery({graph_path, artifact, "--k=3", "--dmax=4", "--seed=2",
                        "--stats"},
                       query_out)
                  .ok());
  const std::string query_text = query_out.str();
  EXPECT_NE(query_text.find(stage1_line), std::string::npos) << query_text;
  EXPECT_NE(query_text.find("\nstage II: M="), std::string::npos);
  EXPECT_NE(query_text.find("\ntotal: "), std::string::npos);
}

TEST_F(CliTest, Stage1RequiresOut) {
  const std::string graph_path = Track(TempPath("cli_stage1_noout.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=50", "--labels=5",
                      "--out=" + graph_path},
                     gen_out)
                  .ok());
  std::ostringstream out;
  Status status = CmdStage1({graph_path}, out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST_F(CliTest, QueryAnswersTwiceByteIdenticallyAndMatchesMine) {
  const std::string graph_path = Track(TempPath("cli_query.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=180", "--avg-degree=1.5",
                      "--labels=12", "--seed=5", "--inject-vertices=10",
                      "--inject-count=3", "--out=" + graph_path},
                     gen_out)
                  .ok());
  const std::string artifact = Track(TempPath("cli_query.sm2"));
  std::ostringstream stage1_out;
  ASSERT_TRUE(
      CmdStage1({graph_path, "--support=3", "--out=" + artifact}, stage1_out)
          .ok());

  const std::vector<std::string> query_args = {
      graph_path, artifact, "--k=5", "--dmax=4", "--vmin=10", "--seed=2"};
  std::ostringstream first, second;
  ASSERT_TRUE(CmdQuery(query_args, first).ok());
  ASSERT_TRUE(CmdQuery(query_args, second).ok());
  EXPECT_EQ(first.str(), second.str())
      << "identical queries must print byte-identical output";
  EXPECT_NE(first.str().find("cached spiders"), std::string::npos);

  // The query's pattern rows match a one-shot `mine` with the same
  // parameters (headers differ; rows are the contract).
  std::ostringstream mine_out;
  ASSERT_TRUE(CmdMine({graph_path, "--support=3", "--k=5", "--dmax=4",
                       "--vmin=10", "--seed=2"},
                      mine_out)
                  .ok());
  auto rows = [](const std::string& text) {
    return text.substr(text.find('\n') + 1);
  };
  EXPECT_EQ(rows(first.str()), rows(mine_out.str()));
}

TEST_F(CliTest, QueryRejectsSupportBelowArtifactFloor) {
  const std::string graph_path = Track(TempPath("cli_query_floor.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=80", "--labels=6",
                      "--out=" + graph_path},
                     gen_out)
                  .ok());
  const std::string artifact = Track(TempPath("cli_query_floor.sm2"));
  std::ostringstream stage1_out;
  ASSERT_TRUE(
      CmdStage1({graph_path, "--support=3", "--out=" + artifact}, stage1_out)
          .ok());
  std::ostringstream out;
  Status status = CmdQuery({graph_path, artifact, "--support=2"}, out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("floor"), std::string::npos);
}

TEST_F(CliTest, QueryRejectsCorruptArtifact) {
  const std::string graph_path = Track(TempPath("cli_query_corrupt.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=80", "--labels=6",
                      "--out=" + graph_path},
                     gen_out)
                  .ok());
  const std::string artifact = Track(TempPath("cli_query_corrupt.sm2"));
  std::ostringstream stage1_out;
  ASSERT_TRUE(
      CmdStage1({graph_path, "--support=2", "--out=" + artifact}, stage1_out)
          .ok());
  // Flip one payload byte: the checksum must reject the artifact.
  std::ifstream in(artifact, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  bytes[bytes.size() - 1] = static_cast<char>(bytes.back() ^ 0x40);
  std::ofstream rewrite(artifact, std::ios::binary | std::ios::trunc);
  rewrite.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  rewrite.close();
  std::ostringstream out;
  Status status = CmdQuery({graph_path, artifact}, out);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
}

TEST_F(CliTest, Int32FlagsRejectOutOfRangeValues) {
  // 2^32 + 3 and 2^32 + 8 used to narrow silently to k = 3 and 8 leaves.
  const std::string graph_path = Track(TempPath("cli_int32_flags.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=80", "--labels=6",
                      "--out=" + graph_path},
                     gen_out)
                  .ok());
  const std::string artifact = Track(TempPath("cli_int32_flags.sm2"));
  std::ostringstream out;
  Status stage1 = CmdStage1(
      {graph_path, "--max-leaves=4294967304", "--out=" + artifact}, out);
  EXPECT_EQ(stage1.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(stage1.message().find("--max-leaves is out of range"),
            std::string::npos)
      << stage1;

  ASSERT_TRUE(CmdStage1({graph_path, "--out=" + artifact}, out).ok());
  Status query = CmdQuery({graph_path, artifact, "--k=4294967299"}, out);
  EXPECT_EQ(query.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(query.message().find("--k is out of range (4294967299)"),
            std::string::npos)
      << query;
}

TEST_F(CliTest, QueryRejectsRetiredEmbBudgetFlag) {
  std::ostringstream out;
  Status status = CmdQuery({TempPath("cli_unused.smg"),
                            TempPath("cli_unused.sm2"), "--emb-budget=64"},
                           out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("unknown flag --emb-budget"),
            std::string::npos)
      << status;
}

// Each query parameter is defined once, in QueryParams(). Walk the table:
// `--flag=v` through the CLI flag path and {"key": v} through
// QueryFromJson must set the same TopKQuery field, and omitting both must
// keep TopKQuery{}'s value.
TEST(QueryParamTableTest, FlagsAndRequestKeysSetTheSameField) {
  const TopKQuery defaults;
  Result<TopKQuery> json_defaults = QueryFromJson(JsonObject{});
  ASSERT_TRUE(json_defaults.ok());
  std::vector<std::string> keys;
  for (const QueryParam& param : QueryParams()) {
    std::string key(param.flag);
    std::replace(key.begin(), key.end(), '-', '_');
    keys.push_back(key);
    SCOPED_TRACE(key);
    // A non-default value of the row's type, as flag and as JSON text.
    std::string flag_text = "7";
    std::string json_text = "7";
    auto same_field = [&param](const TopKQuery& a, const TopKQuery& b) {
      return std::visit([&](auto member) { return a.*member == b.*member; },
                        param.member);
    };
    std::visit(
        [&](auto member) {
          using T = std::remove_cvref_t<decltype(defaults.*member)>;
          if constexpr (std::is_same_v<T, bool>) {
            flag_text = json_text = "true";
          } else if constexpr (std::is_same_v<T, double>) {
            flag_text = json_text = "0.25";
          } else if constexpr (std::is_same_v<T, SupportMeasureKind>) {
            flag_text = "homomorphism";
            json_text = "\"homomorphism\"";
          }
        },
        param.member);

    Result<JsonObject> request =
        ParseJsonObject(StrCat("{\"", key, "\": ", json_text, "}"));
    ASSERT_TRUE(request.ok()) << request.status();
    Result<TopKQuery> from_json = QueryFromJson(*request);
    ASSERT_TRUE(from_json.ok()) << from_json.status();
    EXPECT_FALSE(same_field(*from_json, defaults));
    EXPECT_TRUE(same_field(*json_defaults, defaults));
    if (key != param.flag) {
      // The flag spelling is not a request key.
      Result<JsonObject> dashed = ParseJsonObject(
          StrCat("{\"", param.flag, "\": ", json_text, "}"));
      ASSERT_TRUE(dashed.ok());
      EXPECT_FALSE(QueryFromJson(*dashed).ok());
    }

    for (QueryCommand command : {kMineCommand, kQueryCommand}) {
      FlagSet set("set"), unset("unset");
      AddQueryFlags(command, &set);
      AddQueryFlags(command, &unset);
      const std::string arg = StrCat("--", param.flag, "=", flag_text);
      if ((param.commands & command) == 0) {
        EXPECT_FALSE(set.Parse({arg}).ok()) << arg;
        continue;
      }
      ASSERT_TRUE(set.Parse({arg}).ok()) << arg;
      ASSERT_TRUE(unset.Parse({}).ok());
      Result<TopKQuery> from_flags = QueryFromFlags(command, set);
      ASSERT_TRUE(from_flags.ok()) << from_flags.status();
      EXPECT_TRUE(same_field(*from_flags, *from_json)) << arg;
      EXPECT_EQ(from_flags->CanonicalHash(2, 100),
                from_json->CanonicalHash(2, 100))
          << arg;
      Result<TopKQuery> flag_defaults = QueryFromFlags(command, unset);
      ASSERT_TRUE(flag_defaults.ok()) << flag_defaults.status();
      EXPECT_TRUE(same_field(*flag_defaults, defaults));
    }
  }
  // The serve schema of docs/CLI.md, minus the protocol keys id and cmd.
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys, (std::vector<std::string>{
                      "dmax", "epsilon", "k", "measure", "restarts", "seed",
                      "seed_count", "strict_dmax", "support", "time_budget",
                      "txn_sample", "vmin"}));
}

TEST_F(CliTest, BaselineSubdueRuns) {
  const std::string path = Track(TempPath("cli_baseline.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=120", "--labels=8",
                      "--out=" + path},
                     gen_out)
                  .ok());
  std::ostringstream out;
  Status status = CmdBaseline({path, "--algo=subdue", "--k=3"}, out);
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_NE(out.str().find("subdue:"), std::string::npos);
}

TEST_F(CliTest, BaselineRejectsUnknownAlgo) {
  const std::string path = Track(TempPath("cli_baseline2.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=50", "--labels=5",
                      "--out=" + path},
                     gen_out)
                  .ok());
  std::ostringstream out;
  EXPECT_FALSE(CmdBaseline({path, "--algo=magic"}, out).ok());
}

TEST_F(CliTest, ConvertRoundTripsBetweenFormats) {
  const std::string binary = Track(TempPath("cli_conv.smg"));
  const std::string text = Track(TempPath("cli_conv.lg"));
  const std::string binary2 = Track(TempPath("cli_conv2.smg"));
  std::ostringstream gen_out;
  ASSERT_TRUE(CmdGen({"--model=er", "--vertices=80", "--labels=6",
                      "--out=" + binary},
                     gen_out)
                  .ok());
  std::ostringstream out;
  ASSERT_TRUE(CmdConvert({binary, text}, out).ok());
  ASSERT_TRUE(CmdConvert({text, binary2}, out).ok());
  Result<LabeledGraph> a = LoadGraphAuto(binary);
  Result<LabeledGraph> b = LoadGraphAuto(binary2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->NumVertices(), b->NumVertices());
  EXPECT_EQ(a->NumEdges(), b->NumEdges());
}

TEST_F(CliTest, RunCliDispatchesAndReportsErrors) {
  std::ostringstream out, err;
  EXPECT_EQ(RunCli({}, out, err), 2);
  EXPECT_NE(err.str().find("usage"), std::string::npos);

  std::ostringstream out2, err2;
  EXPECT_EQ(RunCli({"frobnicate"}, out2, err2), 2);
  EXPECT_NE(err2.str().find("unknown subcommand"), std::string::npos);

  std::ostringstream out3, err3;
  EXPECT_EQ(RunCli({"stats", TempPath("missing.smg")}, out3, err3), 1);
  EXPECT_FALSE(err3.str().empty());
}

TEST_F(CliTest, RunCliHappyPath) {
  const std::string path = Track(TempPath("cli_run.smg"));
  std::ostringstream out, err;
  int code = RunCli({"gen", "--model=er", "--vertices=60", "--labels=5",
                     "--out=" + path},
                    out, err);
  EXPECT_EQ(code, 0);
  EXPECT_TRUE(err.str().empty());
}

}  // namespace
}  // namespace spidermine::cli
