#include "tools/serve_loop.h"

#include <gtest/gtest.h>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/strings.h"
#include "spider/spider_store_mmap.h"
#include "spidermine/session.h"
#include "tools/cli_commands.h"
#include "serve_test_util.h"

/// The serve protocol over the server's stream connection (a temp-file or
/// pipe fd pair, as `serve < requests.jsonl`): one response line per
/// request line, ids echoed (concurrent queries complete out of order),
/// malformed requests answered rather than fatal, shutdown acknowledged
/// last, concurrent serving returning exactly the responses of
/// --max-inflight=1, and the caller's fds handed back as they were. Plus
/// the socket transports: concurrent unix/TCP connections multiplexed by
/// the same event loop, the admission gate's "overloaded" rejection, and
/// the result cache's byte-identical replays.

namespace spidermine::cli {
namespace {

std::vector<std::string> Lines(const std::string& text) {
  std::vector<std::string> lines;
  for (const std::string& line : Split(text, '\n')) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

/// The stream's responses to six queries at \p inflight, "seconds" masked
/// and sorted (concurrent queries complete out of order).
std::vector<std::string> SixAnsweredTranscript(const MiningSession& session,
                                               const std::string& requests,
                                               int32_t inflight) {
  std::ostringstream err;
  ServeOptions options;
  options.max_inflight = inflight;
  options.summary = false;
  ServeStats stats;
  StreamServeResult served =
      ServeStream(session, requests, options, err, &stats);
  EXPECT_TRUE(served.status.ok()) << served.status;
  EXPECT_EQ(stats.answered, 6);
  std::vector<std::string> lines = Lines(served.out);
  for (std::string& line : lines) {
    size_t begin = line.find("\"seconds\":");
    size_t end = line.find(",\"timed_out\"");
    EXPECT_NE(begin, std::string::npos);
    EXPECT_NE(end, std::string::npos);
    line.replace(begin, end - begin, "\"seconds\":X");
  }
  std::sort(lines.begin(), lines.end());
  return lines;
}

TEST(ServeJsonTest, ParsesFlatObjects) {
  Result<JsonObject> object = ParseJsonObject(
      "  {\"id\": 7, \"k\": 3, \"measure\": \"mni\", \"strict_dmax\": true, "
      "\"note\": null, \"epsilon\": 0.25}  ");
  ASSERT_TRUE(object.ok()) << object.status();
  EXPECT_EQ(object->size(), 6u);
  EXPECT_EQ(object->at("id").kind, JsonValue::Kind::kNumber);
  EXPECT_EQ(object->at("id").number_value, 7.0);
  EXPECT_EQ(object->at("measure").string_value, "mni");
  EXPECT_TRUE(object->at("strict_dmax").bool_value);
  EXPECT_EQ(object->at("note").kind, JsonValue::Kind::kNull);
  EXPECT_EQ(object->at("epsilon").number_value, 0.25);
  Result<JsonObject> empty = ParseJsonObject("{}");
  ASSERT_TRUE(empty.ok());
  EXPECT_TRUE(empty->empty());
}

TEST(ServeJsonTest, ParsesStringEscapes) {
  Result<JsonObject> object =
      ParseJsonObject("{\"id\": \"a\\\"b\\\\c\\n\\u0041\"}");
  ASSERT_TRUE(object.ok()) << object.status();
  EXPECT_EQ(object->at("id").string_value, "a\"b\\c\nA");
}

TEST(ServeJsonTest, RejectsMalformedInput) {
  for (const char* bad :
       {"", "[1,2]", "{\"k\":}", "{\"k\":1,}", "{\"k\":1} trailing",
        "{\"k\":1,\"k\":2}", "{\"nested\":{\"x\":1}}", "{\"a\":[1]}",
        "{\"s\":\"unterminated}", "{\"u\":\"\\ud800\"}", "{k:1}",
        // Truncated requests must error, not read past the line.
        "{", "{\"a\":1,", "{\"a\":", "{\"a\"",
        // strtod-isms that are not JSON numbers (inf/nan would also be
        // echoed back as invalid response JSON).
        "{\"id\":inf}", "{\"id\":nan}", "{\"id\":0x1A}", "{\"id\":-}",
        "{\"id\":1.}", "{\"id\":1e}", "{\"id\":1e300000}"}) {
    Result<JsonObject> object = ParseJsonObject(bad);
    EXPECT_FALSE(object.ok()) << "accepted: " << bad;
    EXPECT_EQ(object.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(ServeJsonTest, EscapeRoundTripsControlCharacters) {
  EXPECT_EQ(EscapeJsonString("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(EscapeJsonString(std::string(1, '\x01')), "\\u0001");
}

TEST(ServeJsonTest, QueryFromJsonMapsEveryKey) {
  Result<JsonObject> object = ParseJsonObject(
      "{\"support\": 4, \"k\": 3, \"dmax\": 6, \"epsilon\": 0.2, "
      "\"vmin\": 9, \"seed\": 99, \"seed_count\": 12, \"restarts\": 2, "
      "\"time_budget\": 1.5, \"measure\": \"count\", "
      "\"strict_dmax\": true, \"txn_sample\": 5, "
      "\"id\": 1}");
  ASSERT_TRUE(object.ok()) << object.status();
  Result<TopKQuery> query = QueryFromJson(*object);
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->min_support, 4);
  EXPECT_EQ(query->k, 3);
  EXPECT_EQ(query->dmax, 6);
  EXPECT_EQ(query->epsilon, 0.2);
  EXPECT_EQ(query->vmin, 9);
  EXPECT_EQ(query->rng_seed, 99u);
  EXPECT_EQ(query->seed_count_override, 12);
  EXPECT_EQ(query->restarts, 2);
  EXPECT_EQ(query->time_budget_seconds, 1.5);
  EXPECT_EQ(query->support_measure, SupportMeasureKind::kEmbeddingCount);
  EXPECT_TRUE(query->enforce_dmax_on_results);
  EXPECT_EQ(query->txn_sample, 5);
}

TEST(ServeJsonTest, QueryFromJsonRejectsUnknownAndMistyped) {
  Result<JsonObject> unknown = ParseJsonObject("{\"topk\": 5}");
  ASSERT_TRUE(unknown.ok());
  Result<TopKQuery> q1 = QueryFromJson(*unknown);
  EXPECT_FALSE(q1.ok());
  EXPECT_NE(q1.status().message().find("topk"), std::string::npos);

  // The retired carried-list budget is an unknown key like any other.
  Result<JsonObject> retired = ParseJsonObject("{\"emb_budget\": 64}");
  ASSERT_TRUE(retired.ok());
  Result<TopKQuery> q3 = QueryFromJson(*retired);
  EXPECT_FALSE(q3.ok());
  EXPECT_NE(q3.status().message().find("unknown request key \"emb_budget\""),
            std::string::npos)
      << q3.status();

  Result<JsonObject> mistyped = ParseJsonObject("{\"k\": \"ten\"}");
  ASSERT_TRUE(mistyped.ok());
  EXPECT_FALSE(QueryFromJson(*mistyped).ok());

  Result<JsonObject> fractional = ParseJsonObject("{\"k\": 2.5}");
  ASSERT_TRUE(fractional.ok());
  EXPECT_FALSE(QueryFromJson(*fractional).ok());

  // int32 fields reject out-of-range values instead of wrapping:
  // 2^32 + 3 would otherwise narrow to a "valid" k = 3.
  Result<JsonObject> wide = ParseJsonObject("{\"k\": 4294967299}");
  ASSERT_TRUE(wide.ok());
  Result<TopKQuery> q2 = QueryFromJson(*wide);
  EXPECT_FALSE(q2.ok());
  EXPECT_NE(q2.status().message().find("out of range"), std::string::npos);
}

TEST(ServeJsonTest, MeasureAndTxnSampleKeysMapAndReject) {
  // The two workload-selection keys: every published measure name maps to
  // its enum, and "txn_sample" rides along as a plain integer.
  for (const auto& [name, kind] :
       std::vector<std::pair<std::string, SupportMeasureKind>>{
           {"vertex-mis", SupportMeasureKind::kGreedyMisVertex},
           {"edge-mis", SupportMeasureKind::kGreedyMisEdge},
           {"mni", SupportMeasureKind::kMinImage},
           {"count", SupportMeasureKind::kEmbeddingCount},
           {"homomorphism", SupportMeasureKind::kHomomorphism},
           {"transaction", SupportMeasureKind::kTransaction}}) {
    Result<JsonObject> object = ParseJsonObject(
        StrCat("{\"k\": 3, \"measure\": \"", name, "\"}"));
    ASSERT_TRUE(object.ok());
    Result<TopKQuery> query = QueryFromJson(*object);
    ASSERT_TRUE(query.ok()) << name << ": " << query.status();
    EXPECT_EQ(query->support_measure, kind) << name;
  }
  Result<JsonObject> sampled = ParseJsonObject(
      "{\"k\": 3, \"measure\": \"transaction\", \"txn_sample\": 40}");
  ASSERT_TRUE(sampled.ok());
  Result<TopKQuery> query = QueryFromJson(*sampled);
  ASSERT_TRUE(query.ok()) << query.status();
  EXPECT_EQ(query->support_measure, SupportMeasureKind::kTransaction);
  EXPECT_EQ(query->txn_sample, 40);

  // Malformed values fail at parse time with a pointed message.
  Result<JsonObject> unknown =
      ParseJsonObject("{\"measure\": \"betweenness\"}");
  ASSERT_TRUE(unknown.ok());
  Result<TopKQuery> q1 = QueryFromJson(*unknown);
  EXPECT_FALSE(q1.ok());
  EXPECT_NE(q1.status().message().find("betweenness"), std::string::npos);
  Result<JsonObject> mistyped = ParseJsonObject("{\"measure\": 3}");
  ASSERT_TRUE(mistyped.ok());
  EXPECT_FALSE(QueryFromJson(*mistyped).ok());
  Result<JsonObject> fractional = ParseJsonObject("{\"txn_sample\": 2.5}");
  ASSERT_TRUE(fractional.ok());
  EXPECT_FALSE(QueryFromJson(*fractional).ok());
}

TEST(ServeLoopTest, MeasureErrorsAnswerWithoutKillingTheStream) {
  // Workload-selection mistakes are per-request errors, never fatal: the
  // loop answers each one and keeps serving; only the valid queries run.
  LabeledGraph g = TestGraph();
  Result<MiningSession> session = TestSession(&g);
  ASSERT_TRUE(session.ok()) << session.status();

  const std::string requests =
      // Unknown measure name: rejected at parse time.
      "{\"id\": 1, \"k\": 3, \"measure\": \"pagerank\"}\n"
      // txn_sample without the transaction measure: rejected by Validate.
      "{\"id\": 2, \"k\": 3, \"vmin\": 8, \"txn_sample\": 5}\n"
      // Negative sample size: out of range.
      "{\"id\": 3, \"k\": 3, \"measure\": \"transaction\", "
      "\"txn_sample\": -1}\n"
      // Transaction measure against a session with no transaction source.
      "{\"id\": 4, \"k\": 3, \"vmin\": 8, \"measure\": \"transaction\"}\n"
      // The stream is still healthy: a homomorphism query succeeds.
      "{\"id\": 5, \"k\": 3, \"seed\": 2, \"vmin\": 8, \"seed_count\": 10, "
      "\"measure\": \"homomorphism\"}\n"
      "{\"id\": 6, \"cmd\": \"shutdown\"}\n";
  std::ostringstream err;
  ServeOptions options;
  options.max_inflight = 2;
  options.summary = false;
  ServeStats stats;
  StreamServeResult served =
      ServeStream(*session, requests, options, err, &stats);
  ASSERT_TRUE(served.status.ok()) << served.status;

  std::vector<std::string> lines = Lines(served.out);
  ASSERT_EQ(lines.size(), 6u);  // every request answered, none dropped
  auto line_with = [&lines](std::string_view needle) {
    for (const std::string& line : lines) {
      if (line.find(needle) != std::string::npos) return line;
    }
    return std::string();
  };
  EXPECT_NE(line_with("\"id\":1").find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line_with("\"id\":1").find("pagerank"), std::string::npos);
  EXPECT_NE(line_with("\"id\":2").find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line_with("\"id\":2").find("txn_sample"), std::string::npos);
  EXPECT_NE(line_with("\"id\":3").find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line_with("\"id\":4").find("\"ok\":false"), std::string::npos);
  EXPECT_NE(line_with("\"id\":4").find("txn_of_vertex or txn_map"),
            std::string::npos);
  EXPECT_NE(line_with("\"id\":5").find("\"ok\":true"), std::string::npos);
  EXPECT_EQ(lines.back(),
            "{\"id\":6,\"line\":6,\"ok\":true,\"shutdown\":true}");
  EXPECT_EQ(session->queries_run(), 1);  // only the valid query ran
  EXPECT_EQ(stats.errors, 4);
}

TEST(ServeLoopTest, MixedMeasureConcurrentMatchesSerial) {
  // Interleaved clients asking for different measures must not leak state
  // into each other: the concurrent transcript equals the serial one.
  LabeledGraph g = TestGraph();
  Result<MiningSession> serial_session = TestSession(&g);
  Result<MiningSession> concurrent_session = TestSession(&g);
  ASSERT_TRUE(serial_session.ok());
  ASSERT_TRUE(concurrent_session.ok());

  const std::vector<std::string> measures = {
      "vertex-mis", "edge-mis", "mni", "count", "homomorphism", "mni"};
  std::string requests;
  for (size_t i = 0; i < measures.size(); ++i) {
    requests += StrCat("{\"id\": ", i + 1, ", \"k\": 3, \"seed\": ",
                       200 + i, ", \"vmin\": 8, \"seed_count\": 10, "
                       "\"measure\": \"", measures[i], "\"}\n");
  }
  EXPECT_EQ(SixAnsweredTranscript(*serial_session, requests, 1),
            SixAnsweredTranscript(*concurrent_session, requests, 4));
}

TEST(ServeLoopTest, AnswersEveryRequestAndShutsDownLast) {
  LabeledGraph g = TestGraph();
  Result<MiningSession> session = TestSession(&g);
  ASSERT_TRUE(session.ok()) << session.status();

  const std::string requests =
      "{\"id\": 1, \"k\": 3, \"seed\": 2, \"vmin\": 8, \"seed_count\": 10}\n"
      "\n"
      "{\"id\": \"text-id\", \"k\": 2, \"seed\": 5, \"vmin\": 8, "
      "\"seed_count\": 10}\n"
      "{\"id\": 9, \"k\": 0}\n"
      "not json\n"
      "{\"id\": 10, \"cmd\": \"shutdown\"}\n";
  std::ostringstream err;
  ServeOptions options;
  options.max_inflight = 2;
  ServeStats stats;
  StreamServeResult served =
      ServeStream(*session, requests, options, err, &stats);
  ASSERT_TRUE(served.status.ok()) << served.status;

  std::vector<std::string> lines = Lines(served.out);
  ASSERT_EQ(lines.size(), 5u);  // one response per non-empty request line
  // The shutdown acknowledgment is the final line, after the drain.
  EXPECT_EQ(lines.back(),
            "{\"id\":10,\"line\":6,\"ok\":true,\"shutdown\":true}");
  auto contains = [&lines](std::string_view needle) {
    return std::any_of(lines.begin(), lines.end(),
                       [needle](const std::string& line) {
                         return line.find(needle) != std::string::npos;
                       });
  };
  // "line" is the physical input line: the blank line 2 advances it
  // (that is what keeps client-side correlation unambiguous).
  EXPECT_TRUE(contains("\"id\":1,\"line\":1,\"ok\":true"));
  EXPECT_TRUE(contains("\"id\":\"text-id\",\"line\":3,\"ok\":true"));
  EXPECT_TRUE(contains("\"id\":9,\"line\":4,\"ok\":false"));  // k=0 rejected
  // Unparseable lines echo id null; "line" still pins them to line 5.
  EXPECT_TRUE(contains(
      "{\"id\":null,\"line\":5,\"ok\":false,\"error\":\"InvalidArgument: "
      "bad JSON"));

  EXPECT_EQ(stats.requests, 5);
  EXPECT_EQ(stats.answered, 3);  // 2 queries + shutdown ack
  EXPECT_EQ(stats.errors, 2);
  EXPECT_TRUE(stats.shutdown_requested);
  EXPECT_EQ(session->queries_run(), 2);
  EXPECT_NE(err.str().find("serve: 5 requests"), std::string::npos);
}

TEST(ServeLoopTest, ConcurrentServingMatchesSerialResponses) {
  LabeledGraph g = TestGraph();
  Result<MiningSession> serial_session = TestSession(&g);
  Result<MiningSession> concurrent_session = TestSession(&g);
  ASSERT_TRUE(serial_session.ok());
  ASSERT_TRUE(concurrent_session.ok());

  // The same 6 requests; responses are keyed by id, so after sorting the
  // two transports must agree byte-for-byte except the per-query
  // "seconds" timing, which is rewritten to a fixed token first.
  std::string requests;
  for (int i = 1; i <= 6; ++i) {
    requests += StrCat("{\"id\": ", i, ", \"k\": 3, \"seed\": ", 100 + i,
                       ", \"vmin\": 8, \"seed_count\": 10}\n");
  }
  // A regular file with no shutdown line whose last line is unterminated:
  // poll() always reports it readable, yet every line, the last one
  // included, is answered before the server exits at EOF.
  requests.pop_back();

  EXPECT_EQ(SixAnsweredTranscript(*serial_session, requests, 1),
            SixAnsweredTranscript(*concurrent_session, requests, 4));
}

TEST(ServePrecheckTest, MissingArtifactFailsFast) {
  Status status = PrecheckStage1Artifact("/nonexistent/dir/stage1.sm2");
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("cannot read"), std::string::npos);
}

TEST(ServePrecheckTest, UnrecognizedMagicFailsFast) {
  const std::string path =
      (std::filesystem::temp_directory_path() / "serve_precheck_garbage.bin")
          .string();
  std::ofstream(path, std::ios::binary) << "this is not a stage1 artifact";
  Status status = PrecheckStage1Artifact(path);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("not a stage1 artifact"),
            std::string::npos);
  std::filesystem::remove(path);
}

TEST(ServePrecheckTest, Sm2MagicPassesTheSniff) {
  // The precheck is a four-byte magic sniff, not full validation: its job
  // is to reject obviously-wrong paths before the expensive graph load.
  // Structural errors still surface at LoadStage1.
  const std::string path =
      (std::filesystem::temp_directory_path() / "serve_precheck_magic.bin")
          .string();
  std::ofstream(path, std::ios::binary)
      << std::string(kSm2Magic, 4) << "tail bytes";
  EXPECT_TRUE(PrecheckStage1Artifact(path).ok());
  std::filesystem::remove(path);
}

TEST(ServePrecheckTest, RetiredSm1ArtifactIsRefusedWithAHint) {
  // `.sm1` (magic "SMS1") was the copy-load Stage I format. Neither the
  // precheck nor the loader reads it; both name the command that writes
  // a `.sm2` in its place.
  const std::string path =
      (std::filesystem::temp_directory_path() / "serve_precheck_sm1.bin")
          .string();
  std::ofstream(path, std::ios::binary) << "SMS1" << std::string(200, '\0');
  Status precheck = PrecheckStage1Artifact(path);
  EXPECT_EQ(precheck.code(), StatusCode::kIoError);
  EXPECT_NE(precheck.message().find("re-run `spidermine stage1`"),
            std::string::npos)
      << precheck.ToString();

  LabeledGraph graph = TestGraph();
  Result<MiningSession> loaded =
      MiningSession::LoadStage1(&graph, SessionConfig{}, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("re-run `spidermine stage1`"),
            std::string::npos)
      << loaded.status().ToString();
  std::filesystem::remove(path);
}

TEST(ServePrecheckTest, CmdServeChecksArtifactBeforeGraph) {
  // Both paths are missing; the error must be about the artifact, proving
  // the precheck runs before the graph is loaded (fail fast, not after
  // seconds of graph parsing and pool construction).
  std::ostringstream err;
  Status status = CmdServe({"/nonexistent/graph.bin",
                            "/nonexistent/dir/stage1.sm2"},
                           err);
  ASSERT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_NE(status.message().find("stage1 artifact"), std::string::npos);
}

TEST(ServeLoopTest, RejectsInvalidInflight) {
  LabeledGraph g = TestGraph();
  Result<MiningSession> session = TestSession(&g);
  ASSERT_TRUE(session.ok());
  std::ostringstream err;
  ServeOptions options;
  options.max_inflight = 0;
  ServeTransportOptions transport;
  transport.stream_in_fd = STDIN_FILENO;
  transport.stream_out_fd = STDOUT_FILENO;
  Status status = RunServeServer(*session, transport, err, options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ServeLoopTest, RejectsAStreamTogetherWithAListener) {
  LabeledGraph g = TestGraph();
  Result<MiningSession> session = TestSession(&g);
  ASSERT_TRUE(session.ok());
  std::ostringstream err;
  ServeOptions options;
  ServeTransportOptions transport;
  transport.stream_in_fd = STDIN_FILENO;
  transport.stream_out_fd = STDOUT_FILENO;
  transport.tcp_port = 0;
  Status status = RunServeServer(*session, transport, err, options);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
}

TEST(ServeStreamTest, AtTheInflightCapInputOrderIsKept) {
  // The stream stops framing lines while max_inflight of its queries run,
  // so at a cap of 1 the malformed line 2 waits for query line 1.
  LabeledGraph g = TestGraph();
  Result<MiningSession> session = TestSession(&g);
  ASSERT_TRUE(session.ok());
  std::ostringstream err;
  ServeOptions options;
  options.max_inflight = 1;
  options.summary = false;
  StreamServeResult served = ServeStream(
      *session,
      "{\"id\": 1, \"k\": 3, \"seed\": 2, \"vmin\": 8, \"seed_count\": 10}\n"
      "not json\n",
      options, err);
  ASSERT_TRUE(served.status.ok()) << served.status;
  std::vector<std::string> lines = Lines(served.out);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].rfind("{\"id\":1,\"line\":1,\"ok\":true", 0), 0u)
      << lines[0];
  EXPECT_EQ(lines[1].rfind("{\"id\":null,\"line\":2,\"ok\":false", 0), 0u)
      << lines[1];
}

TEST(ServeStreamTest, EmptyInputReturnsOkWithNoOutput) {
  LabeledGraph g = TestGraph();
  Result<MiningSession> session = TestSession(&g);
  ASSERT_TRUE(session.ok());
  const int dev_null = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(dev_null, 0);
  std::FILE* out = std::tmpfile();
  ASSERT_NE(out, nullptr);
  ServeTransportOptions transport;
  transport.stream_in_fd = dev_null;
  transport.stream_out_fd = ::fileno(out);
  std::ostringstream err;
  ServeOptions options;
  ServeStats stats;
  Status status = RunServeServer(*session, transport, err, options, &stats);
  EXPECT_TRUE(status.ok()) << status;
  EXPECT_EQ(::lseek(::fileno(out), 0, SEEK_END), 0);  // nothing written
  EXPECT_EQ(stats.requests, 0);
  EXPECT_NE(err.str().find("serve: 0 requests"), std::string::npos);
  std::fclose(out);
  ::close(dev_null);
}

TEST(ServeStreamTest, StalledPipeReaderGetsEveryAnswerAndFdsStayUnchanged) {
  // The stream fds are the caller's (stdin/stdout of the shell that ran
  // `serve`): the server must neither close them nor change their flags,
  // and a stdout reader that pauses (`serve ... | less`) must still get
  // every answer and the ack — the stream is never cut by the sockets'
  // drain deadline. The output pipe starts full, and its reader starts
  // only after every query ran, plus longer than that deadline.
  LabeledGraph g = TestGraph();
  Result<MiningSession> session = TestSession(&g);
  ASSERT_TRUE(session.ok());
  int in_pipe[2];
  int out_pipe[2];
  ASSERT_EQ(::pipe(in_pipe), 0);
  ASSERT_EQ(::pipe(out_pipe), 0);
  const int in_flags = ::fcntl(in_pipe[0], F_GETFL);
  const int out_flags = ::fcntl(out_pipe[1], F_GETFL);
  ASSERT_EQ(::fcntl(out_pipe[1], F_SETFL, out_flags | O_NONBLOCK), 0);
  const std::string filler(4096, 'f');
  size_t filled = 0;
  ssize_t n;
  while ((n = ::write(out_pipe[1], filler.data(), filler.size())) > 0) {
    filled += static_cast<size_t>(n);
  }
  ASSERT_EQ(::fcntl(out_pipe[1], F_SETFL, out_flags), 0);
  const std::string requests =
      "{\"id\": 1, \"k\": 3, \"seed\": 1, \"vmin\": 8, \"seed_count\": 10}\n"
      "{\"id\": 2, \"k\": 3, \"seed\": 2, \"vmin\": 8, \"seed_count\": 10}\n"
      "{\"id\": 3, \"k\": 3, \"seed\": 3, \"vmin\": 8, \"seed_count\": 10}\n"
      "{\"id\": 4, \"cmd\": \"shutdown\"}\n";
  ASSERT_EQ(::write(in_pipe[1], requests.data(), requests.size()),
            static_cast<ssize_t>(requests.size()));
  ::close(in_pipe[1]);

  std::string output;
  std::thread reader([&] {
    for (int waits = 0;
         waits < 3000 && session->serving_stats().queries_run < 3; ++waits) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5500));
    char chunk[4096];
    ssize_t got;
    while ((got = ::read(out_pipe[0], chunk, sizeof(chunk))) > 0) {
      output.append(chunk, static_cast<size_t>(got));
    }
  });
  ServeTransportOptions transport;
  transport.stream_in_fd = in_pipe[0];
  transport.stream_out_fd = out_pipe[1];
  std::ostringstream err;
  ServeOptions options;
  options.max_inflight = 4;
  options.summary = false;
  Status status = RunServeServer(*session, transport, err, options);
  EXPECT_TRUE(status.ok()) << status;
  // Still open (fcntl succeeds) and flags unchanged.
  EXPECT_EQ(::fcntl(in_pipe[0], F_GETFL), in_flags);
  EXPECT_EQ(::fcntl(out_pipe[1], F_GETFL), out_flags);

  ::close(out_pipe[1]);
  reader.join();
  ::close(in_pipe[0]);
  ::close(out_pipe[0]);
  ASSERT_GE(output.size(), filled);
  std::vector<std::string> lines = Lines(output.substr(filled));
  ASSERT_EQ(lines.size(), 4u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_NE(lines[i].find("\"ok\":true"), std::string::npos) << lines[i];
  }
  EXPECT_EQ(lines[3], "{\"id\":4,\"line\":4,\"ok\":true,\"shutdown\":true}");
}

TEST(ServeStreamTest, DeadOutputStopsAdmittingQueries) {
  // `serve < big.jsonl | head -c1`: once the output pipe's reader is gone
  // the server must stop running queries nobody will read, not work
  // through the rest of its input.
  LabeledGraph g = TestGraph();
  Result<MiningSession> session = TestSession(&g);
  ASSERT_TRUE(session.ok());
  int out_pipe[2];
  ASSERT_EQ(::pipe(out_pipe), 0);
  ::close(out_pipe[0]);
  std::string requests;
  for (int i = 1; i <= 40; ++i) {
    requests += StrCat("{\"id\": ", i, ", \"k\": 3, \"seed\": ", i,
                       ", \"vmin\": 8, \"seed_count\": 10}\n");
  }
  std::ostringstream err;
  ServeOptions options;
  options.max_inflight = 2;
  options.summary = false;
  StreamServeResult served =
      ServeStream(*session, requests, options, err, nullptr, out_pipe[1]);
  EXPECT_TRUE(served.status.ok()) << served.status;
  ::close(out_pipe[1]);
  EXPECT_LE(session->serving_stats().queries_run, 2);
}

/// A blocking test client over a connected socket: raw sends, line reads.
class TestClient {
 public:
  static TestClient ConnectUnix(const std::string& path) {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_un address{};
    address.sun_family = AF_UNIX;
    std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                        sizeof(address)),
              0)
        << std::strerror(errno);
    return TestClient(fd);
  }
  static TestClient ConnectTcp(int32_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    address.sin_port = htons(static_cast<uint16_t>(port));
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&address),
                        sizeof(address)),
              0)
        << std::strerror(errno);
    return TestClient(fd);
  }

  explicit TestClient(int fd) : fd_(fd) {}
  TestClient(TestClient&& other) noexcept
      : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
    other.fd_ = -1;
  }
  TestClient(const TestClient&) = delete;
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& text) {
    size_t offset = 0;
    while (offset < text.size()) {
      ssize_t n = ::write(fd_, text.data() + offset, text.size() - offset);
      if (n < 0 && errno == EINTR) continue;
      ASSERT_GT(n, 0) << std::strerror(errno);
      offset += static_cast<size_t>(n);
    }
  }

  /// Next '\n'-terminated line (without the newline); "" on EOF.
  std::string ReadLine() {
    for (;;) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string line = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        return line;
      }
      char chunk[512];
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return "";
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  int fd_;
  std::string buffer_;
};

/// Runs RunServeServer on its own thread; the constructor returns once
/// every listener is bound (so clients can connect immediately), Join()
/// returns once the server exited (after a client sent shutdown).
class ServerRunner {
 public:
  ServerRunner(const MiningSession& session, ServeTransportOptions transport,
               const ServeOptions& options) {
    std::promise<ServeEndpoints> ready;
    std::future<ServeEndpoints> ready_future = ready.get_future();
    transport.on_ready = [&ready](const ServeEndpoints& endpoints) {
      ready.set_value(endpoints);
    };
    thread_ = std::thread([this, &session, transport, options] {
      status_ = RunServeServer(session, transport, err_, options, &stats_);
    });
    endpoints_ = ready_future.get();
  }
  ~ServerRunner() {
    if (thread_.joinable()) thread_.join();
  }

  void Join() { thread_.join(); }
  const ServeEndpoints& endpoints() const { return endpoints_; }
  const Status& status() const { return status_; }        // after Join()
  const ServeStats& stats() const { return stats_; }      // after Join()
  std::string err_text() const { return err_.str(); }     // after Join()

 private:
  std::thread thread_;
  ServeEndpoints endpoints_;
  Status status_;
  ServeStats stats_;
  std::ostringstream err_;
};

std::string TempSocketPath(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          StrCat("sm_serve_", tag, "_", ::getpid(), ".sock"))
      .string();
}

/// Rewrites the per-request "seconds" timing to a fixed token so
/// responses compare byte-for-byte across transports and cache hits.
std::string NormalizeSeconds(std::string line) {
  const size_t begin = line.find("\"seconds\":");
  const size_t end = line.find(",\"timed_out\"");
  if (begin != std::string::npos && end != std::string::npos) {
    line.replace(begin, end - begin, "\"seconds\":X");
  }
  return line;
}

/// Rewrites the "line" correlation key to a fixed token: per-connection
/// line numbers legitimately differ from the serial stream's.
std::string NormalizeLineKey(std::string line) {
  const size_t key = line.find(",\"line\":");
  if (key == std::string::npos) return line;
  const size_t value_begin = key + std::string(",\"line\":").size();
  const size_t value_end = line.find(',', value_begin);
  if (value_end != std::string::npos) {
    line.replace(value_begin, value_end - value_begin, "X");
  }
  return line;
}

TEST(ServeServerTest, ConcurrentClientsMatchSerialByteForByte) {
  LabeledGraph g = TestGraph();
  Result<MiningSession> server_session = TestSession(&g);
  Result<MiningSession> serial_session = TestSession(&g);
  ASSERT_TRUE(server_session.ok()) << server_session.status();
  ASSERT_TRUE(serial_session.ok());

  // 4 clients x 2 interleaved requests each, every query distinct.
  const std::string socket_path = TempSocketPath("multi");
  ServeTransportOptions transport;
  transport.socket_path = socket_path;
  ServeOptions options;
  // Every client pipelines its second request before reading the first
  // response, so all 8 can be in flight at once; admit them all (the
  // admission gate has its own dedicated test below).
  options.max_inflight = 8;
  options.summary = false;
  ServerRunner server(*server_session, transport, options);

  std::vector<TestClient> clients;
  for (int c = 0; c < 4; ++c) {
    clients.push_back(TestClient::ConnectUnix(socket_path));
  }
  auto request = [](int id) {
    return StrCat("{\"id\": ", id, ", \"k\": 3, \"seed\": ", 100 + id,
                  ", \"vmin\": 8, \"seed_count\": 10}\n");
  };
  // Interleave: every client sends its first request before any sends its
  // second, so requests from different connections overlap in flight.
  for (int c = 0; c < 4; ++c) clients[static_cast<size_t>(c)].Send(request(c + 1));
  for (int c = 0; c < 4; ++c) clients[static_cast<size_t>(c)].Send(request(c + 5));
  std::vector<std::string> server_lines;
  for (int c = 0; c < 4; ++c) {
    server_lines.push_back(clients[static_cast<size_t>(c)].ReadLine());
    server_lines.push_back(clients[static_cast<size_t>(c)].ReadLine());
  }
  clients[0].Send("{\"id\": 99, \"cmd\": \"shutdown\"}\n");
  const std::string ack = clients[0].ReadLine();
  EXPECT_NE(ack.find("\"shutdown\":true"), std::string::npos) << ack;
  EXPECT_EQ(clients[0].ReadLine(), "");  // server closed the connection
  server.Join();
  ASSERT_TRUE(server.status().ok()) << server.status();
  EXPECT_TRUE(server.stats().shutdown_requested);
  EXPECT_FALSE(std::filesystem::exists(socket_path));  // unlinked on exit

  // The same 8 queries through the serial stream on a fresh session.
  std::string requests;
  for (int id = 1; id <= 8; ++id) requests += request(id);
  std::ostringstream err;
  ServeOptions serial_options;
  serial_options.max_inflight = 1;
  serial_options.summary = false;
  StreamServeResult serial =
      ServeStream(*serial_session, requests, serial_options, err);
  ASSERT_TRUE(serial.status.ok()) << serial.status;
  std::vector<std::string> serial_lines = Lines(serial.out);

  ASSERT_EQ(server_lines.size(), serial_lines.size());
  for (auto* lines : {&server_lines, &serial_lines}) {
    for (std::string& line : *lines) {
      line = NormalizeLineKey(NormalizeSeconds(std::move(line)));
    }
    std::sort(lines->begin(), lines->end());
  }
  EXPECT_EQ(server_lines, serial_lines);
}

TEST(ServeServerTest, IdleClientDoesNotStallOthers) {
  LabeledGraph g = TestGraph();
  Result<MiningSession> session = TestSession(&g);
  ASSERT_TRUE(session.ok());

  const std::string socket_path = TempSocketPath("stall");
  ServeTransportOptions transport;
  transport.socket_path = socket_path;
  ServeOptions options;
  options.max_inflight = 2;
  options.summary = false;
  ServerRunner server(*session, transport, options);

  // The serial server accepted one connection at a time: an idle first
  // client starved everyone behind it. The event loop must answer the
  // second client while the first stays silent.
  TestClient idle = TestClient::ConnectUnix(socket_path);
  TestClient active = TestClient::ConnectUnix(socket_path);
  active.Send(
      "{\"id\": 1, \"k\": 3, \"seed\": 7, \"vmin\": 8, \"seed_count\": 10}\n");
  const std::string response = active.ReadLine();
  EXPECT_NE(response.find("\"id\":1,\"line\":1,\"ok\":true"),
            std::string::npos)
      << response;
  active.Send("{\"cmd\": \"shutdown\"}\n");
  EXPECT_NE(active.ReadLine().find("\"shutdown\":true"), std::string::npos);
  EXPECT_EQ(idle.ReadLine(), "");  // shutdown closes the idle client too
  server.Join();
  ASSERT_TRUE(server.status().ok()) << server.status();
}

TEST(ServeServerTest, OverloadedRequestsAreRejectedImmediately) {
  LabeledGraph g = TestGraph();
  Result<MiningSession> session = TestSession(&g);
  ASSERT_TRUE(session.ok());

  const std::string socket_path = TempSocketPath("overload");
  ServeTransportOptions transport;
  transport.socket_path = socket_path;
  ServeOptions options;
  options.max_inflight = 1;
  options.summary = false;
  ServerRunner server(*session, transport, options);

  // Both request lines arrive in one segment, so the loop frames and
  // processes them back-to-back: the first occupies the only admission
  // slot, the second MUST be rejected (the gate never queues).
  TestClient client = TestClient::ConnectUnix(socket_path);
  client.Send(
      "{\"id\": 1, \"k\": 3, \"seed\": 7, \"restarts\": 3, \"vmin\": 8, "
      "\"seed_count\": 10}\n"
      "{\"id\": 2, \"k\": 3, \"seed\": 8, \"vmin\": 8, "
      "\"seed_count\": 10}\n");
  std::string first = client.ReadLine();
  std::string second = client.ReadLine();
  // The rejection is synchronous, the admitted query's response is not —
  // order by the "line" key instead of arrival.
  if (first.find("\"line\":1") == std::string::npos) std::swap(first, second);
  EXPECT_NE(first.find("\"id\":1,\"line\":1,\"ok\":true"), std::string::npos)
      << first;
  EXPECT_NE(second.find("\"id\":2,\"line\":2,\"ok\":false,\"error\":"
                        "\"overloaded\",\"retry_after_ms\":"),
            std::string::npos)
      << second;
  client.Send("{\"cmd\": \"shutdown\"}\n");
  EXPECT_NE(client.ReadLine().find("\"shutdown\":true"), std::string::npos);
  server.Join();
  ASSERT_TRUE(server.status().ok()) << server.status();
  EXPECT_EQ(server.stats().rejected, 1);
}

TEST(ServeServerTest, ShutdownLineIsTheLastLineRead) {
  LabeledGraph g = TestGraph();
  Result<MiningSession> session = TestSession(&g);
  ASSERT_TRUE(session.ok());

  const std::string socket_path = TempSocketPath("lastline");
  ServeTransportOptions transport;
  transport.socket_path = socket_path;
  ServeOptions options;
  options.summary = false;
  ServerRunner server(*session, transport, options);

  // Both lines arrive in one segment; the query after the shutdown line
  // is never read, so the ack is the only reply before EOF.
  TestClient client = TestClient::ConnectUnix(socket_path);
  client.Send(
      "{\"cmd\": \"shutdown\"}\n"
      "{\"id\": 1, \"k\": 3, \"seed\": 7, \"vmin\": 8, "
      "\"seed_count\": 10}\n");
  EXPECT_EQ(client.ReadLine(),
            "{\"id\":null,\"line\":1,\"ok\":true,\"shutdown\":true}");
  EXPECT_EQ(client.ReadLine(), "");
  server.Join();
  ASSERT_TRUE(server.status().ok()) << server.status();
  EXPECT_EQ(server.stats().requests, 1);
  EXPECT_EQ(session->queries_run(), 0);
}

TEST(ServeServerTest, TcpTransportAndCacheHitsAreByteIdentical) {
  LabeledGraph g = TestGraph();
  Result<MiningSession> session = TestSession(&g);
  ASSERT_TRUE(session.ok());

  ResultCache cache(ResultCacheConfig{});
  ServeTransportOptions transport;
  transport.tcp_port = 0;  // ephemeral, reported via on_ready
  ServeOptions options;
  options.max_inflight = 2;
  options.summary = false;
  options.cache = &cache;
  ServerRunner server(*session, transport, options);
  ASSERT_GT(server.endpoints().tcp_port, 0);

  // The same query from two TCP clients, sequentially: the second is a
  // cache hit — byte-identical modulo the "seconds" timing — and bypasses
  // RunQuery (queries_run stays 1). `restarts` differs on purpose: a
  // negative value resolves to the default 1, and the canonical hash is
  // taken after resolution.
  const std::string query =
      "{\"id\": 1, \"k\": 3, \"seed\": 7, \"vmin\": 8, \"seed_count\": 10";
  TestClient first = TestClient::ConnectTcp(server.endpoints().tcp_port);
  first.Send(query + "}\n");
  const std::string cold = first.ReadLine();
  EXPECT_NE(cold.find("\"ok\":true"), std::string::npos) << cold;

  TestClient second = TestClient::ConnectTcp(server.endpoints().tcp_port);
  second.Send(query + ", \"restarts\": -1}\n");
  const std::string warm = second.ReadLine();
  EXPECT_EQ(NormalizeSeconds(cold), NormalizeSeconds(warm));
  EXPECT_EQ(session->queries_run(), 1);
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(cache.stats().misses, 1);

  second.Send("{\"cmd\": \"shutdown\"}\n");
  EXPECT_NE(second.ReadLine().find("\"shutdown\":true"), std::string::npos);
  server.Join();
  ASSERT_TRUE(server.status().ok()) << server.status();
  // The summary was suppressed, but the cache counters reach the serving
  // snapshot that a summary would render.
  EXPECT_EQ(cache.stats().entries, 1);
}

}  // namespace
}  // namespace spidermine::cli
