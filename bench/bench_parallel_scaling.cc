// Parallel-scaling bench: builds one MiningSession per measured thread
// count (the cold Stage I pass) and serves queries against it, emitting
// one JSON object per run with the cold and warm latencies, the Stage I
// amortization factor (cold stage1 seconds / warm query seconds), the
// speedups against the single-thread baseline, the Stage I spider-store
// footprint and the process peak RSS. The pipeline is deterministic at any
// thread count and any Stage I shard grain, so the runs do the same
// logical work and the speedup isolates parallelization overhead.
//
//   $ ./bench_parallel_scaling --vertices=100000 --max-threads=8
//   {"bench":"parallel_scaling","threads":1,...}
//   {"bench":"parallel_scaling","threads":2,...}
//
// The ROADMAP's multi-million-vertex target runs on a scale-free graph
// with a Stage I budget, demonstrating the O(max_spiders) global-budget
// memory bound (vs the old num_labels x max_spiders transient blowup):
//
//   $ ./bench_parallel_scaling --model=ba --vertices=2000000 --max-spiders=200000 --stage1-only --max-threads=8
//
// One ThreadPool per thread count is built up front and handed to the
// session via SessionConfig::pool, so the rows measure mining, not thread
// spawning.
//
// With --concurrent-queries=K the bench instead measures the end-to-end
// serving throughput of the multi-client socket server (RunServeServer,
// tools/serve_loop.h) — real unix-socket connections, the event loop,
// framing, the admission gate and the worker pool all on the measured
// path, not just RunQuery. For each connection count C = 1, 2, 4, ... K
// it starts a fresh server with --max-inflight=C, connects C closed-loop
// clients (send one request, read the response, repeat) draining a fixed
// batch of distinct-seed queries, and emits queries/sec vs connections:
//
//   $ ./bench_parallel_scaling --vertices=20000 --concurrent-queries=8
//   {"bench":"serve_throughput","connections":1,"inflight":1,"qps":...}
//   {"bench":"serve_throughput","connections":2,"inflight":2,"qps":...}
//
// The session (and its result cache, disabled here so every query is a
// real recomputation) is shared across rows; only the server and the
// connections are rebuilt per row. --min-conn-speedup=<x> turns the last
// row's throughput_speedup_vs_1conn into a pass/fail bar (exit 1 below
// it); it is off by default because the speedup is hardware-bound.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <future>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/flags.h"
#include "common/strings.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "gen/barabasi_albert.h"
#include "gen/erdos_renyi.h"
#include "gen/injection.h"
#include "gen/pattern_factory.h"
#include "graph/graph_builder.h"
#include "tools/serve_loop.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#endif

namespace {

#if defined(__unix__) || defined(__APPLE__)

/// One closed-loop bench client: a connected unix-socket fd plus a read
/// buffer for newline framing. Each thread owns one; no sharing.
class BenchClient {
 public:
  static std::optional<BenchClient> Connect(const std::string& path) {
    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) return std::nullopt;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      ::close(fd);
      return std::nullopt;
    }
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd);
      return std::nullopt;
    }
    return BenchClient(fd);
  }

  BenchClient(BenchClient&& other) noexcept
      : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
    other.fd_ = -1;
  }
  BenchClient(const BenchClient&) = delete;
  BenchClient& operator=(const BenchClient&) = delete;
  BenchClient& operator=(BenchClient&&) = delete;
  ~BenchClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          ::send(fd_, data.data() + sent, data.size() - sent, 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  /// Next newline-terminated response (without the newline); "" on EOF.
  std::string ReadLine() {
    for (;;) {
      const size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        std::string line = buffer_.substr(0, pos);
        buffer_.erase(0, pos + 1);
        return line;
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return std::string();
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  explicit BenchClient(int fd) : fd_(fd) {}
  int fd_;
  std::string buffer_;
};

#endif  // unix

int Run(int argc, const char* const* argv) {
  using namespace spidermine;
  FlagSet flags("bench_parallel_scaling",
                "SpiderMine stage timings vs thread count (JSON rows)");
  flags.AddString("model", "er", "background graph model: er | ba")
      .AddInt("vertices", 100000, "background graph vertices")
      .AddDouble("avg-degree", 2.5, "background average degree (er)")
      .AddInt("ba-edges", 2, "edges per new vertex (ba)")
      .AddInt("labels", 60, "vertex label count")
      .AddInt("inject-vertices", 16, "planted pattern size (0 = none)")
      .AddInt("inject-count", 4, "planted embeddings")
      .AddInt("support", 3, "support threshold sigma")
      .AddInt("k", 10, "top-K")
      .AddInt("dmax", 4, "pattern diameter bound")
      .AddInt("seed", 42, "rng seed (graph and miner)")
      .AddInt("seed-count", 64, "seed spider draw M (0 = paper formula)")
      .AddInt("max-spiders", 0, "Stage I global spider budget (0 = none)")
      .AddInt("shard-grain", 0, "Stage I vertex-range shard grain (0 = auto)")
      .AddBool("stage1-only", false,
               "stop after Stage I (memory/scaling runs on huge graphs)")
      .AddInt("max-threads", 8, "largest thread count measured (doubling)")
      .AddInt("concurrent-queries", 0,
              "serve-throughput mode: drive the socket server with 1,2,4.. "
              "up to this many concurrent client connections (0 = off)")
      .AddInt("queries-per-round", 0,
              "total queries per serve-throughput row (0 = 4x the largest "
              "connection count)")
      .AddDouble("min-conn-speedup", 0.0,
                 "fail (exit 1) if the last serve-throughput row's speedup "
                 "vs 1 connection is below this (0 = no bar)");
  Status status = flags.Parse(argc, argv);
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n%s", status.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }

  Rng rng(static_cast<uint64_t>(flags.GetInt("seed")));
  const std::string model = flags.GetString("model");
  GraphBuilder builder =
      model == "ba"
          ? GenerateBarabasiAlbert(
                flags.GetInt("vertices"),
                static_cast<int32_t>(flags.GetInt("ba-edges")),
                static_cast<LabelId>(flags.GetInt("labels")), &rng)
          : GenerateErdosRenyi(flags.GetInt("vertices"),
                               flags.GetDouble("avg-degree"),
                               static_cast<LabelId>(flags.GetInt("labels")),
                               &rng);
  if (flags.GetInt("inject-vertices") > 0) {
    Pattern planted = RandomConnectedPattern(
        static_cast<int32_t>(flags.GetInt("inject-vertices")), 0.1,
        static_cast<LabelId>(flags.GetInt("labels")), &rng);
    PatternInjector injector(&builder);
    status = injector.Inject(
        planted, static_cast<int32_t>(flags.GetInt("inject-count")), &rng);
    if (!status.ok()) {
      std::fprintf(stderr, "inject: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  Result<LabeledGraph> built = builder.Build();
  if (!built.ok()) {
    std::fprintf(stderr, "build: %s\n", built.status().ToString().c_str());
    return 1;
  }
  const LabeledGraph& graph = *built;

  const auto concurrent =
      static_cast<int32_t>(flags.GetInt("concurrent-queries"));
  bench::Banner("parallel_scaling",
                concurrent > 0
                    ? "socket-server throughput (queries/sec) vs concurrent "
                      "client connections"
                    : "cold stage1 + warm query seconds vs --threads; "
                      "deterministic workload");

  SessionConfig session_config;
  session_config.min_support = flags.GetInt("support");
  session_config.max_spiders = flags.GetInt("max-spiders");
  session_config.stage1_shard_grain = flags.GetInt("shard-grain");
  TopKQuery query;
  query.k = static_cast<int32_t>(flags.GetInt("k"));
  query.dmax = static_cast<int32_t>(flags.GetInt("dmax"));
  query.vmin = 8;
  query.rng_seed = static_cast<uint64_t>(flags.GetInt("seed"));
  query.seed_count_override = flags.GetInt("seed-count");
  const bool stage1_only = flags.GetBool("stage1-only");

  if (concurrent > 0) {
#if defined(__unix__) || defined(__APPLE__)
    // ---- Serve-throughput mode: the real multi-client socket server. ----
    // One session shared across rows; per row a fresh RunServeServer with
    // --max-inflight matching the connection count, C closed-loop clients
    // over real unix-socket connections. Event loop, framing, admission
    // and worker-pool dispatch are all inside the measured wall time.
    session_config.num_threads = 0;
    std::optional<MiningSession> session;
    const double cold_seconds =
        bench::BuildMiningSession(graph, session_config, &session);
    if (!session.has_value()) return 1;
    int64_t total_queries = flags.GetInt("queries-per-round");
    if (total_queries <= 0) total_queries = 4LL * concurrent;
    const std::string socket_path =
        "/tmp/spidermine_bench_serve_" + std::to_string(::getpid()) + ".sock";
    double baseline_qps = 0.0;
    double last_speedup = 0.0;
    for (int32_t connections = 1; connections <= concurrent;
         connections *= 2) {
      cli::ServeTransportOptions transport;
      transport.socket_path = socket_path;
      std::promise<void> ready;
      transport.on_ready =
          [&ready](const cli::ServeEndpoints&) { ready.set_value(); };
      cli::ServeOptions serve_options;
      serve_options.max_inflight = connections;
      serve_options.summary = false;
      cli::ServeStats serve_stats;
      std::ostringstream server_err;
      Status server_status;
      std::thread server([&] {
        server_status = cli::RunServeServer(*session, transport, server_err,
                                            serve_options, &serve_stats);
      });
      ready.get_future().wait();

      std::atomic<int64_t> next{0};
      std::atomic<int64_t> failed{0};
      WallTimer timer;
      std::vector<std::thread> clients;
      clients.reserve(static_cast<size_t>(connections));
      for (int32_t c = 0; c < connections; ++c) {
        // Closed-loop clients drain a shared work list of distinct-seed
        // queries (a mixed workload: no two requests share a cache line).
        clients.emplace_back([&, c] {
          std::optional<BenchClient> client =
              BenchClient::Connect(socket_path);
          if (!client.has_value()) {
            failed.fetch_add(total_queries);  // poison the row visibly
            return;
          }
          for (;;) {
            const int64_t i = next.fetch_add(1);
            if (i >= total_queries) return;
            const std::string request = StrCat(
                "{\"id\": ", i + 1, ", \"k\": ", query.k,
                ", \"dmax\": ", query.dmax, ", \"vmin\": ", query.vmin,
                ", \"seed\": ", query.rng_seed + static_cast<uint64_t>(i),
                ", \"seed_count\": ", query.seed_count_override, "}\n");
            if (!client->Send(request)) {
              failed.fetch_add(1);
              return;
            }
            const std::string response = client->ReadLine();
            if (response.find("\"ok\":true") == std::string::npos) {
              failed.fetch_add(1);
            }
          }
          (void)c;
        });
      }
      for (std::thread& client : clients) client.join();
      const double wall = timer.ElapsedSeconds();

      std::optional<BenchClient> controller =
          BenchClient::Connect(socket_path);
      if (controller.has_value()) {
        controller->Send("{\"cmd\": \"shutdown\"}\n");
        (void)controller->ReadLine();  // the shutdown ack
      }
      server.join();
      if (!server_status.ok()) {
        std::fprintf(stderr, "serve: %s\n%s",
                     server_status.ToString().c_str(),
                     server_err.str().c_str());
        return 1;
      }

      // `answered` counts every ok response including the shutdown ack;
      // the row reports real queries only.
      const int64_t served =
          serve_stats.answered - (serve_stats.shutdown_requested ? 1 : 0);
      const double qps =
          wall > 0.0 ? static_cast<double>(served) / wall : 0.0;
      if (connections == 1) baseline_qps = qps;
      last_speedup = baseline_qps > 0.0 ? qps / baseline_qps : 0.0;
      std::printf(
          "{\"bench\":\"serve_throughput\",\"model\":\"%s\","
          "\"vertices\":%lld,\"edges\":%lld,\"pool_threads\":%d,"
          "\"hardware_concurrency\":%u,\"connections\":%d,\"inflight\":%d,\"queries\":%lld,"
          "\"failed\":%lld,\"rejected\":%lld,\"cold_seconds\":%.4f,"
          "\"wall_seconds\":%.4f,\"qps\":%.3f,"
          "\"throughput_speedup_vs_1conn\":%.3f}\n",
          model.c_str(), static_cast<long long>(graph.NumVertices()),
          static_cast<long long>(graph.NumEdges()),
          ThreadPool::DefaultThreads(), std::thread::hardware_concurrency(),
          connections, connections,
          static_cast<long long>(served),
          static_cast<long long>(failed.load()),
          static_cast<long long>(serve_stats.rejected), cold_seconds, wall,
          qps, last_speedup);
      std::fflush(stdout);
      if (failed.load() > 0) {
        std::fprintf(stderr, "serve_throughput: %lld failed responses\n",
                     static_cast<long long>(failed.load()));
        return 1;
      }
    }
    const double bar = flags.GetDouble("min-conn-speedup");
    if (bar > 0.0 && last_speedup < bar) {
      std::fprintf(stderr,
                   "serve_throughput: speedup %.3f below --min-conn-speedup "
                   "%.3f\n",
                   last_speedup, bar);
      return 1;
    }
    return 0;
#else
    std::fprintf(stderr,
                 "--concurrent-queries needs unix sockets; unsupported on "
                 "this platform\n");
    return 2;
#endif
  }

  std::vector<int32_t> thread_counts = {1};
  const int32_t max_threads =
      std::max<int32_t>(1, static_cast<int32_t>(flags.GetInt("max-threads")));
  for (int32_t t = 2; t <= max_threads; t *= 2) thread_counts.push_back(t);

  double baseline_total = 0.0;
  double baseline_stage1 = 0.0;
  double baseline_query = 0.0;
  for (int32_t threads : thread_counts) {
    // One pool per measured thread count, owned here and handed to the
    // session via SessionConfig::pool: its queries reuse the same workers.
    ThreadPool pool(threads);
    session_config.num_threads = threads;
    session_config.pool = &pool;
    std::optional<MiningSession> session;
    // Cold: the one-time Stage I pass (spider mining + index build).
    const double cold_seconds =
        bench::BuildMiningSession(graph, session_config, &session);
    session_config.pool = nullptr;
    if (!session.has_value()) return 1;
    const MineStats& s1 = session->stage1_stats();
    // Warm: one full top-K query served from the cached store. With
    // --stage1-only the row measures spider mining alone (no growth, no
    // seed embedding pools), matching the memory-bound experiments.
    QueryResult result;
    double query_seconds = 0.0;
    if (!stage1_only) {
      query_seconds = bench::RunSessionQuery(&*session, query, &result);
    }
    const double seconds = cold_seconds + query_seconds;
    const MineStats& qs = result.stats;
    const double growth = qs.stage2_seconds + qs.stage3_seconds;
    if (threads == 1) {
      baseline_total = seconds;
      baseline_stage1 = s1.stage1_seconds;
      baseline_query = query_seconds;
    }
    auto ratio = [](double base, double now) {
      return now > 0.0 ? base / now : 0.0;
    };
    std::printf(
        "{\"bench\":\"parallel_scaling\",\"model\":\"%s\",\"vertices\":%lld,"
        "\"edges\":%lld,\"hardware_concurrency\":%u,\"threads\":%d,"
        "\"shard_grain\":%lld,"
        "\"patterns\":%zu,\"spiders\":%lld,\"scan_shards\":%lld,"
        "\"enum_shards\":%lld,\"stage1_seconds\":%.4f,"
        "\"growth_seconds\":%.4f,\"total_seconds\":%.4f,"
        "\"cold_seconds\":%.4f,\"warm_query_seconds\":%.4f,"
        "\"stage1_amortization\":%.2f,"
        "\"speedup_stage1\":%.3f,\"speedup_query\":%.3f,"
        "\"speedup_total\":%.3f,\"store_bytes\":%lld,"
        "\"peak_rss_mb\":%.1f}\n",
        model.c_str(), static_cast<long long>(graph.NumVertices()),
        static_cast<long long>(graph.NumEdges()),
        std::thread::hardware_concurrency(), threads,
        static_cast<long long>(session_config.stage1_shard_grain),
        result.patterns.size(), static_cast<long long>(s1.num_spiders),
        static_cast<long long>(s1.stage1_scan_shards),
        static_cast<long long>(s1.stage1_enum_shards), s1.stage1_seconds,
        growth, seconds, cold_seconds, query_seconds,
        ratio(s1.stage1_seconds, query_seconds),
        ratio(baseline_stage1, s1.stage1_seconds),
        ratio(baseline_query, query_seconds),
        ratio(baseline_total, seconds),
        static_cast<long long>(s1.stage1_store_bytes),
        static_cast<double>(bench::PeakRssBytes()) / (1024.0 * 1024.0));
    std::fflush(stdout);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return Run(argc, argv); }
