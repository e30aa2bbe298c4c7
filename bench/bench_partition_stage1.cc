// Out-of-core partitioned Stage I: wall time and PER-PROCESS peak RSS of
// the partition -> per-partition mine -> merge pipeline vs the single-node
// baseline on a Barabasi-Albert graph.
//
// Every phase runs in a FORKED child measured by wait4's rusage, so each
// reported peak RSS is that phase's own high-water mark — the parent never
// loads the graph, exactly like the `stage1 --workers` driver. The workers
// run sequentially on purpose: the bench measures the memory bound of one
// worker, not machine throughput. The exit bar is exactness: the merged
// artifact must be byte-identical to the baseline's.
//
// Honest caveat recorded in the JSON: per-worker RSS is bounded by the
// partition PLUS its threshold-1 local enumeration, and on a hub-heavy BA
// partition the halo (and hence the local star set) can approach the full
// graph's — the bound the pipeline guarantees is "never the whole graph in
// one heap at once", not a 1/P split of the baseline.
//
// Output: a single JSON object on stdout (committed as
// BENCH_partition_stage1.json by tools/run_bench_trajectory.sh).

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "gen/barabasi_albert.h"
#include "graph/binary_io.h"
#include "graph/graph_builder.h"
#include "graph/graph_partition.h"
#include "spidermine/session.h"
#include "spidermine/stage1_partition.h"

namespace spidermine::bench {
namespace {

struct PhaseResult {
  double seconds = 0;
  int64_t peak_rss_bytes = 0;
  int exit_code = -1;
};

/// Runs \p body in a forked child and reports ITS wall time and peak RSS
/// (ru_maxrss of the child, not of this process).
PhaseResult RunPhase(const char* name, const std::function<int()>& body) {
  std::fprintf(stderr, "phase %s...\n", name);
  WallTimer timer;
  const pid_t pid = ::fork();
  if (pid < 0) {
    std::perror("fork");
    return {};
  }
  if (pid == 0) {
    ::_exit(body());
  }
  int status = 0;
  struct rusage usage {};
  if (::wait4(pid, &status, 0, &usage) < 0) {
    std::perror("wait4");
    return {};
  }
  PhaseResult result;
  result.seconds = timer.ElapsedSeconds();
  result.peak_rss_bytes = static_cast<int64_t>(usage.ru_maxrss) * 1024;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : 128;
  std::fprintf(stderr, "phase %s: %.2fs, peak rss %lld MiB, exit %d\n",
               name, result.seconds,
               static_cast<long long>(result.peak_rss_bytes >> 20),
               result.exit_code);
  return result;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

int Main(int argc, char** argv) {
  FlagSet flags("bench_partition_stage1",
                "partitioned vs single-node Stage I: time, per-process "
                "RSS, byte identity");
  flags.AddInt("vertices", 2'000'000, "BA graph vertices")
      .AddInt("ba-edges", 2, "edges per new vertex")
      .AddInt("labels", 24, "vertex label alphabet")
      .AddInt("partitions", 4, "partition count")
      .AddInt("support", 3, "support floor sigma")
      .AddInt("max-leaves", 4, "max star leaves")
      .AddInt("threads", 0, "threads per phase (0 = all cores)");
  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.Usage().c_str());
    return 2;
  }
  const int64_t vertices = flags.GetInt("vertices");
  const int32_t partitions =
      static_cast<int32_t>(flags.GetInt("partitions"));
  const int64_t support = flags.GetInt("support");
  const int32_t max_leaves =
      static_cast<int32_t>(flags.GetInt("max-leaves"));
  const int32_t threads = static_cast<int32_t>(flags.GetInt("threads"));

  std::fprintf(stderr,
               "# partition_stage1: out-of-core partitioned Stage I vs "
               "single-node (%lld vertices, %d partitions)\n",
               static_cast<long long>(vertices), partitions);

  const auto dir = std::filesystem::temp_directory_path();
  const std::string graph_path = (dir / "bench_partition.smg").string();
  const std::string single_path = (dir / "bench_partition_single.sm2").string();
  const std::string merged_path = (dir / "bench_partition_merged.sm2").string();
  auto part_path = [&](int32_t p) {
    return (dir / StrCat("bench_partition_", p, ".smgp")).string();
  };
  auto partial_path = [&](int32_t p) {
    return (dir / StrCat("bench_partition_", p, ".sm2p")).string();
  };

  // Generate in a child too, so the parent's RSS stays flat for the whole
  // bench (the graph never lives in this process).
  {
    PhaseResult gen = RunPhase("generate", [&] {
      Rng rng(20260808);
      GraphBuilder builder = GenerateBarabasiAlbert(
          vertices, static_cast<int32_t>(flags.GetInt("ba-edges")),
          static_cast<LabelId>(flags.GetInt("labels")), &rng);
      Result<LabeledGraph> graph = builder.Build();
      if (!graph.ok()) return 1;
      return SaveGraphBinary(*graph, graph_path).ok() ? 0 : 1;
    });
    if (gen.exit_code != 0) return 1;
  }

  // Single-node baseline: the whole graph + the whole store in one heap.
  const PhaseResult baseline = RunPhase("baseline", [&] {
    Result<LabeledGraph> graph = LoadGraphBinary(graph_path);
    if (!graph.ok()) return 1;
    SessionConfig config;
    config.min_support = support;
    config.max_star_leaves = max_leaves;
    config.num_threads = threads;
    Result<MiningSession> session = MiningSession::Create(&*graph, config);
    if (!session.ok()) return 1;
    return session->SaveStage1(single_path).ok() ? 0 : 1;
  });
  if (baseline.exit_code != 0) return 1;

  // Partition phase: the only out-of-core step that touches the full
  // graph (one pass, then it is freed with the child).
  const PhaseResult partition = RunPhase("partition", [&] {
    Result<LabeledGraph> graph = LoadGraphBinary(graph_path);
    if (!graph.ok()) return 1;
    Result<PartitionPlan> plan = MakePartitionPlan(*graph, partitions, 1);
    if (!plan.ok()) return 1;
    for (int32_t p = 0; p < partitions; ++p) {
      Result<GraphPartition> part = BuildGraphPartition(*graph, *plan, p);
      if (!part.ok()) return 1;
      if (!SaveGraphPartition(*part, part_path(p)).ok()) return 1;
    }
    return 0;
  });
  if (partition.exit_code != 0) return 1;

  // One worker per partition, sequential: each child's RSS is the memory
  // bound of a `stage1 --workers` worker process.
  std::vector<PhaseResult> workers;
  for (int32_t p = 0; p < partitions; ++p) {
    workers.push_back(RunPhase(StrCat("worker_", p).c_str(), [&] {
      Result<GraphPartition> part = LoadGraphPartition(part_path(p));
      if (!part.ok()) return 1;
      Stage1PartialConfig config;
      config.min_support = support;
      config.max_star_leaves = max_leaves;
      ThreadPool pool(threads > 0 ? threads : ThreadPool::DefaultThreads());
      Result<Stage1PartialResult> partial =
          MineStage1Partial(*part, config, pool);
      if (!partial.ok()) return 1;
      const Status saved =
          SaveStage1Partial(partial->store, partial->meta, partial_path(p));
      return saved.ok() ? 0 : 1;
    }));
    if (workers.back().exit_code != 0) return 1;
  }

  // Merge: graph-free, streaming over the mapped partials.
  const PhaseResult merge = RunPhase("merge", [&] {
    std::vector<std::string> paths;
    for (int32_t p = 0; p < partitions; ++p) {
      paths.push_back(partial_path(p));
    }
    return MergeStage1PartialsToFile(paths, merged_path).ok() ? 0 : 1;
  });
  if (merge.exit_code != 0) return 1;

  const std::string single_bytes = ReadAll(single_path);
  const bool byte_identical =
      !single_bytes.empty() && single_bytes == ReadAll(merged_path);

  int64_t max_worker_rss = 0;
  double workers_total_seconds = 0;
  for (const PhaseResult& worker : workers) {
    max_worker_rss = std::max(max_worker_rss, worker.peak_rss_bytes);
    workers_total_seconds += worker.seconds;
  }

  std::printf(
      "{\n"
      "  \"bench\": \"partition_stage1\",\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"vertices\": %lld,\n"
      "  \"partitions\": %d,\n"
      "  \"support\": %lld,\n"
      "  \"max_leaves\": %d,\n"
      "  \"artifact_bytes\": %lld,\n"
      "  \"byte_identical\": %s,\n"
      "  \"baseline\": {\"seconds\": %.2f, \"peak_rss_bytes\": %lld},\n"
      "  \"partition_phase\": {\"seconds\": %.2f, \"peak_rss_bytes\": "
      "%lld},\n"
      "  \"workers\": [",
      std::thread::hardware_concurrency(),
      static_cast<long long>(vertices), partitions,
      static_cast<long long>(support), max_leaves,
      static_cast<long long>(single_bytes.size()),
      byte_identical ? "true" : "false", baseline.seconds,
      static_cast<long long>(baseline.peak_rss_bytes), partition.seconds,
      static_cast<long long>(partition.peak_rss_bytes));
  for (size_t p = 0; p < workers.size(); ++p) {
    std::printf("%s\n    {\"seconds\": %.2f, \"peak_rss_bytes\": %lld}",
                p == 0 ? "" : ",", workers[p].seconds,
                static_cast<long long>(workers[p].peak_rss_bytes));
  }
  std::printf(
      "\n  ],\n"
      "  \"workers_total_seconds\": %.2f,\n"
      "  \"max_worker_rss_bytes\": %lld,\n"
      "  \"merge\": {\"seconds\": %.2f, \"peak_rss_bytes\": %lld},\n"
      "  \"max_worker_rss_over_baseline\": %.3f\n"
      "}\n",
      workers_total_seconds, static_cast<long long>(max_worker_rss),
      merge.seconds, static_cast<long long>(merge.peak_rss_bytes),
      baseline.peak_rss_bytes > 0
          ? static_cast<double>(max_worker_rss) /
                static_cast<double>(baseline.peak_rss_bytes)
          : 0.0);

  std::filesystem::remove(graph_path);
  std::filesystem::remove(single_path);
  std::filesystem::remove(merged_path);
  for (int32_t p = 0; p < partitions; ++p) {
    std::filesystem::remove(part_path(p));
    std::filesystem::remove(partial_path(p));
  }
  // Exit bar: exactness. Perf numbers are trajectory records; a merged
  // artifact that differs from the baseline is a bug.
  return byte_identical ? 0 : 2;
}

}  // namespace
}  // namespace spidermine::bench

int main(int argc, char** argv) {
  return spidermine::bench::Main(argc, argv);
}
