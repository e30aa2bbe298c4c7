// Cold-start cost of adopting a Stage I artifact: the zero-copy mmap open
// of a `.sm2` file vs one cold sequential read of the same file.
//
// A synthetic spider store (deterministic, >= 100 MB on disk) is written as
// `.sm2`; the file is then opened with MappedStage1::Open and, separately,
// read front to back with fread, each "cold" (page cache evicted with
// posix_fadvise DONTNEED first). The mmap path only reads the header plus
// the offset arrays at Open — the bulk pools stay untouched until the lazy
// CRC pass. Any load that copies the artifact into memory must at least
// read every byte, so the read time is a floor for every copy-load format.
// A second mmap open without eviction models an additional serving replica
// on the same box sharing the page cache.
//
// Output: a single JSON object on stdout (committed as
// BENCH_artifact_load.json by tools/run_bench_trajectory.sh).

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "common/timer.h"
#include "spider/spider_index.h"
#include "spider/spider_store.h"
#include "spider/spider_store_mmap.h"

namespace spidermine::bench {
namespace {

// Store shape: tuned so the artifact tops 100 MB while the offset arrays
// (the only bulk data the mmap open actually scans) stay a small fraction
// of the file. Anchors dominate: each contributes 8 bytes (anchor pool +
// CSR id array).
constexpr int64_t kNumSpiders = 220'000;
constexpr int32_t kAnchorsPerSpider = 60;
constexpr int32_t kLeavesPerSpider = 30;
constexpr int64_t kNumGraphVertices = 500'000;
constexpr int32_t kNumLabels = 64;

SpiderStore BuildSyntheticStore() {
  Rng rng(20260808);
  SpiderStore store;
  store.Reserve(kNumSpiders, kNumSpiders * kLeavesPerSpider,
                kNumSpiders * kAnchorsPerSpider);
  std::vector<SpiderLeafKey> leaves(kLeavesPerSpider);
  std::vector<VertexId> anchors(kAnchorsPerSpider);
  for (int64_t s = 0; s < kNumSpiders; ++s) {
    const LabelId head = static_cast<LabelId>(rng.UniformInt(0, kNumLabels - 1));
    for (auto& leaf : leaves) {
      leaf = {static_cast<EdgeLabelId>(rng.UniformInt(0, 3)),
              static_cast<LabelId>(rng.UniformInt(0, kNumLabels - 1))};
    }
    std::sort(leaves.begin(), leaves.end());
    // Strictly ascending anchors inside [0, V): start at a random base and
    // take strided steps that cannot overflow the vertex range.
    const int64_t span = kNumGraphVertices - kAnchorsPerSpider * 8 - 1;
    VertexId v = static_cast<VertexId>(rng.UniformInt(0, span - 1));
    for (auto& anchor : anchors) {
      v += static_cast<VertexId>(rng.UniformInt(1, 8));
      anchor = v;
    }
    store.Append(head, leaves, anchors, /*closed=*/true);
  }
  return store;
}

// Asks the kernel to drop this file's page-cache pages so the next read is
// a genuine cold start. Advisory, but effective for clean pages on Linux,
// so the freshly written pages are flushed first.
void EvictFromPageCache(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return;
  ::fdatasync(fd);
#if defined(POSIX_FADV_DONTNEED)
  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
#endif
  ::close(fd);
}

// Reads \p path front to back in 1 MiB chunks; returns the bytes read
// (-1 when the file cannot be opened).
int64_t ReadWholeFile(const std::string& path) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return -1;
  std::vector<char> chunk(1 << 20);
  int64_t total = 0;
  size_t got = 0;
  while ((got = std::fread(chunk.data(), 1, chunk.size(), file)) > 0) {
    total += static_cast<int64_t>(got);
  }
  std::fclose(file);
  return total;
}

int Main() {
  if (std::endian::native != std::endian::little) {
    std::fprintf(stderr, "big-endian host: .sm2 unsupported, skipping\n");
    return 0;
  }
  std::fprintf(stderr, "building synthetic store (%lld spiders)...\n",
               static_cast<long long>(kNumSpiders));
  SpiderStore store = BuildSyntheticStore();
  SpiderIndex index(&store, kNumGraphVertices);
  Stage1Meta meta;
  meta.min_support = 2;
  meta.num_graph_vertices = kNumGraphVertices;
  meta.graph_hash = 0x5eedf00dcafe1234ULL;  // synthetic; never graph-bound

  const std::string sm2_path =
      (std::filesystem::temp_directory_path() / "bench_artifact_load.sm2")
          .string();
  Status saved = SaveStage1Sm2(store, index, meta, sm2_path);
  if (!saved.ok()) {
    std::fprintf(stderr, "save failed: %s\n", saved.ToString().c_str());
    return 1;
  }
  const int64_t sm2_bytes = std::filesystem::file_size(sm2_path);
  std::fprintf(stderr, "sm2=%lld bytes\n", static_cast<long long>(sm2_bytes));

  EvictFromPageCache(sm2_path);
  const int64_t rss_before_mmap = PeakRssBytes();
  WallTimer mmap_timer;
  Result<std::unique_ptr<MappedStage1>> mapped = MappedStage1::Open(sm2_path);
  const double mmap_cold_seconds = mmap_timer.ElapsedSeconds();
  if (!mapped.ok()) {
    std::fprintf(stderr, "mmap open failed: %s\n",
                 mapped.status().ToString().c_str());
    return 1;
  }
  const int64_t mmap_rss_growth = PeakRssBytes() - rss_before_mmap;
  if ((*mapped)->store().size() != kNumSpiders) {
    std::fprintf(stderr, "spider count mismatch after open\n");
    return 1;
  }

  // A second replica opening the same artifact: the offset pages are
  // already resident, so this is the page-cache-shared serving cost.
  WallTimer warm_timer;
  Result<std::unique_ptr<MappedStage1>> replica = MappedStage1::Open(sm2_path);
  const double mmap_warm_seconds = warm_timer.ElapsedSeconds();
  if (!replica.ok()) return 1;

  // Full validation (bulk CRCs over every section) — the one-time cost a
  // query pays on first touch, still paid lazily rather than at startup.
  WallTimer validate_timer;
  Status validated = (*mapped)->EnsureValidated();
  const double validate_seconds = validate_timer.ElapsedSeconds();
  if (!validated.ok()) {
    std::fprintf(stderr, "validation failed: %s\n",
                 validated.ToString().c_str());
    return 1;
  }

  // Cold sequential read of the same file: the floor of any copy load.
  EvictFromPageCache(sm2_path);
  WallTimer read_timer;
  const int64_t read_bytes = ReadWholeFile(sm2_path);
  const double read_cold_seconds = read_timer.ElapsedSeconds();
  if (read_bytes != sm2_bytes) {
    std::fprintf(stderr, "read %lld of %lld bytes\n",
                 static_cast<long long>(read_bytes),
                 static_cast<long long>(sm2_bytes));
    return 1;
  }

  const double speedup =
      mmap_cold_seconds > 0 ? read_cold_seconds / mmap_cold_seconds : 0.0;
  std::printf(
      "{\n"
      "  \"bench\": \"artifact_load\",\n"
      "  \"hardware_concurrency\": %u,\n"
      "  \"num_spiders\": %lld,\n"
      "  \"sm2_file_bytes\": %lld,\n"
      "  \"read_cold_seconds\": %.6f,\n"
      "  \"mmap_cold_open_seconds\": %.6f,\n"
      "  \"mmap_warm_replica_open_seconds\": %.6f,\n"
      "  \"mmap_lazy_full_validate_seconds\": %.6f,\n"
      "  \"open_vs_read_speedup\": %.1f,\n"
      "  \"mmap_rss_growth_bytes\": %lld\n"
      "}\n",
      std::thread::hardware_concurrency(),
      static_cast<long long>(kNumSpiders), static_cast<long long>(sm2_bytes),
      read_cold_seconds, mmap_cold_seconds, mmap_warm_seconds,
      validate_seconds, speedup, static_cast<long long>(mmap_rss_growth));

  std::filesystem::remove(sm2_path);
  return speedup >= 10.0 ? 0 : 2;  // exit 2 = ran but missed the 10x bar
}

}  // namespace
}  // namespace spidermine::bench

int main() { return spidermine::bench::Main(); }
