#include <gtest/gtest.h>

#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "gen/barabasi_albert.h"
#include "graph/graph_builder.h"
#include "spider/star_miner.h"
#include "spider_test_util.h"

/// Large-graph Stage I checks (ctest label: slow; CI runs `-LE slow`).
/// A hub-heavy scale-free graph two orders of magnitude past the unit
/// tests: the global budget must stay the exact canonical prefix and the
/// result must be identical across thread counts and shard grains.

namespace spidermine {
namespace {

/// Support-only transcript: anchors at this scale would dominate runtime.
std::string ScaleTranscript(const SpiderStore& store) {
  return StoreTranscript(store, /*with_anchors=*/false);
}

TEST(Stage1ScaleSlowTest, BudgetedMiningInvariantOnLargeScaleFreeGraph) {
  Rng rng(5);
  GraphBuilder builder = GenerateBarabasiAlbert(150000, 3, 24, &rng);
  LabeledGraph g = std::move(builder.Build()).value();

  StarMinerConfig config;
  config.min_support = 32;
  config.max_leaves = 4;
  config.max_spiders = 4000;

  ThreadPool pool1(1);
  Result<StarMineResult> reference = MineStarSpiders(g, config, pool1);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_EQ(reference->store.size(), config.max_spiders);
  EXPECT_TRUE(reference->truncated);
  const std::string expected = ScaleTranscript(reference->store);
  // O(B): the budgeted store keeps B spiders, not num_labels x B.
  EXPECT_EQ(reference->store.size(), 4000);

  for (int32_t threads : {8}) {
    for (int64_t grain : {int64_t{1024}, int64_t{0}, int64_t{1} << 24}) {
      ThreadPool pool(threads);
      StarMinerConfig run_config = config;
      run_config.shard_grain = grain;
      Result<StarMineResult> run = MineStarSpiders(g, run_config, pool);
      ASSERT_TRUE(run.ok()) << run.status();
      EXPECT_EQ(ScaleTranscript(run->store), expected)
          << "diverged at threads=" << threads << " grain=" << grain;
      EXPECT_EQ(run->extension_attempts, reference->extension_attempts);
    }
  }
}

}  // namespace
}  // namespace spidermine
