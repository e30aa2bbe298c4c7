#include "spidermine/stats.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <type_traits>

#include "tools/serve_loop.h"

namespace spidermine {
namespace {

/// Sets the counters of \p stats, in list order, to 1, 2, 3, ...; returns
/// the number of rows.
int64_t SetEveryRowDistinct(MineStats* stats) {
  int64_t row = 0;
  MineStats::ForEachCounter(
      [&row](std::string_view, std::string_view, auto& counter) {
        counter = ++row;
      },
      *stats);
  return row;
}

// A counter cannot be declared without its row: every member of MineStats
// but the three that describe the query is covered by a row, so a member
// added without its row (or a row without its member) fails here.
TEST(MineStatsTest, EveryCounterMemberHasARow) {
  MineStats stats;
  size_t row_bytes = 0;
  MineStats::ForEachCounter(
      [&row_bytes](std::string_view, std::string_view, auto& counter) {
        row_bytes += sizeof(counter);
      },
      stats);
  struct QueryDescription {
    int64_t txn_sample_size;
    SupportMeasureKind support_measure;
    bool timed_out;
  };
  EXPECT_EQ(sizeof(MineStats), row_bytes + sizeof(QueryDescription));
}

TEST(MineStatsTest, AddAppliedTwiceDoublesEveryRow) {
  MineStats once;
  const int64_t rows = SetEveryRowDistinct(&once);
  ASSERT_GT(rows, 0);
  once.support_measure = SupportMeasureKind::kHomomorphism;
  once.txn_sample_size = 16;
  once.timed_out = true;

  MineStats sum;
  sum.Add(once);
  sum.Add(once);
  int64_t row = 0;
  MineStats::ForEachCounter(
      [&row](std::string_view name, std::string_view, const auto& total,
             const auto& single) {
        ++row;
        EXPECT_EQ(single, row) << name;
        EXPECT_EQ(total, 2 * single) << name;
      },
      sum, once);
  EXPECT_EQ(row, rows);
  // What the query was is not summed.
  EXPECT_EQ(sum.support_measure, MineStats{}.support_measure);
  EXPECT_EQ(sum.txn_sample_size, 0);
  EXPECT_FALSE(sum.timed_out);
}

TEST(MineStatsTest, ToJsonNamesEveryRowOnce) {
  MineStats stats;
  const int64_t rows = SetEveryRowDistinct(&stats);
  // ParseJsonObject rejects duplicate keys, so a parsed object of `rows`
  // keys naming every row names each exactly once.
  Result<cli::JsonObject> json = cli::ParseJsonObject(stats.ToJson());
  ASSERT_TRUE(json.ok()) << json.status() << "\n" << stats.ToJson();
  EXPECT_EQ(static_cast<int64_t>(json->size()), rows);

  std::set<std::string> names;
  int64_t row = 0;
  MineStats::ForEachCounter(
      [&](std::string_view name, std::string_view unit, const auto& counter) {
        ++row;
        names.emplace(name);
        // Seconds are the only fractional rows.
        EXPECT_EQ(unit == "s",
                  std::is_floating_point_v<
                      std::remove_cvref_t<decltype(counter)>>)
            << name;
        EXPECT_TRUE(unit == "count" || unit == "bytes" || unit == "s")
            << name << ": " << unit;
        const auto it = json->find(std::string(name));
        ASSERT_NE(it, json->end()) << name;
        EXPECT_EQ(it->second.kind, cli::JsonValue::Kind::kNumber) << name;
        EXPECT_EQ(it->second.number_value, static_cast<double>(row)) << name;
      },
      stats);
  EXPECT_EQ(static_cast<int64_t>(names.size()), rows);
}

}  // namespace
}  // namespace spidermine
