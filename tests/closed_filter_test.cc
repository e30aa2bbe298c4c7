#include "spidermine/closed_filter.h"

#include <gtest/gtest.h>

#include "pattern/vf2.h"

namespace spidermine {
namespace {

MinedPattern Make(const Pattern& p, int64_t support) {
  MinedPattern mp;
  mp.pattern = p;
  mp.support = support;
  return mp;
}

Pattern PathOf(std::vector<LabelId> labels) {
  Pattern p;
  for (LabelId l : labels) p.AddVertex(l);
  for (size_t i = 0; i + 1 < labels.size(); ++i) {
    p.AddEdge(static_cast<VertexId>(i), static_cast<VertexId>(i + 1));
  }
  return p;
}

TEST(IsSubPatternTest, PathInLongerPath) {
  EXPECT_TRUE(IsSubPattern(PathOf({0, 1}), PathOf({0, 1, 2})));
  EXPECT_TRUE(IsSubPattern(PathOf({1, 2}), PathOf({0, 1, 2})));
  EXPECT_FALSE(IsSubPattern(PathOf({0, 2}), PathOf({0, 1, 2})));
  EXPECT_FALSE(IsSubPattern(PathOf({0, 1, 2}), PathOf({0, 1})));
}

TEST(IsSubPatternTest, EmptyAndEqual) {
  Pattern empty;
  EXPECT_TRUE(IsSubPattern(empty, PathOf({0})));
  EXPECT_TRUE(IsSubPattern(PathOf({0, 1}), PathOf({0, 1})));
}

TEST(ClosedFilterTest, DropsEqualSupportSubPattern) {
  std::vector<MinedPattern> patterns;
  patterns.push_back(Make(PathOf({0, 1, 2}), 5));
  patterns.push_back(Make(PathOf({0, 1}), 5));  // non-closed: same support
  std::vector<MinedPattern> closed = FilterToClosed(std::move(patterns));
  ASSERT_EQ(closed.size(), 1u);
  EXPECT_EQ(closed[0].pattern.NumVertices(), 3);
}

TEST(ClosedFilterTest, KeepsHigherSupportSubPattern) {
  std::vector<MinedPattern> patterns;
  patterns.push_back(Make(PathOf({0, 1, 2}), 5));
  patterns.push_back(Make(PathOf({0, 1}), 9));  // closed: more support
  std::vector<MinedPattern> closed = FilterToClosed(std::move(patterns));
  EXPECT_EQ(closed.size(), 2u);
}

TEST(ClosedFilterTest, UnrelatedPatternsUntouched) {
  std::vector<MinedPattern> patterns;
  patterns.push_back(Make(PathOf({0, 1}), 3));
  patterns.push_back(Make(PathOf({2, 3}), 3));
  EXPECT_EQ(FilterToClosed(std::move(patterns)).size(), 2u);
}

TEST(ClosedFilterTest, EmptyInput) {
  EXPECT_TRUE(FilterToClosed({}).empty());
}

}  // namespace
}  // namespace spidermine
