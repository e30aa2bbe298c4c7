#include "spidermine/variants.h"

#include <gtest/gtest.h>

#include "pattern/vf2.h"

namespace spidermine {
namespace {

// Path pattern 0-1-2-...-(n-1) with the given labels.
Pattern PathPattern(const std::vector<LabelId>& labels) {
  Pattern p(labels[0]);
  for (size_t i = 1; i < labels.size(); ++i) {
    VertexId v = p.AddVertex(labels[i]);
    p.AddEdge(static_cast<VertexId>(i - 1), v);
  }
  return p;
}

MinedPattern Make(Pattern pattern, int64_t support, size_t embeddings = 0) {
  MinedPattern mp;
  mp.pattern = std::move(pattern);
  mp.support = support;
  mp.embeddings = OccurrenceList(mp.NumVertices());
  for (size_t i = 0; i < embeddings; ++i) mp.embeddings.AppendRow();
  return mp;
}

TEST(VariantsTest, IsSubPatternBasics) {
  Pattern path2 = PathPattern({0, 1});
  Pattern path3 = PathPattern({0, 1, 2});
  Pattern other = PathPattern({3, 4});
  EXPECT_TRUE(IsSubPattern(path2, path3));
  EXPECT_FALSE(IsSubPattern(path3, path2));
  EXPECT_FALSE(IsSubPattern(other, path3));
  EXPECT_TRUE(IsSubPattern(path3, path3));
}

TEST(VariantsTest, IsSubPatternRespectsLabels) {
  Pattern a = PathPattern({0, 1});
  Pattern b = PathPattern({0, 2});
  EXPECT_FALSE(IsSubPattern(a, b));
}

TEST(VariantsTest, EmptyPatternIsSubOfAnything) {
  Pattern empty;
  Pattern path = PathPattern({0, 1});
  EXPECT_TRUE(IsSubPattern(empty, path));
}

TEST(VariantsTest, FilterMaximalDropsNestedPatterns) {
  // Size-descending list: path4 > path3 > path2 (all nested) + a disjointly
  // labeled edge that survives.
  std::vector<MinedPattern> patterns;
  patterns.push_back(Make(PathPattern({0, 1, 2, 3}), 3));
  patterns.push_back(Make(PathPattern({0, 1, 2}), 4));
  patterns.push_back(Make(PathPattern({7, 8}), 5));
  patterns.push_back(Make(PathPattern({0, 1}), 6));
  std::vector<MinedPattern> maximal = FilterMaximal(std::move(patterns));
  ASSERT_EQ(maximal.size(), 2u);
  EXPECT_EQ(maximal[0].NumVertices(), 4);
  EXPECT_EQ(maximal[1].pattern.Label(0), 7);
}

TEST(VariantsTest, FilterMaximalIgnoresSupport) {
  std::vector<MinedPattern> patterns;
  patterns.push_back(Make(PathPattern({0, 1, 2}), 5));
  patterns.push_back(Make(PathPattern({0, 1}), 9));  // more support, nested
  patterns.push_back(Make(PathPattern({7, 8}), 2));
  std::vector<MinedPattern> maximal = FilterMaximal(std::move(patterns));
  ASSERT_EQ(maximal.size(), 2u);
  EXPECT_EQ(maximal[0].NumVertices(), 3);
  EXPECT_EQ(maximal[1].pattern.Label(0), 7);
}

TEST(VariantsTest, FilterMaximalKeepsIncomparablePatterns) {
  std::vector<MinedPattern> patterns;
  patterns.push_back(Make(PathPattern({0, 1, 2}), 2));
  patterns.push_back(Make(PathPattern({3, 4, 5}), 2));
  std::vector<MinedPattern> maximal = FilterMaximal(std::move(patterns));
  EXPECT_EQ(maximal.size(), 2u);
}

TEST(VariantsTest, FilterMaximalEmptyInput) {
  EXPECT_TRUE(FilterMaximal({}).empty());
}

TEST(VariantsTest, GroupVariantsClustersAroundCore) {
  // Core path 0-1-2; two variants add one edge each; one unrelated pattern.
  Pattern core = PathPattern({0, 1, 2});

  Pattern variant1 = PathPattern({0, 1, 2});
  VertexId extra1 = variant1.AddVertex(5);
  variant1.AddEdge(2, extra1);

  Pattern variant2 = PathPattern({0, 1, 2});
  VertexId extra2 = variant2.AddVertex(6);
  variant2.AddEdge(0, extra2);

  Pattern unrelated = PathPattern({8, 9});

  std::vector<MinedPattern> patterns;
  patterns.push_back(Make(variant1, 3, 5));
  patterns.push_back(Make(variant2, 3, 4));
  patterns.push_back(Make(core, 4, 6));
  patterns.push_back(Make(unrelated, 2, 2));

  std::vector<VariantGroup> groups = GroupVariants(patterns);
  ASSERT_EQ(groups.size(), 2u);
  // Dominant group: core at index 2 covering 3 patterns.
  EXPECT_EQ(groups[0].core_index, 2u);
  EXPECT_EQ(groups[0].variant_indices, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(groups[0].total_embeddings, 15);
  // Singleton group for the unrelated pattern.
  EXPECT_EQ(groups[1].core_index, 3u);
  EXPECT_TRUE(groups[1].variant_indices.empty());
}

TEST(VariantsTest, GroupVariantsRespectsMaxExtraEdges) {
  Pattern core = PathPattern({0, 1});
  Pattern far = PathPattern({0, 1, 2, 3, 4});  // 3 extra edges

  std::vector<MinedPattern> patterns;
  patterns.push_back(Make(far, 2));
  patterns.push_back(Make(core, 3));

  VariantOptions tight;
  tight.max_extra_edges = 2;
  std::vector<VariantGroup> groups = GroupVariants(patterns, tight);
  EXPECT_EQ(groups.size(), 2u);

  VariantOptions loose;
  loose.max_extra_edges = 3;
  groups = GroupVariants(patterns, loose);
  ASSERT_EQ(groups.size(), 1u);
  EXPECT_EQ(patterns[groups[0].core_index].NumEdges(), 1);
}

TEST(VariantsTest, EveryPatternAssignedExactlyOnce) {
  std::vector<MinedPattern> patterns;
  for (int i = 0; i < 6; ++i) {
    patterns.push_back(Make(PathPattern({i, i + 1}), 2));
  }
  std::vector<VariantGroup> groups = GroupVariants(patterns);
  std::vector<int> seen(6, 0);
  for (const VariantGroup& g : groups) {
    ++seen[g.core_index];
    for (size_t v : g.variant_indices) ++seen[v];
  }
  for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(VariantsTest, ToStringMentionsEachGroup) {
  std::vector<MinedPattern> patterns;
  patterns.push_back(Make(PathPattern({0, 1}), 2, 3));
  patterns.push_back(Make(PathPattern({4, 5}), 2, 2));
  std::vector<VariantGroup> groups = GroupVariants(patterns);
  std::string text = VariantGroupsToString(patterns, groups);
  EXPECT_NE(text.find("group 0"), std::string::npos);
  EXPECT_NE(text.find("group 1"), std::string::npos);
  EXPECT_NE(text.find("total embeddings"), std::string::npos);
}

}  // namespace
}  // namespace spidermine
