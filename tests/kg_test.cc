#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "data/catalog.h"
#include "data/dataset_registry.h"
#include "kg/knowledge_graph.h"
#include "kg/meta_graph.h"
#include "kg/meta_graph_matcher.h"
#include "kg/relevance.h"

namespace imdpp::kg {
namespace {

TEST(TypeRegistry, InternAndFind) {
  TypeRegistry reg;
  int16_t a = reg.Intern("ITEM");
  int16_t b = reg.Intern("FEATURE");
  EXPECT_EQ(reg.Intern("ITEM"), a);
  EXPECT_NE(a, b);
  EXPECT_EQ(reg.Find("FEATURE"), b);
  EXPECT_EQ(reg.Find("MISSING"), -1);
  EXPECT_EQ(reg.Name(a), "ITEM");
  EXPECT_EQ(reg.Size(), 2);
}

TEST(KnowledgeGraph, ItemsGetDenseIds) {
  KnowledgeGraph g("ITEM");
  KgNodeId i0 = g.AddNode("ITEM", "a");
  KgNodeId f = g.AddNode("FEATURE", "blue");
  KgNodeId i1 = g.AddNode("ITEM", "b");
  EXPECT_EQ(g.NumItems(), 2);
  EXPECT_EQ(g.ItemOf(i0), 0);
  EXPECT_EQ(g.ItemOf(i1), 1);
  EXPECT_EQ(g.ItemOf(f), -1);
  EXPECT_EQ(g.ItemNode(1), i1);
  EXPECT_EQ(g.ItemLabel(0), "a");
}

TEST(KnowledgeGraph, EdgesStoredBothDirections) {
  KnowledgeGraph g("ITEM");
  KgNodeId a = g.AddNode("ITEM");
  KgNodeId f = g.AddNode("FEATURE");
  g.AddEdge(a, f, "SUPPORTS");
  ASSERT_EQ(g.EdgesOf(a).size(), 1u);
  ASSERT_EQ(g.EdgesOf(f).size(), 1u);
  EXPECT_TRUE(g.EdgesOf(a)[0].forward);
  EXPECT_FALSE(g.EdgesOf(f)[0].forward);
  EXPECT_EQ(g.NumEdges(), 1);
}

/// KG of Fig. 1(a): iPhone & AirPods support Bluetooth; iPhone & charger
/// support Qi; iPhone & AirPods are Apple-branded.
class Fig1Kg : public ::testing::Test {
 protected:
  void SetUp() override {
    iphone_ = g_.AddNode("ITEM", "iPhone");
    airpods_ = g_.AddNode("ITEM", "AirPods");
    charger_ = g_.AddNode("ITEM", "Charger");
    cable_ = g_.AddNode("ITEM", "Cable");
    KgNodeId bt = g_.AddNode("FEATURE", "Bluetooth");
    KgNodeId qi = g_.AddNode("FEATURE", "Qi");
    KgNodeId apple = g_.AddNode("BRAND", "Apple");
    g_.AddEdge(iphone_, bt, "SUPPORTS");
    g_.AddEdge(airpods_, bt, "SUPPORTS");
    g_.AddEdge(iphone_, qi, "SUPPORTS");
    g_.AddEdge(charger_, qi, "SUPPORTS");
    g_.AddEdge(iphone_, apple, "HAS_BRAND");
    g_.AddEdge(airpods_, apple, "HAS_BRAND");
  }
  KnowledgeGraph g_{"ITEM"};
  KgNodeId iphone_, airpods_, charger_, cable_;
};

TEST_F(Fig1Kg, SharedNeighborCounts) {
  MetaGraph m1 = SharedNeighborMeta(g_, "m1", RelationKind::kComplementary,
                                    "SUPPORTS", "FEATURE");
  MetaGraphMatcher matcher(g_);
  // iPhone & AirPods share exactly one feature (Bluetooth).
  EXPECT_EQ(matcher.CountInstances(m1, 0, 1), 1);
  // iPhone & Charger share Qi.
  EXPECT_EQ(matcher.CountInstances(m1, 0, 2), 1);
  // AirPods & Charger share nothing.
  EXPECT_EQ(matcher.CountInstances(m1, 1, 2), 0);
  // Cable supports nothing.
  EXPECT_EQ(matcher.CountInstances(m1, 0, 3), 0);
  // Diagonal is zero by definition.
  EXPECT_EQ(matcher.CountInstances(m1, 0, 0), 0);
}

TEST_F(Fig1Kg, ConjunctionMetaRequiresAllLegs) {
  MetaGraph feat = SharedNeighborMeta(g_, "f", RelationKind::kComplementary,
                                      "SUPPORTS", "FEATURE");
  MetaGraph brand = SharedNeighborMeta(g_, "b", RelationKind::kComplementary,
                                       "HAS_BRAND", "BRAND");
  MetaGraph m3 =
      ConjunctionMeta("m3", RelationKind::kComplementary, {feat, brand});
  MetaGraphMatcher matcher(g_);
  // iPhone & AirPods: shared feature AND shared brand -> 1 joint instance.
  EXPECT_EQ(matcher.CountInstances(m3, 0, 1), 1);
  // iPhone & Charger: shared feature but no shared brand -> 0.
  EXPECT_EQ(matcher.CountInstances(m3, 0, 2), 0);
}

TEST_F(Fig1Kg, DirectEdgeMeta) {
  g_.AddEdge(iphone_, airpods_, "ALSO_BOUGHT");
  MetaGraph m = DirectEdgeMeta(g_, "ab", RelationKind::kComplementary,
                               "ALSO_BOUGHT");
  MetaGraphMatcher matcher(g_);
  EXPECT_EQ(matcher.CountInstances(m, 0, 1), 1);
  // Direction matters for direct edges.
  EXPECT_EQ(matcher.CountInstances(m, 1, 0), 0);
}

TEST_F(Fig1Kg, MultiEdgesCountAsMultipleInstances) {
  // A second shared feature doubles the count.
  KgNodeId nfc = g_.AddNode("FEATURE", "NFC");
  g_.AddEdge(iphone_, nfc, "SUPPORTS");
  g_.AddEdge(airpods_, nfc, "SUPPORTS");
  MetaGraph m1 = SharedNeighborMeta(g_, "m1", RelationKind::kComplementary,
                                    "SUPPORTS", "FEATURE");
  MetaGraphMatcher matcher(g_);
  EXPECT_EQ(matcher.CountInstances(m1, 0, 1), 2);
}

TEST_F(Fig1Kg, AllPairsMatchesSingle) {
  MetaGraph m1 = SharedNeighborMeta(g_, "m1", RelationKind::kComplementary,
                                    "SUPPORTS", "FEATURE");
  MetaGraphMatcher matcher(g_);
  std::vector<int64_t> all = matcher.CountAllPairs(m1);
  const int n = g_.NumItems();
  for (ItemId x = 0; x < n; ++x) {
    for (ItemId y = 0; y < n; ++y) {
      EXPECT_EQ(all[static_cast<size_t>(x) * n + y],
                matcher.CountInstances(m1, x, y))
          << x << "," << y;
    }
  }
}

TEST_F(Fig1Kg, RelevanceSaturation) {
  MetaGraph m1 = SharedNeighborMeta(g_, "m1", RelationKind::kComplementary,
                                    "SUPPORTS", "FEATURE");
  RelevanceModel model = RelevanceModel::FromKg(g_, {m1}, /*kappa=*/2.0);
  // count 1 -> 1/3; count 0 -> 0.
  EXPECT_NEAR(model.Score(0, 0, 1), 1.0 / 3.0, 1e-6);
  EXPECT_FLOAT_EQ(model.Score(0, 1, 2), 0.0f);
  EXPECT_EQ(model.NumMetas(), 1);
  EXPECT_EQ(model.NumItems(), 4);
}

TEST_F(Fig1Kg, RelatedItemsSparse) {
  MetaGraph m1 = SharedNeighborMeta(g_, "m1", RelationKind::kComplementary,
                                    "SUPPORTS", "FEATURE");
  RelevanceModel model = RelevanceModel::FromKg(g_, {m1}, 2.0);
  // iPhone relates to AirPods and Charger, not Cable.
  const std::vector<ItemId>& rel = model.RelatedItems(0);
  EXPECT_EQ(rel.size(), 2u);
  // Cable relates to nothing.
  EXPECT_TRUE(model.RelatedItems(3).empty());
}

TEST(RelevanceModel, FromMatricesAndSubset) {
  std::vector<MetaGraph> metas(2);
  metas[0].kind = RelationKind::kComplementary;
  metas[0].name = "c";
  metas[1].kind = RelationKind::kSubstitutable;
  metas[1].name = "s";
  std::vector<float> c{0, 0.5f, 0.5f, 0};
  std::vector<float> s{0, 0.2f, 0.2f, 0};
  RelevanceModel model = RelevanceModel::FromMatrices(2, metas, {c, s});
  EXPECT_FLOAT_EQ(model.Score(0, 0, 1), 0.5f);
  EXPECT_FLOAT_EQ(model.Score(1, 0, 1), 0.2f);

  RelevanceModel first = model.WithFirstMetas(1);
  EXPECT_EQ(first.NumMetas(), 1);
  EXPECT_EQ(first.KindOf(0), RelationKind::kComplementary);

  RelevanceModel sub = model.WithMetaSubset({1});
  EXPECT_EQ(sub.NumMetas(), 1);
  EXPECT_EQ(sub.KindOf(0), RelationKind::kSubstitutable);
  EXPECT_FLOAT_EQ(sub.Score(0, 0, 1), 0.2f);
}

/// Checks `model`'s sparse lists against its own scores: RelatedItems(x)
/// holds every y != x with any positive score, ComplementItems(x) the
/// ones with a positive complementary score, both in item order.
void ExpectListsMatchScores(const RelevanceModel& model) {
  for (ItemId x = 0; x < model.NumItems(); ++x) {
    std::vector<ItemId> related, complement;
    for (ItemId y = 0; y < model.NumItems(); ++y) {
      if (y == x) continue;
      bool any = false, comp = false;
      for (int m = 0; m < model.NumMetas(); ++m) {
        if (model.Score(m, x, y) <= 0.0f) continue;
        any = true;
        comp |= model.KindOf(m) == RelationKind::kComplementary;
      }
      if (any) related.push_back(y);
      if (comp) complement.push_back(y);
    }
    ASSERT_EQ(model.RelatedItems(x), related) << "x=" << x;
    ASSERT_EQ(model.ComplementItems(x), complement) << "x=" << x;
  }
}

TEST(RelevanceModel, ComplementItemsAreTheComplementaryPositiveRelated) {
  for (const std::string& name : data::DatasetRegistry::Names()) {
    SCOPED_TRACE(name);
    const data::Dataset ds = data::DatasetRegistry::MakeOrDie({name, 1.0, 0});
    ExpectListsMatchScores(*ds.relevance);
  }
}

// Re-packing the pair-major store keeps every selected meta's scores and
// kind, and rebuilds the sparse lists for the subset.
TEST(RelevanceModel, MetaSubsetsKeepEveryScore) {
  for (const char* name : {"fig1-toy", "amazon-like", "yelp-like"}) {
    SCOPED_TRACE(name);
    const data::Dataset ds = data::DatasetRegistry::MakeOrDie({name, 1.0, 0});
    const RelevanceModel& full = *ds.relevance;
    const int metas = full.NumMetas();
    std::vector<std::vector<int>> subsets;
    std::vector<int> reversed;
    for (int m = metas - 1; m >= 0; --m) reversed.push_back(m);
    subsets.push_back(reversed);
    subsets.push_back({metas - 1});
    subsets.push_back({0, metas - 1});
    for (const std::vector<int>& indices : subsets) {
      const RelevanceModel sub = full.WithMetaSubset(indices);
      ASSERT_EQ(sub.NumMetas(), static_cast<int>(indices.size()));
      for (size_t k = 0; k < indices.size(); ++k) {
        const int m = indices[k];
        const int j = static_cast<int>(k);
        EXPECT_EQ(sub.KindOf(j), full.KindOf(m));
        for (ItemId x = 0; x < full.NumItems(); ++x) {
          for (ItemId y = 0; y < full.NumItems(); ++y) {
            ASSERT_EQ(sub.Score(j, x, y), full.Score(m, x, y))
                << "meta " << m << " x=" << x << " y=" << y;
          }
        }
      }
      ExpectListsMatchScores(sub);
    }
    for (int k = 1; k <= metas; ++k) {
      const RelevanceModel first = full.WithFirstMetas(k);
      ASSERT_EQ(first.NumMetas(), k);
      for (int m = 0; m < k; ++m) {
        EXPECT_EQ(first.KindOf(m), full.KindOf(m));
        for (ItemId x = 0; x < full.NumItems(); ++x) {
          for (ItemId y = 0; y < full.NumItems(); ++y) {
            ASSERT_EQ(first.Score(m, x, y), full.Score(m, x, y))
                << "meta " << m << " x=" << x << " y=" << y;
          }
        }
      }
      ExpectListsMatchScores(first);
    }
  }
}

TEST(Fig1Toy, CatalogToyHasExpectedRelevance) {
  data::Dataset ds = data::MakeFig1Toy();
  EXPECT_EQ(ds.NumItems(), 4);
  EXPECT_EQ(ds.NumUsers(), 3);
  // m1 (shared feature): iPhone-AirPods share Bluetooth -> positive score.
  EXPECT_GT(ds.relevance->Score(0, 0, 1), 0.0f);
  // iPhone-Charger share Qi.
  EXPECT_GT(ds.relevance->Score(0, 0, 2), 0.0f);
  // Substitutable meta (shared category): charger vs cable.
  int sub_meta = -1;
  for (int m = 0; m < ds.relevance->NumMetas(); ++m) {
    if (ds.relevance->KindOf(m) == RelationKind::kSubstitutable) sub_meta = m;
  }
  ASSERT_GE(sub_meta, 0);
  EXPECT_GT(ds.relevance->Score(sub_meta, 2, 3), 0.0f);
  EXPECT_FLOAT_EQ(ds.relevance->Score(sub_meta, 0, 1), 0.0f);
}

}  // namespace
}  // namespace imdpp::kg
