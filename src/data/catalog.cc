#include "data/catalog.h"

#include <algorithm>
#include <cmath>

#include "graph/graph_builder.h"
#include "kg/meta_graph.h"

namespace imdpp::data {

namespace {

int Scaled(int base, double scale) {
  return std::max(4, static_cast<int>(std::lround(base * scale)));
}

}  // namespace

SyntheticSpec AmazonLikeSpec(double scale, uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "amazon";
  spec.seed = seed;
  spec.num_users = Scaled(800, scale);
  spec.num_items = Scaled(64, scale);
  spec.num_features = Scaled(48, scale);
  spec.num_brands = Scaled(12, scale);
  spec.num_categories = Scaled(8, scale);
  spec.topology = SocialTopology::kPreferentialAttachment;
  spec.directed = true;  // Pokec friendships are directed (Table II)
  spec.pa_edges_per_node = 4;
  spec.mean_influence = 0.12;  // Table II order: amazon 3rd (0.050 scaled)
  spec.importance = ImportanceKind::kLogNormalPrice;
  spec.importance_mu = 0.6;  // Table II: avg importance 1.8
  return spec;
}

Dataset MakeAmazonLike(double scale, uint64_t seed) {
  return GenerateSynthetic(AmazonLikeSpec(scale, seed));
}

SyntheticSpec YelpLikeSpec(double scale, uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "yelp";
  spec.seed = seed;
  spec.num_users = Scaled(400, scale);
  spec.num_items = Scaled(48, scale);
  spec.num_features = Scaled(36, scale);  // amenities
  spec.num_brands = Scaled(10, scale);    // chains
  spec.num_categories = Scaled(8, scale); // cuisine categories
  KgTypeNames t;
  t.item = "BUSINESS";
  t.feature = "AMENITY";
  t.brand = "CITY";
  t.category = "CATEGORY";
  t.supports = "OFFERS";
  t.has_brand = "LOCATED_IN";
  t.in_category = "IN_CATEGORY";
  t.also_bought = "VISITED_TOGETHER";
  t.also_viewed = "BROWSED_TOGETHER";
  spec.types = t;
  spec.topology = SocialTopology::kSmallWorld;
  spec.sw_neighbors = 5;
  spec.sw_rewire = 0.15;
  spec.mean_influence = 0.18;  // Table II order: yelp strongest (0.121 scaled)
  spec.importance_mu = 0.45;    // Table II: avg importance 1.6
  return spec;
}

Dataset MakeYelpLike(double scale, uint64_t seed) {
  return GenerateSynthetic(YelpLikeSpec(scale, seed));
}

SyntheticSpec DoubanLikeSpec(double scale, uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "douban";
  spec.seed = seed;
  spec.num_users = Scaled(1400, scale);
  spec.num_items = Scaled(96, scale);
  spec.num_features = Scaled(64, scale);  // tags
  spec.num_brands = Scaled(16, scale);    // authors/artists
  spec.num_categories = Scaled(10, scale);
  KgTypeNames t;
  t.item = "MEDIA";
  t.feature = "TAG";
  t.brand = "AUTHOR";
  t.category = "GENRE";
  t.supports = "TAGGED";
  t.has_brand = "CREATED_BY";
  t.in_category = "IN_GENRE";
  t.also_bought = "COLLECTED_TOGETHER";
  t.also_viewed = "RATED_TOGETHER";
  spec.types = t;
  // Books/songs are complementary-heavy (Sec. VI-B): more also-bought
  // edges, fewer substitutable co-views.
  spec.also_bought_per_item = 4;
  spec.also_viewed_per_item = 1;
  spec.topology = SocialTopology::kPreferentialAttachment;
  spec.pa_edges_per_node = 5;
  spec.mean_influence = 0.06;  // Table II order: douban weakest (0.011 scaled)
  spec.importance_mu = 0.7;     // Table II: avg importance 2.1
  return spec;
}

Dataset MakeDoubanLike(double scale, uint64_t seed) {
  return GenerateSynthetic(DoubanLikeSpec(scale, seed));
}

SyntheticSpec GowallaLikeSpec(double scale, uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "gowalla";
  spec.seed = seed;
  spec.num_users = Scaled(1000, scale);
  spec.num_items = Scaled(80, scale);
  spec.num_features = Scaled(40, scale);
  spec.num_brands = Scaled(12, scale);
  spec.num_categories = Scaled(8, scale);
  KgTypeNames t;
  t.item = "SPOT";
  t.feature = "AMENITY";
  t.brand = "REGION";
  t.category = "SPOT_TYPE";
  t.supports = "PROVIDES";
  t.has_brand = "IN_REGION";
  t.in_category = "OF_TYPE";
  t.also_bought = "CHECKED_IN_TOGETHER";
  t.also_viewed = "NEARBY";
  spec.types = t;
  spec.topology = SocialTopology::kPreferentialAttachment;
  spec.pa_edges_per_node = 3;
  spec.mean_influence = 0.15;  // Table II order: gowalla 2nd (0.092 scaled)
  spec.importance = ImportanceKind::kUniformRandom;  // site offline
  return spec;
}

Dataset MakeGowallaLike(double scale, uint64_t seed) {
  return GenerateSynthetic(GowallaLikeSpec(scale, seed));
}

SyntheticSpec FlixsterLikeSpec(double scale, uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "flixster";
  spec.seed = seed;
  spec.num_users = Scaled(600, scale);
  spec.num_items = Scaled(56, scale);
  spec.num_features = Scaled(40, scale);  // keywords
  spec.num_brands = Scaled(10, scale);    // studios
  spec.num_categories = Scaled(8, scale); // genres
  KgTypeNames t;
  t.item = "MOVIE";
  t.feature = "KEYWORD";
  t.brand = "STUDIO";
  t.category = "GENRE";
  t.supports = "ABOUT";
  t.has_brand = "PRODUCED_BY";
  t.in_category = "IN_GENRE";
  t.also_bought = "WATCHED_TOGETHER";
  t.also_viewed = "SIMILAR_TO";
  spec.types = t;
  // Movies compete for the same watch slot: substitutable-heavy direct
  // edges, few complementary ones.
  spec.also_bought_per_item = 1;
  spec.also_viewed_per_item = 4;
  spec.topology = SocialTopology::kSmallWorld;
  spec.sw_neighbors = 6;
  spec.sw_rewire = 0.2;
  spec.mean_influence = 0.1;
  spec.importance = ImportanceKind::kUniformRandom;  // tickets cost alike
  return spec;
}

Dataset MakeFlixsterLike(double scale, uint64_t seed) {
  return GenerateSynthetic(FlixsterLikeSpec(scale, seed));
}

Dataset MakeSmallAmazonSample(uint64_t seed) {
  SyntheticSpec spec;
  spec.name = "amazon-100";
  spec.seed = seed;
  spec.num_users = 100;
  spec.num_items = 12;
  spec.num_features = 10;
  spec.num_brands = 4;
  spec.num_categories = 3;
  spec.topology = SocialTopology::kPreferentialAttachment;
  spec.directed = true;
  spec.pa_edges_per_node = 5;
  spec.mean_influence = 0.30;  // denser influence so OPT is separable
  spec.importance_mu = 0.5;
  spec.target_median_cost = 25.0;
  Dataset ds = GenerateSynthetic(spec);
  // Compress the cost spread so the pruned-exhaustive OPT of Fig. 8 (which
  // bounds the seed count, not the spend) upper-bounds the heuristics at
  // the paper's budget range (b = 50..125 buys 2..4 seeds).
  for (float& c : ds.cost) c = std::clamp(c, 22.0f, 34.0f);
  return ds;
}

Dataset MakeClassroom(int class_index, uint64_t seed) {
  IMDPP_CHECK(class_index >= 0 && class_index < 5);
  // Table III: classes A..E.
  constexpr int kUsers[5] = {33, 26, 22, 20, 20};
  SyntheticSpec spec;
  spec.name = std::string("class-") + static_cast<char>('A' + class_index);
  spec.seed = SplitMix64(seed + static_cast<uint64_t>(class_index));
  spec.num_users = kUsers[class_index];
  spec.num_items = 30;  // 30 elective courses
  spec.num_features = 24;
  spec.num_brands = 10;
  spec.num_categories = 6;
  KgTypeNames t;
  t.item = "COURSE";
  t.feature = "KEYWORD";
  t.brand = "TEACHER_FIELD";
  t.category = "CURRICULUM_FIELD";
  t.supports = "COVERS";
  t.has_brand = "TAUGHT_IN";
  t.in_category = "BELONGS_TO";
  t.also_bought = "FOLLOWS";  // prerequisite chains are complementary
  t.also_viewed = "OVERLAPS"; // overlapping syllabi are substitutable
  spec.types = t;
  spec.topology = SocialTopology::kCommunity;
  spec.community_blocks = 3;      // study subgroups inside a class
  spec.community_p_in = 0.65;     // Table III edge densities
  spec.community_p_out = 0.25;
  spec.mean_influence = 0.1;
  spec.base_pref_hi = 0.3;
  spec.importance_mu = 0.0;  // courses are equally valued, price-free
  spec.importance_sigma = 0.2;
  spec.target_median_cost = 12.0;  // b = 50 buys a few student seeds
  return GenerateSynthetic(spec);
}

Dataset MakeFig1Toy() {
  Dataset ds;
  ds.name = "fig1-toy";
  ds.kg = std::make_unique<kg::KnowledgeGraph>("ITEM");
  kg::KnowledgeGraph& g = *ds.kg;
  kg::KgNodeId iphone = g.AddNode("ITEM", "iPhone");
  kg::KgNodeId airpods = g.AddNode("ITEM", "AirPods");
  kg::KgNodeId charger = g.AddNode("ITEM", "WirelessCharger");
  kg::KgNodeId cable = g.AddNode("ITEM", "ChargingCable");
  kg::KgNodeId bluetooth = g.AddNode("FEATURE", "Bluetooth");
  kg::KgNodeId qi = g.AddNode("FEATURE", "QiStandard");
  kg::KgNodeId apple = g.AddNode("BRAND", "AppleInc");
  kg::KgNodeId accessory = g.AddNode("CATEGORY", "ChargingAccessory");
  g.AddEdge(iphone, bluetooth, "SUPPORTS");
  g.AddEdge(airpods, bluetooth, "SUPPORTS");
  g.AddEdge(iphone, qi, "SUPPORTS");
  g.AddEdge(charger, qi, "SUPPORTS");
  g.AddEdge(iphone, apple, "HAS_BRAND");
  g.AddEdge(airpods, apple, "HAS_BRAND");
  g.AddEdge(charger, accessory, "IN_CATEGORY");
  g.AddEdge(cable, accessory, "IN_CATEGORY");
  g.AddEdge(iphone, airpods, "ALSO_BOUGHT");

  std::vector<kg::MetaGraph> metas;
  kg::MetaGraph m1 = kg::SharedNeighborMeta(
      g, "m1:shared-feature", kg::RelationKind::kComplementary, "SUPPORTS",
      "FEATURE");
  kg::MetaGraph brand_leg = kg::SharedNeighborMeta(
      g, "brand-leg", kg::RelationKind::kComplementary, "HAS_BRAND", "BRAND");
  kg::MetaGraph m2 =
      kg::DirectEdgeMeta(g, "m2:also-bought", kg::RelationKind::kComplementary,
                         "ALSO_BOUGHT");
  kg::MetaGraph m3 = kg::ConjunctionMeta(
      "m3:feature-and-brand", kg::RelationKind::kComplementary, {m1, brand_leg});
  kg::MetaGraph ms = kg::SharedNeighborMeta(
      g, "mS:shared-category", kg::RelationKind::kSubstitutable, "IN_CATEGORY",
      "CATEGORY");
  metas.push_back(std::move(m1));
  metas.push_back(std::move(m2));
  metas.push_back(std::move(m3));
  metas.push_back(std::move(ms));
  ds.relevance = std::make_unique<kg::RelevanceModel>(
      kg::RelevanceModel::FromKg(g, std::move(metas), 1.0));

  // Alice -> Bob, Cindy -> Bob (Fig. 2), plus a weak Bob -> Cindy tie.
  graph::GraphBuilder b(3);
  b.AddEdge(0, 1, 0.6);  // Alice -> Bob
  b.AddEdge(2, 1, 0.4);  // Cindy -> Bob
  b.AddEdge(1, 2, 0.2);  // Bob -> Cindy
  ds.social = std::make_unique<graph::SocialGraph>(b.Build());
  ds.directed_friendship = true;

  const int v = 3, ni = 4, nm = ds.relevance->NumMetas();
  ds.importance = {1.0, 0.5, 0.8, 0.3};
  ds.base_pref.assign(static_cast<size_t>(v) * ni, 0.1f);
  // Bob starts keen on the iPhone; Alice and Cindy already fans.
  ds.base_pref[1 * ni + 0] = 0.7f;  // Bob, iPhone
  ds.base_pref[0 * ni + 0] = 0.9f;  // Alice, iPhone
  ds.base_pref[2 * ni + 2] = 0.8f;  // Cindy, charger
  ds.cost.assign(static_cast<size_t>(v) * ni, 10.0f);
  ds.wmeta0.assign(static_cast<size_t>(v) * nm, 0.2f);
  return ds;
}

}  // namespace imdpp::data
