// Configurable synthetic dataset generator.
//
// Substitution note (see DESIGN.md): the paper evaluates on crawled
// datasets (Amazon+Pokec, Yelp, Douban, Gowalla). We generate synthetic
// datasets that reproduce the structural features the algorithms consume:
//   * HIN-style KG with item / feature / brand / category node types and
//     typed edges, from which the six standard meta-graphs (three
//     complementary, three substitutable) derive the relevance matrices;
//   * heavy-tailed or small-world social graphs (directed for the
//     Amazon/Pokec flavor), with per-edge base influence strengths;
//   * interest-driven base preferences, price-like importances, and costs
//     c_{u,x} ∝ outdeg(u) / Ppref(u,x) exactly as Sec. VI-A prescribes.
#ifndef IMDPP_DATA_SYNTHETIC_H_
#define IMDPP_DATA_SYNTHETIC_H_

#include <string>

#include "data/dataset.h"
#include "graph/topology.h"

namespace imdpp::data {

/// KG node/edge type names, overridable so flavors read naturally
/// (e.g. the classroom datasets use COURSE / KEYWORD / TEACHER / FIELD).
struct KgTypeNames {
  std::string item = "ITEM";
  std::string feature = "FEATURE";
  std::string brand = "BRAND";
  std::string category = "CATEGORY";
  std::string supports = "SUPPORTS";
  std::string has_brand = "HAS_BRAND";
  std::string in_category = "IN_CATEGORY";
  std::string also_bought = "ALSO_BOUGHT";
  std::string also_viewed = "ALSO_VIEWED";

  bool operator==(const KgTypeNames&) const = default;
};

enum class SocialTopology { kPreferentialAttachment, kSmallWorld, kCommunity };
enum class ImportanceKind { kLogNormalPrice, kUniformRandom };

struct SyntheticSpec {
  std::string name = "synthetic";
  uint64_t seed = 1;

  // --- knowledge graph ---
  KgTypeNames types;
  int num_items = 40;
  int num_features = 30;
  int num_brands = 8;
  int num_categories = 6;
  int features_per_item = 3;
  int also_bought_per_item = 2;  ///< complementary direct edges
  int also_viewed_per_item = 2;  ///< substitutable direct edges
  double relevance_kappa = 2.0;

  // --- social network ---
  int num_users = 200;
  SocialTopology topology = SocialTopology::kPreferentialAttachment;
  bool directed = false;
  double mean_influence = 0.1;
  int pa_edges_per_node = 3;
  int sw_neighbors = 4;      ///< k for small world
  double sw_rewire = 0.1;    ///< beta for small world
  int community_blocks = 4;  ///< for kCommunity
  double community_p_in = 0.3;
  double community_p_out = 0.01;

  // --- users ---
  double base_pref_lo = 0.02;
  double base_pref_hi = 0.35;
  /// Extra preference for items in the user's interest category.
  double interest_boost = 0.3;
  double wmeta_lo = 0.2;
  double wmeta_hi = 0.7;

  // --- items ---
  ImportanceKind importance = ImportanceKind::kLogNormalPrice;
  double importance_mu = 0.4;
  double importance_sigma = 0.5;

  // --- costs (c ∝ outdeg / pref, rescaled to a target median) ---
  double target_median_cost = 25.0;

  bool operator==(const SyntheticSpec&) const = default;
};

/// Generates the dataset; deterministic in `spec.seed`.
Dataset GenerateSynthetic(const SyntheticSpec& spec);

}  // namespace imdpp::data

#endif  // IMDPP_DATA_SYNTHETIC_H_
