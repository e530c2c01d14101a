// Dataset catalog: scaled-down synthetic stand-ins for the paper's four
// dataset flavors (Table II), the 100-user sample used against OPT
// (Fig. 8), the five classroom datasets of the empirical study
// (Table III / Fig. 12), and the hand-built Fig. 1 toy KG.
//
// `scale` multiplies user/item counts (1.0 = the default laptop-scale
// sizes; the paper's millions of users are out of scope — see DESIGN.md).
#ifndef IMDPP_DATA_CATALOG_H_
#define IMDPP_DATA_CATALOG_H_

#include "data/synthetic.h"

namespace imdpp::data {

/// The scalable flavors below generate these specs; DatasetRegistry::Make
/// checks one (SpecError) before it allocates anything.
SyntheticSpec AmazonLikeSpec(double scale, uint64_t seed);
SyntheticSpec YelpLikeSpec(double scale, uint64_t seed);
SyntheticSpec DoubanLikeSpec(double scale, uint64_t seed);
SyntheticSpec GowallaLikeSpec(double scale, uint64_t seed);
SyntheticSpec FlixsterLikeSpec(double scale, uint64_t seed);

/// Amazon-flavor: directed (Pokec-supplemented) heavy-tailed friendships,
/// product KG with brands/categories/features, price importances.
Dataset MakeAmazonLike(double scale = 1.0, uint64_t seed = 11);

/// Yelp-flavor: undirected small-world friendships, business KG
/// (city/category/amenity), moderate influence strengths (0.121 avg).
Dataset MakeYelpLike(double scale = 1.0, uint64_t seed = 22);

/// Douban-flavor: large undirected graph, media KG (genre/author/tag),
/// complementary-heavy item relations, weak influence (0.011 avg).
Dataset MakeDoubanLike(double scale = 1.0, uint64_t seed = 33);

/// Gowalla-flavor: undirected check-in graph, spot KG (region/type),
/// random importances (the site is offline; Sec. VI-A does the same).
Dataset MakeGowallaLike(double scale = 1.0, uint64_t seed = 44);

/// Flixster-flavor: undirected movie-rating friendships (small-world),
/// film KG (studio/genre/keyword), substitutable-heavy item relations
/// (competing releases), uniform importances.
Dataset MakeFlixsterLike(double scale = 1.0, uint64_t seed = 88);

/// The 100-user Amazon sample compared against OPT (Fig. 8).
Dataset MakeSmallAmazonSample(uint64_t seed = 55);

/// Classroom datasets of the empirical study (Table III): five classes
/// A..E with the paper's user counts and a shared 30-course KG flavor.
/// `class_index` in [0, 5).
Dataset MakeClassroom(int class_index, uint64_t seed = 66);

/// Hand-built Fig. 1 toy: iPhone / AirPods / wireless charger / charging
/// cable, features Bluetooth & Qi, brand Apple; 3-user social graph
/// (Alice -> Bob <- Cindy). Used by unit tests and the quickstart.
Dataset MakeFig1Toy();

}  // namespace imdpp::data

#endif  // IMDPP_DATA_CATALOG_H_
