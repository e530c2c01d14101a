#include <gtest/gtest.h>

#include <string>

#include "data/dataset_registry.h"
#include "graph/graph_algos.h"
#include "graph/graph_builder.h"
#include "graph/topology.h"

namespace imdpp::graph {
namespace {

SocialGraph Line3() {
  GraphBuilder b(3);
  b.AddEdge(0, 1, 0.5);
  b.AddEdge(1, 2, 0.25);
  return b.Build();
}

TEST(GraphBuilder, BasicCsr) {
  SocialGraph g = Line3();
  EXPECT_EQ(g.NumUsers(), 3);
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_EQ(g.OutDegree(0), 1);
  EXPECT_EQ(g.OutDegree(2), 0);
  EXPECT_EQ(g.InDegree(2), 1);
  EXPECT_EQ(g.OutEdges(0)[0].to, 1);
  EXPECT_FLOAT_EQ(g.OutEdges(0)[0].weight, 0.5f);
  EXPECT_EQ(g.InEdges(1)[0].to, 0);  // in-edge reports the source
}

TEST(GraphBuilder, SelfLoopIgnored) {
  GraphBuilder b(2);
  b.AddEdge(0, 0, 0.5);
  b.AddEdge(0, 1, 0.5);
  SocialGraph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 1);
}

TEST(GraphBuilder, DuplicateKeepsMaxWeight) {
  GraphBuilder b(2);
  b.AddEdge(0, 1, 0.2);
  b.AddEdge(0, 1, 0.7);
  b.AddEdge(0, 1, 0.4);
  SocialGraph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 1);
  EXPECT_FLOAT_EQ(g.OutEdges(0)[0].weight, 0.7f);
}

TEST(GraphBuilder, UndirectedAddsBoth) {
  GraphBuilder b(2);
  b.AddUndirectedEdge(0, 1, 0.3);
  SocialGraph g = b.Build();
  EXPECT_EQ(g.NumEdges(), 2);
  EXPECT_DOUBLE_EQ(g.BaseWeight(0, 1), g.BaseWeight(1, 0));
}

TEST(SocialGraph, BaseWeightAbsentEdge) {
  SocialGraph g = Line3();
  EXPECT_DOUBLE_EQ(g.BaseWeight(0, 2), 0.0);
  EXPECT_FALSE(g.HasEdge(2, 0));
  EXPECT_TRUE(g.HasEdge(0, 1));
}

TEST(SocialGraph, AverageInfluence) {
  SocialGraph g = Line3();
  EXPECT_NEAR(g.AverageInfluenceStrength(), 0.375, 1e-9);
}

// Each in-edge names its slot among its source's out-edges, and each
// source's out-edges are sorted by target (base replay merges a source's
// dirty out-edges into its logged calls in slot order): on every catalog
// dataset's graph.
TEST(SocialGraph, InEdgeSlotsPointBackAtTheirOutEdges) {
  for (const std::string& name : data::DatasetRegistry::Names()) {
    SCOPED_TRACE(name);
    const data::Dataset ds = data::DatasetRegistry::MakeOrDie({name, 0.3, 0});
    const SocialGraph& g = *ds.social;
    int64_t in_edges = 0;
    for (UserId u = 0; u < g.NumUsers(); ++u) {
      const std::span<const Edge> in = g.InEdges(u);
      const std::span<const uint32_t> slots = g.InEdgeSlots(u);
      ASSERT_EQ(in.size(), slots.size());
      for (size_t i = 0; i < in.size(); ++i) {
        const std::span<const Edge> out = g.OutEdges(in[i].to);
        ASSERT_LT(slots[i], out.size());
        EXPECT_EQ(out[slots[i]].to, u);
        EXPECT_EQ(out[slots[i]].weight, in[i].weight);
      }
      in_edges += static_cast<int64_t>(in.size());
      const std::span<const Edge> out = g.OutEdges(u);
      for (size_t k = 1; k < out.size(); ++k) {
        EXPECT_LT(out[k - 1].to, out[k].to);
      }
    }
    EXPECT_EQ(in_edges, g.NumEdges());
  }
}

TEST(BfsHops, DistancesAndTruncation) {
  SocialGraph g = Line3();
  std::vector<int> d = BfsHops(g, 0, 10);
  EXPECT_EQ(d[0], 0);
  EXPECT_EQ(d[1], 1);
  EXPECT_EQ(d[2], 2);
  std::vector<int> d1 = BfsHops(g, 0, 1);
  EXPECT_EQ(d1[2], kUnreachable);
}

TEST(BfsHops, DirectionalityRespected) {
  SocialGraph g = Line3();
  std::vector<int> d = BfsHops(g, 2, 10);
  EXPECT_EQ(d[0], kUnreachable);
}

TEST(UndirectedHopDistance, IgnoresDirection) {
  SocialGraph g = Line3();
  EXPECT_EQ(UndirectedHopDistance(g, 2, 0, 10), 2);
  EXPECT_EQ(UndirectedHopDistance(g, 0, 0, 10), 0);
}

TEST(UndirectedHopDistance, Truncates) {
  SocialGraph g = Line3();
  EXPECT_EQ(UndirectedHopDistance(g, 0, 2, 1), kUnreachable);
}

TEST(MaxInfluencePaths, PicksBestPath) {
  // Two routes 0->2: direct (0.1) and via 1 (0.5*0.5 = 0.25).
  GraphBuilder b(3);
  b.AddEdge(0, 2, 0.1);
  b.AddEdge(0, 1, 0.5);
  b.AddEdge(1, 2, 0.5);
  SocialGraph g = b.Build();
  InfluencePaths p = MaxInfluencePaths(g, 0, 0.05);
  ASSERT_EQ(p.users.size(), 3u);
  for (size_t i = 0; i < p.users.size(); ++i) {
    if (p.users[i] == 2) {
      EXPECT_NEAR(p.path_prob[i], 0.25, 1e-9);
      EXPECT_EQ(p.hops[i], 2);
    }
  }
}

TEST(MaxInfluencePaths, ThresholdPrunes) {
  SocialGraph g = Line3();  // probs: 1, 0.5, 0.125
  InfluencePaths p = MaxInfluencePaths(g, 0, 0.3);
  EXPECT_EQ(p.users.size(), 2u);  // node 2 at 0.125 pruned
}

TEST(MaxInfluencePaths, SourceAlwaysIncluded) {
  GraphBuilder b(1);
  SocialGraph g = b.Build();
  InfluencePaths p = MaxInfluencePaths(g, 0, 0.9);
  ASSERT_EQ(p.users.size(), 1u);
  EXPECT_EQ(p.users[0], 0);
  EXPECT_DOUBLE_EQ(p.path_prob[0], 1.0);
}

TEST(WeakComponents, TwoIslands) {
  GraphBuilder b(4);
  b.AddEdge(0, 1, 0.5);
  b.AddEdge(3, 2, 0.5);
  SocialGraph g = b.Build();
  int n = 0;
  std::vector<int> comp = WeakComponents(g, &n);
  EXPECT_EQ(n, 2);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
}

TEST(SubsetEccentricity, RestrictsToMembers) {
  // 0-1-2-3 chain; subset {0,1,3}: 3 unreachable inside subset -> ecc 1.
  GraphBuilder b(4);
  b.AddEdge(0, 1, 0.5);
  b.AddEdge(1, 2, 0.5);
  b.AddEdge(2, 3, 0.5);
  SocialGraph g = b.Build();
  EXPECT_EQ(SubsetEccentricity(g, 0, {0, 1, 2, 3}, 10), 3);
  EXPECT_EQ(SubsetEccentricity(g, 0, {0, 1, 3}, 10), 1);
}

TEST(Topology, PreferentialAttachmentShape) {
  TopologyConfig cfg;
  cfg.num_users = 200;
  cfg.seed = 3;
  SocialGraph g = MakePreferentialAttachment(cfg, 3);
  EXPECT_EQ(g.NumUsers(), 200);
  EXPECT_GT(g.NumEdges(), 400);
  // Heavy tail: max degree well above the mean.
  int max_deg = 0;
  int64_t total = 0;
  for (UserId u = 0; u < g.NumUsers(); ++u) {
    max_deg = std::max(max_deg, g.OutDegree(u) + g.InDegree(u));
    total += g.OutDegree(u);
  }
  EXPECT_GT(max_deg, 3 * static_cast<int>(total / g.NumUsers()));
}

TEST(Topology, PreferentialAttachmentDeterministic) {
  TopologyConfig cfg;
  cfg.num_users = 50;
  cfg.seed = 9;
  SocialGraph a = MakePreferentialAttachment(cfg, 2);
  SocialGraph b = MakePreferentialAttachment(cfg, 2);
  EXPECT_EQ(a.NumEdges(), b.NumEdges());
  for (UserId u = 0; u < a.NumUsers(); ++u) {
    EXPECT_EQ(a.OutDegree(u), b.OutDegree(u));
  }
}

TEST(Topology, SmallWorldDegrees) {
  TopologyConfig cfg;
  cfg.num_users = 100;
  cfg.seed = 4;
  SocialGraph g = MakeSmallWorld(cfg, 3, 0.1);
  EXPECT_EQ(g.NumUsers(), 100);
  // Ring lattice baseline: ~6 incident stored directions per user.
  EXPECT_GT(g.NumEdges(), 500);
}

TEST(Topology, CommunityGraphDenserInside) {
  TopologyConfig cfg;
  cfg.num_users = 60;
  cfg.seed = 5;
  SocialGraph g = MakeCommunityGraph(cfg, 3, 0.5, 0.01);
  int64_t inside = 0, across = 0;
  auto block = [&](UserId u) { return (u * 3) / 60; };
  for (UserId u = 0; u < g.NumUsers(); ++u) {
    for (const Edge& e : g.OutEdges(u)) {
      (block(u) == block(e.to) ? inside : across) += 1;
    }
  }
  EXPECT_GT(inside, 5 * across);
}

TEST(Topology, WeightsWithinCaps) {
  TopologyConfig cfg;
  cfg.num_users = 80;
  cfg.mean_influence = 0.5;
  cfg.seed = 6;
  SocialGraph g = MakePreferentialAttachment(cfg, 3);
  for (UserId u = 0; u < g.NumUsers(); ++u) {
    for (const Edge& e : g.OutEdges(u)) {
      EXPECT_GE(e.weight, 0.01f);
      EXPECT_LE(e.weight, 0.95f);
    }
  }
}

}  // namespace
}  // namespace imdpp::graph
