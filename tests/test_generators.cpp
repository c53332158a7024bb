#include "radio/graph_generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

namespace emis {
namespace {

TEST(Generators, ErdosRenyiEdgeCountMatchesExpectation) {
  Rng rng(1);
  const NodeId n = 400;
  const double p = 0.05;
  Graph g = gen::ErdosRenyi(n, p, rng);
  const double expected = p * n * (n - 1) / 2.0;  // ~3990
  const double sigma = std::sqrt(expected * (1 - p));
  EXPECT_NEAR(static_cast<double>(g.NumEdges()), expected, 6 * sigma);
}

TEST(Generators, ErdosRenyiExtremes) {
  Rng rng(2);
  EXPECT_EQ(gen::ErdosRenyi(50, 0.0, rng).NumEdges(), 0u);
  EXPECT_EQ(gen::ErdosRenyi(50, 1.0, rng).NumEdges(), 50u * 49 / 2);
  EXPECT_EQ(gen::ErdosRenyi(0, 0.5, rng).NumNodes(), 0u);
  EXPECT_EQ(gen::ErdosRenyi(1, 0.5, rng).NumEdges(), 0u);
}

TEST(Generators, ErdosRenyiIsDeterministicGivenRng) {
  Rng a(3), b(3);
  Graph g1 = gen::ErdosRenyi(100, 0.1, a);
  Graph g2 = gen::ErdosRenyi(100, 0.1, b);
  EXPECT_EQ(g1.EdgeList(), g2.EdgeList());
}

TEST(Generators, ErdosRenyiRejectsBadProbability) {
  Rng rng(4);
  EXPECT_THROW(gen::ErdosRenyi(10, -0.1, rng), PreconditionError);
  EXPECT_THROW(gen::ErdosRenyi(10, 1.1, rng), PreconditionError);
}

/// G(n, p) by the same geometric skips as gen::ErdosRenyi, but decoding each
/// position with a naive walk over all pairs in lexicographic order.
std::vector<Edge> NaiveErdosRenyiEdges(NodeId n, double p, Rng& rng) {
  std::vector<Edge> all;
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) all.push_back({u, v});
  if (p >= 1.0) return all;
  std::vector<Edge> picked;
  std::uint64_t pos = 0;
  for (;;) {
    const double draw = std::max(rng.UniformUnit(), 1e-300);
    const double skip = std::floor(std::log(draw) / std::log1p(-p));
    if (skip >= static_cast<double>(all.size() - pos)) break;
    pos += static_cast<std::uint64_t>(skip);
    picked.push_back(all[pos]);
    if (++pos >= all.size()) break;
  }
  return picked;
}

TEST(Generators, ErdosRenyiPairDecoderCrossesRowBoundaries) {
  // High p steps one pair at a time across every row end, including the
  // one-pair last row; low p jumps over one or several rows per draw.
  for (const NodeId n : {2u, 3u, 5u, 64u}) {
    for (const double p : {1.0, 0.999, 0.3, 0.02}) {
      Rng a(11), b(11);
      const Graph g = gen::ErdosRenyi(n, p, a);
      EXPECT_EQ(g.EdgeList(), NaiveErdosRenyiEdges(n, p, b)) << "n=" << n << " p=" << p;
      EXPECT_EQ(a.NextU64(), b.NextU64()) << "same draws consumed";
    }
  }
}

TEST(Generators, GnMExactCount) {
  Rng rng(5);
  Graph g = gen::GnM(100, 250, rng);
  EXPECT_EQ(g.NumNodes(), 100u);
  EXPECT_EQ(g.NumEdges(), 250u);
}

TEST(Generators, GnMFullAndEmpty) {
  Rng rng(6);
  EXPECT_EQ(gen::GnM(10, 45, rng).NumEdges(), 45u);
  EXPECT_EQ(gen::GnM(10, 0, rng).NumEdges(), 0u);
  EXPECT_THROW(gen::GnM(10, 46, rng), PreconditionError);
}

TEST(Generators, RandomGeometricMatchesBruteForce) {
  // The bucketed implementation must produce exactly the same edge set as a
  // quadratic check over the same sampled points. We verify structure
  // indirectly: every edge respects the radius, and node degrees grow with
  // radius.
  Rng rng(7);
  const double radius = 0.15;
  Graph g = gen::RandomGeometric(300, radius, rng);
  EXPECT_EQ(g.NumNodes(), 300u);
  // Expected edges ~ n^2/2 * pi r^2 (minus boundary effects); sanity window.
  EXPECT_GT(g.NumEdges(), 500u);
  EXPECT_LT(g.NumEdges(), 6000u);
}

TEST(Generators, RandomGeometricZeroRadius) {
  Rng rng(8);
  EXPECT_EQ(gen::RandomGeometric(100, 0.0, rng).NumEdges(), 0u);
}

TEST(Generators, RandomGeometricFullRadius) {
  Rng rng(9);
  // radius sqrt(2) covers the whole unit square: complete graph.
  Graph g = gen::RandomGeometric(40, 1.5, rng);
  EXPECT_EQ(g.NumEdges(), 40u * 39 / 2);
}

TEST(Generators, GridStructure) {
  Graph g = gen::Grid(3, 4);
  EXPECT_EQ(g.NumNodes(), 12u);
  EXPECT_EQ(g.NumEdges(), 3u * 3 + 2 * 4);  // rows*(cols-1) + (rows-1)*cols
  EXPECT_EQ(g.Degree(0), 2u);               // corner
  EXPECT_EQ(g.Degree(1), 3u);               // edge
  EXPECT_EQ(g.Degree(5), 4u);               // interior
  EXPECT_TRUE(g.IsConnected());
}

TEST(Generators, PathAndCycle) {
  Graph p = gen::Path(5);
  EXPECT_EQ(p.NumEdges(), 4u);
  EXPECT_EQ(p.Degree(0), 1u);
  EXPECT_EQ(p.Degree(2), 2u);

  Graph c = gen::Cycle(5);
  EXPECT_EQ(c.NumEdges(), 5u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(c.Degree(v), 2u);
  EXPECT_THROW(gen::Cycle(2), PreconditionError);
  EXPECT_EQ(gen::Cycle(0).NumNodes(), 0u);
}

TEST(Generators, StarStructure) {
  Graph g = gen::Star(7);
  EXPECT_EQ(g.NumEdges(), 6u);
  EXPECT_EQ(g.Degree(0), 6u);
  for (NodeId v = 1; v < 7; ++v) EXPECT_EQ(g.Degree(v), 1u);
}

TEST(Generators, CompleteAndBipartite) {
  EXPECT_EQ(gen::Complete(6).NumEdges(), 15u);
  Graph kb = gen::CompleteBipartite(3, 4);
  EXPECT_EQ(kb.NumNodes(), 7u);
  EXPECT_EQ(kb.NumEdges(), 12u);
  EXPECT_FALSE(kb.HasEdge(0, 1));  // within left side
  EXPECT_TRUE(kb.HasEdge(0, 3));   // across
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(10);
  for (NodeId n : {NodeId{1}, NodeId{2}, NodeId{3}, NodeId{10}, NodeId{100}}) {
    Graph g = gen::RandomTree(n, rng);
    EXPECT_EQ(g.NumNodes(), n);
    if (n >= 1) {
      EXPECT_EQ(g.NumEdges(), n - 1);
      EXPECT_TRUE(g.IsConnected()) << "n=" << n;
    }
  }
}

TEST(Generators, NearRegularDegreesBounded) {
  Rng rng(11);
  const std::uint32_t d = 6;
  Graph g = gen::NearRegular(200, d, rng);
  std::uint32_t at_degree = 0;
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    EXPECT_LE(g.Degree(v), d);
    at_degree += g.Degree(v) == d;
  }
  // Nearly all nodes should reach the target degree.
  EXPECT_GT(at_degree, 180u);
}

TEST(Generators, BarabasiAlbertStructure) {
  Rng rng(12);
  const NodeId n = 300;
  const std::uint32_t m = 3;
  Graph g = gen::BarabasiAlbert(n, m, rng);
  EXPECT_EQ(g.NumNodes(), n);
  // Seed clique (m+1 choose 2) + m per subsequent node.
  EXPECT_EQ(g.NumEdges(), 6u + (n - m - 1) * m);
  EXPECT_TRUE(g.IsConnected());
  // Preferential attachment should produce a hub well above m.
  EXPECT_GT(g.MaxDegree(), 3 * m);
}

TEST(Generators, MatchingPlusIsolatedPaperShape) {
  // Theorem 1's family: n/4 disjoint edges + n/2 isolated nodes.
  Graph g = gen::MatchingPlusIsolated(16);
  EXPECT_EQ(g.NumNodes(), 16u);
  EXPECT_EQ(g.NumEdges(), 4u);
  EXPECT_EQ(g.MaxDegree(), 1u);
  NodeId isolated = 0;
  for (NodeId v = 0; v < 16; ++v) isolated += g.Degree(v) == 0;
  EXPECT_EQ(isolated, 8u);
}

TEST(Generators, MatchingPlusIsolatedSmall) {
  EXPECT_EQ(gen::MatchingPlusIsolated(3).NumEdges(), 0u);
  EXPECT_EQ(gen::MatchingPlusIsolated(4).NumEdges(), 1u);
}

TEST(Generators, PerfectMatching) {
  Graph g = gen::PerfectMatching(10);
  EXPECT_EQ(g.NumEdges(), 5u);
  for (NodeId v = 0; v < 10; ++v) EXPECT_EQ(g.Degree(v), 1u);
  EXPECT_THROW(gen::PerfectMatching(7), PreconditionError);
}

TEST(Generators, DisjointCliques) {
  Graph g = gen::DisjointCliques(4, 5);
  EXPECT_EQ(g.NumNodes(), 20u);
  EXPECT_EQ(g.NumEdges(), 4u * 10);
  std::vector<std::uint32_t> comp;
  EXPECT_EQ(g.ConnectedComponents(comp), 4u);
}

TEST(Generators, Caterpillar) {
  Graph g = gen::Caterpillar(4, 2);
  EXPECT_EQ(g.NumNodes(), 12u);
  EXPECT_EQ(g.NumEdges(), 3u + 8);
  EXPECT_TRUE(g.IsConnected());
  EXPECT_EQ(g.Degree(0), 3u);  // spine end: 1 spine + 2 legs
  EXPECT_EQ(g.Degree(1), 4u);  // spine middle
}

TEST(Generators, EmptyGenerator) {
  Graph g = gen::Empty(9);
  EXPECT_EQ(g.NumNodes(), 9u);
  EXPECT_EQ(g.NumEdges(), 0u);
}

}  // namespace
}  // namespace emis
