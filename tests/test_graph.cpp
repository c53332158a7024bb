#include "radio/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "radio/graph_generators.hpp"
#include "radio/graph_io.hpp"
#include "verify/parallel.hpp"

namespace emis {
namespace {

TEST(Graph, EmptyGraph) {
  Graph g;
  EXPECT_EQ(g.NumNodes(), 0u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.MaxDegree(), 0u);
  EXPECT_TRUE(g.IsConnected());
}

TEST(Graph, EdgelessGraph) {
  Graph g = GraphBuilder(5).Build();
  EXPECT_EQ(g.NumNodes(), 5u);
  EXPECT_EQ(g.NumEdges(), 0u);
  EXPECT_EQ(g.Degree(3), 0u);
  EXPECT_TRUE(g.Neighbors(3).empty());
  EXPECT_FALSE(g.IsConnected());
}

TEST(Graph, TriangleBasics) {
  Graph g = Graph::FromEdges(3, {{0, 1}, {1, 2}, {0, 2}});
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 3u);
  EXPECT_EQ(g.MaxDegree(), 2u);
  for (NodeId v = 0; v < 3; ++v) EXPECT_EQ(g.Degree(v), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(1, 0));
  EXPECT_TRUE(g.HasEdge(2, 0));
  EXPECT_FALSE(g.HasEdge(0, 0));
}

TEST(Graph, NeighborsAreSorted) {
  Graph g = Graph::FromEdges(6, {{3, 5}, {3, 1}, {3, 4}, {3, 0}});
  const auto nbrs = g.Neighbors(3);
  EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  EXPECT_EQ(nbrs.size(), 4u);
}

TEST(Graph, EdgeOrientationNormalized) {
  Graph g = Graph::FromEdges(4, {{2, 0}, {3, 1}});
  const auto edges = g.EdgeList();
  ASSERT_EQ(edges.size(), 2u);
  EXPECT_EQ(edges[0], (Edge{0, 2}));
  EXPECT_EQ(edges[1], (Edge{1, 3}));
}

TEST(Graph, RejectsSelfLoop) {
  GraphBuilder b(3);
  EXPECT_THROW(b.AddEdge(1, 1), PreconditionError);
}

TEST(Graph, RejectsOutOfRange) {
  GraphBuilder b(3);
  EXPECT_THROW(b.AddEdge(0, 3), PreconditionError);
  Graph g = Graph::FromEdges(3, {{0, 1}});
  EXPECT_THROW(g.Degree(3), PreconditionError);
  EXPECT_THROW((void)g.Neighbors(7), PreconditionError);
  EXPECT_THROW(g.HasEdge(0, 9), PreconditionError);
}

TEST(Graph, RejectsDuplicateEdge) {
  GraphBuilder b(3);
  b.AddEdge(0, 1);
  b.AddEdge(1, 0);  // same edge, opposite orientation
  EXPECT_THROW(std::move(b).Build(), PreconditionError);
}

TEST(GraphBuilder, AddEdgeIfAbsent) {
  GraphBuilder b(4);
  EXPECT_TRUE(b.AddEdgeIfAbsent(0, 1));
  EXPECT_FALSE(b.AddEdgeIfAbsent(1, 0));
  EXPECT_FALSE(b.AddEdgeIfAbsent(2, 2));  // self-loop: not added, no throw
  EXPECT_TRUE(b.AddEdgeIfAbsent(2, 3));
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(GraphBuilder, MixedStylesStayConsistent) {
  GraphBuilder b(4);
  b.AddEdge(0, 1);
  EXPECT_FALSE(b.AddEdgeIfAbsent(1, 0));  // must see the AddEdge edge
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(GraphBuilder, AddEdgeAfterIfAbsentKeepsMembershipCurrent) {
  // The membership set materializes lazily on the first AddEdgeIfAbsent;
  // AddEdge calls after that point must keep feeding it.
  GraphBuilder b(4);
  EXPECT_TRUE(b.AddEdgeIfAbsent(0, 1));
  b.AddEdge(2, 3);
  EXPECT_FALSE(b.AddEdgeIfAbsent(3, 2));
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumEdges(), 2u);
}

TEST(GraphBuilder, AddEdgeDedupCollapsesDuplicatesAtBuild) {
  GraphBuilder b(4);
  b.AddEdgeDedup(0, 1);
  b.AddEdgeDedup(1, 0);  // duplicate, opposite orientation
  b.AddEdgeDedup(0, 1);  // duplicate again
  b.AddEdgeDedup(2, 3);
  EXPECT_EQ(b.num_pending_edges(), 4u);
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(0, 1));
  EXPECT_TRUE(g.HasEdge(2, 3));
}

TEST(GraphBuilder, AddEdgeDedupRejectsSelfLoops) {
  GraphBuilder b(3);
  EXPECT_THROW(b.AddEdgeDedup(1, 1), PreconditionError);
}

TEST(GraphBuilder, ReserveDoesNotChangeTheResult) {
  GraphBuilder b(3);
  b.Reserve(100);
  b.AddEdge(0, 1);
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 1u);
}

TEST(Graph, InducedSubgraph) {
  // Path 0-1-2-3-4; induce {0, 2, 3}: only edge 2-3 survives.
  Graph g = Graph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const std::vector<NodeId> pick = {3, 0, 2};  // intentionally unsorted
  auto sub = g.Induced(pick);
  EXPECT_EQ(sub.graph.NumNodes(), 3u);
  EXPECT_EQ(sub.graph.NumEdges(), 1u);
  // to_original is sorted: [0, 2, 3]; the edge joins subgraph ids 1 and 2.
  ASSERT_EQ(sub.to_original, (std::vector<NodeId>{0, 2, 3}));
  EXPECT_TRUE(sub.graph.HasEdge(1, 2));
  EXPECT_FALSE(sub.graph.HasEdge(0, 1));
}

TEST(Graph, InducedRejectsDuplicates) {
  Graph g = Graph::FromEdges(3, {{0, 1}});
  const std::vector<NodeId> pick = {1, 1};
  EXPECT_THROW((void)g.Induced(pick), PreconditionError);
}

TEST(Graph, InducedEmptySelection) {
  Graph g = Graph::FromEdges(3, {{0, 1}});
  auto sub = g.Induced(std::vector<NodeId>{});
  EXPECT_EQ(sub.graph.NumNodes(), 0u);
}

TEST(Graph, ConnectedComponents) {
  // Two triangles and an isolated node.
  Graph g = Graph::FromEdges(7, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {4, 5}, {3, 5}});
  std::vector<std::uint32_t> comp;
  EXPECT_EQ(g.ConnectedComponents(comp), 3u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[1], comp[2]);
  EXPECT_EQ(comp[3], comp[4]);
  EXPECT_NE(comp[0], comp[3]);
  EXPECT_NE(comp[6], comp[0]);
  EXPECT_NE(comp[6], comp[3]);
  EXPECT_FALSE(g.IsConnected());
}

TEST(Graph, SingleNodeIsConnected) {
  Graph g = GraphBuilder(1).Build();
  EXPECT_TRUE(g.IsConnected());
}

TEST(Graph, MaxDegreeOnStar) {
  GraphBuilder b(6);
  for (NodeId v = 1; v < 6; ++v) b.AddEdge(0, v);
  Graph g = std::move(b).Build();
  EXPECT_EQ(g.MaxDegree(), 5u);
  EXPECT_EQ(g.Degree(0), 5u);
  EXPECT_EQ(g.Degree(1), 1u);
}

TEST(Graph, EdgeListRoundTrips) {
  const std::vector<Edge> edges = {{0, 3}, {1, 2}, {2, 3}};
  Graph g = Graph::FromEdges(4, edges);
  Graph g2 = Graph::FromEdges(4, g.EdgeList());
  EXPECT_EQ(g2.NumEdges(), g.NumEdges());
  for (const Edge& e : edges) EXPECT_TRUE(g2.HasEdge(e.u, e.v));
}

// ---------------------------------------------------------------------------
// CSR identity: the builder's output is pinned byte for byte.

/// FNV-1a over the row offsets, the adjacency array and Δ: any change in how
/// Build lays out a graph moves it.
std::uint64_t CsrHash(const Graph& g) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  auto mix = [&hash](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      hash ^= (x >> (8 * i)) & 0xFF;
      hash *= 0x100000001B3ULL;
    }
  };
  for (std::uint64_t offset : g.RowOffsets()) mix(offset);
  for (NodeId w : g.Adjacency()) mix(w);
  mix(g.MaxDegree());
  return hash;
}

void ExpectSameCsr(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.NumNodes(), b.NumNodes());
  EXPECT_TRUE(std::ranges::equal(a.RowOffsets(), b.RowOffsets()));
  EXPECT_TRUE(std::ranges::equal(a.Adjacency(), b.Adjacency()));
  EXPECT_EQ(a.MaxDegree(), b.MaxDegree());
}

/// Build's job counts under test: the one-chunk cut and two chunked cuts.
constexpr unsigned kJobCounts[] = {1, 2, 4};

// Hashes recorded from the global-sort builder this one replaced; every
// family here must keep building the very same CSR.
TEST(GraphCsrGolden, SeededSpecsBuildIdenticalCsr) {
  struct Case {
    const char* spec;
    std::uint64_t seed;
    std::uint64_t hash;
  };
  const Case cases[] = {
      {"er:n=2048,p=0.125", 1, 0x6c2096b6422de251ULL},  // dense, d ~ 256
      {"er:n=4096,p=0.002", 2, 0xf094987d38a8ea23ULL},  // sparse, d ~ 8
      {"udg:n=2000,r=0.05", 3, 0xd156d0858f2e312fULL},
      {"gnm:n=1000,m=5000", 4, 0x4c87ebda4081e369ULL},
      {"ba:n=1000,m=4", 5, 0x4cce587be1dc3e01ULL},
      {"regular:n=1000,d=8", 6, 0x0706fd6947815417ULL},
      {"tree:n=1000", 7, 0x2a6c556096b0cdfcULL},
      {"grid:rows=30,cols=40", 8, 0x82faee4a08e395fcULL},
      {"cliques:count=20,size=12", 9, 0x848a24af3d2eaa91ULL},
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    const Graph g = GraphFromSpec(c.spec, rng);
    EXPECT_EQ(CsrHash(g), c.hash) << c.spec;
    // Rebuilt from its lexicographic edge list (the G(n, p) generator's own
    // order) at each job count; the dense case is above the chunk grain.
    for (const unsigned jobs : kJobCounts) {
      GraphBuilder builder(g.NumNodes());
      for (const Edge& e : g.EdgeList()) builder.AddEdge(e.u, e.v);
      EXPECT_EQ(CsrHash(std::move(builder).Build(jobs)), c.hash)
          << c.spec << " jobs=" << jobs;
    }
  }
}

TEST(GraphCsrGolden, SquareBuildsIdenticalCsr) {
  Rng rng(10);
  const Graph g = gen::ErdosRenyi(500, 0.01, rng);
  const Graph square = g.Square();
  EXPECT_EQ(square.NumEdges(), 7398u);
  EXPECT_EQ(CsrHash(square), 0xb624d4a24a0b7046ULL);
  // The same AddEdgeDedup stream Square() appends, built at each job count.
  for (const unsigned jobs : kJobCounts) {
    GraphBuilder builder(g.NumNodes());
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      for (NodeId w : g.Neighbors(v)) {
        if (v < w) builder.AddEdgeDedup(v, w);
        for (NodeId x : g.Neighbors(w)) {
          if (v < x) builder.AddEdgeDedup(v, x);
        }
      }
    }
    EXPECT_EQ(CsrHash(std::move(builder).Build(jobs)), 0xb624d4a24a0b7046ULL)
        << "jobs=" << jobs;
  }
}

/// The edges of a seeded random graph, shuffled and randomly oriented.
/// Each case draws from CounterHash(seed, index), so a failure replays from
/// its index alone.
struct ShuffledCase {
  Graph sorted;
  std::vector<Edge> edges;
  Rng rng;
};

ShuffledCase ShuffleEdges(Graph sorted, Rng rng) {
  std::vector<Edge> edges = sorted.EdgeList();
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.UniformBelow(i)]);
  }
  for (Edge& e : edges) {
    if (rng.Bernoulli(0.5)) std::swap(e.u, e.v);
  }
  return {std::move(sorted), std::move(edges), rng};
}

ShuffledCase MakeShuffledCase(std::uint64_t index) {
  Rng rng(CounterHash(0x5eed, index, 0, 0));
  const auto n = static_cast<NodeId>(2 + rng.UniformBelow(200));
  const double p = rng.UniformUnit() * 0.3;
  Graph sorted = gen::ErdosRenyi(n, p, rng);
  return ShuffleEdges(std::move(sorted), rng);
}

/// A case dense enough that Build cuts several chunks: 280 K to 580 K edges,
/// above four times the 64 Ki-edge grain, at average degree ~280 to ~480.
ShuffledCase MakeChunkedCase(std::uint64_t index) {
  Rng rng(CounterHash(0xc4a1, index, 0, 0));
  const auto n = static_cast<NodeId>(2000 + rng.UniformBelow(400));
  const double p = 0.14 + rng.UniformUnit() * 0.06;
  Graph sorted = gen::ErdosRenyi(n, p, rng);
  return ShuffleEdges(std::move(sorted), rng);
}

TEST(GraphCsrProperty, ShuffledOrientedEdgesBuildSortedCsr) {
  for (std::uint64_t index = 0; index < 200; ++index) {
    SCOPED_TRACE("case " + std::to_string(index));
    const ShuffledCase c = MakeShuffledCase(index);
    ExpectSameCsr(Graph::FromEdges(c.sorted.NumNodes(), c.edges), c.sorted);
  }
}

TEST(GraphCsrProperty, DuplicateInEitherOrientationThrowsAtBuild) {
  for (std::uint64_t index = 0; index < 200; ++index) {
    SCOPED_TRACE("case " + std::to_string(index));
    ShuffledCase c = MakeShuffledCase(index);
    if (c.edges.empty()) continue;
    Edge dup = c.edges[c.rng.UniformBelow(c.edges.size())];
    if (c.rng.Bernoulli(0.5)) std::swap(dup.u, dup.v);
    const auto at = static_cast<std::ptrdiff_t>(c.rng.UniformBelow(c.edges.size() + 1));
    c.edges.insert(c.edges.begin() + at, dup);
    GraphBuilder builder(c.sorted.NumNodes());
    for (const Edge& e : c.edges) builder.AddEdge(e.u, e.v);
    EXPECT_THROW(std::move(builder).Build(), PreconditionError);
  }
}

TEST(GraphCsrProperty, AddEdgeDedupBuildsSortedCsr) {
  for (std::uint64_t index = 0; index < 200; ++index) {
    SCOPED_TRACE("case " + std::to_string(index));
    ShuffledCase c = MakeShuffledCase(index);
    GraphBuilder builder(c.sorted.NumNodes());
    for (const Edge& e : c.edges) {
      builder.AddEdgeDedup(e.u, e.v);
      // Repeat about a third of the edges, in a random orientation.
      if (c.rng.UniformBelow(3) == 0) builder.AddEdgeDedup(e.v, e.u);
    }
    ExpectSameCsr(std::move(builder).Build(), c.sorted);
  }
}

TEST(GraphCsrProperty, ChunkedBuildMatchesAtEveryJobCount) {
  for (std::uint64_t index = 0; index < 4; ++index) {
    SCOPED_TRACE("case " + std::to_string(index));
    const ShuffledCase c = MakeChunkedCase(index);
    ASSERT_GE(c.edges.size(), std::size_t{4} << 16);
    for (const unsigned jobs : kJobCounts) {
      GraphBuilder builder(c.sorted.NumNodes());
      for (const Edge& e : c.edges) builder.AddEdge(e.u, e.v);
      ExpectSameCsr(std::move(builder).Build(jobs), c.sorted);
    }
  }
}

TEST(GraphCsrProperty, ChunkedAddEdgeDedupMatchesAtEveryJobCount) {
  for (std::uint64_t index = 0; index < 4; ++index) {
    SCOPED_TRACE("case " + std::to_string(index));
    ShuffledCase c = MakeChunkedCase(index);
    // One stream with about a third of the edges repeated, replayed into a
    // fresh builder per job count.
    std::vector<Edge> stream;
    for (const Edge& e : c.edges) {
      stream.push_back(e);
      if (c.rng.UniformBelow(3) == 0) stream.push_back({e.v, e.u});
    }
    for (const unsigned jobs : kJobCounts) {
      GraphBuilder builder(c.sorted.NumNodes());
      for (const Edge& e : stream) builder.AddEdgeDedup(e.u, e.v);
      ExpectSameCsr(std::move(builder).Build(jobs), c.sorted);
    }
  }
}

TEST(GraphCsrProperty, DuplicateAcrossChunksThrowsAtEveryJobCount) {
  for (std::uint64_t index = 0; index < 4; ++index) {
    SCOPED_TRACE("case " + std::to_string(index));
    ShuffledCase c = MakeChunkedCase(index);
    // The first edge repeats, reversed, as the last: its copies sit in the
    // first and the last chunk at every chunk count.
    c.edges.push_back({c.edges.front().v, c.edges.front().u});
    for (const unsigned jobs : kJobCounts) {
      GraphBuilder builder(c.sorted.NumNodes());
      for (const Edge& e : c.edges) builder.AddEdge(e.u, e.v);
      EXPECT_THROW(std::move(builder).Build(jobs), PreconditionError) << "jobs=" << jobs;
    }
  }
}

TEST(GraphCsrProperty, BuildInsidePoolWorkerMatches) {
  // A Build issued from a ParallelFor worker (a sweep trial's graph) runs
  // its chunks inline on that worker; the bytes must not change.
  const ShuffledCase c = MakeChunkedCase(0);
  std::vector<Graph> built(2);
  par::ParallelFor(2, built.size(), [&c, &built](std::uint64_t i, unsigned) {
    GraphBuilder builder(c.sorted.NumNodes());
    for (const Edge& e : c.edges) builder.AddEdge(e.u, e.v);
    built[i] = std::move(builder).Build(4);
  });
  for (const Graph& g : built) ExpectSameCsr(g, c.sorted);
}

}  // namespace
}  // namespace emis
