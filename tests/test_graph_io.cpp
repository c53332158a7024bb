#include "radio/graph_io.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "radio/graph_generators.hpp"

namespace emis {
namespace {

TEST(GraphIo, RoundTrip) {
  Rng rng(1);
  const Graph g = gen::ErdosRenyi(60, 0.1, rng);
  std::stringstream ss;
  WriteEdgeList(ss, g);
  const Graph back = ReadEdgeList(ss);
  EXPECT_EQ(back.NumNodes(), g.NumNodes());
  EXPECT_EQ(back.EdgeList(), g.EdgeList());
}

TEST(GraphIo, RoundTripEmptyAndEdgeless) {
  for (NodeId n : {NodeId{0}, NodeId{5}}) {
    std::stringstream ss;
    WriteEdgeList(ss, gen::Empty(n));
    const Graph back = ReadEdgeList(ss);
    EXPECT_EQ(back.NumNodes(), n);
    EXPECT_EQ(back.NumEdges(), 0u);
  }
}

TEST(GraphIo, ReadsComments) {
  std::istringstream in("# a graph\n3 2\n0 1\n# middle comment\n1 2\n");
  const Graph g = ReadEdgeList(in);
  EXPECT_EQ(g.NumNodes(), 3u);
  EXPECT_EQ(g.NumEdges(), 2u);
  EXPECT_TRUE(g.HasEdge(1, 2));
}

TEST(GraphIo, RejectsMalformedInput) {
  {
    std::istringstream in("3");  // truncated
    EXPECT_THROW(ReadEdgeList(in), PreconditionError);
  }
  {
    std::istringstream in("3 1\n0");  // truncated edge
    EXPECT_THROW(ReadEdgeList(in), PreconditionError);
  }
  {
    std::istringstream in("3 1\n0 7\n");  // out of range
    EXPECT_THROW(ReadEdgeList(in), PreconditionError);
  }
  {
    std::istringstream in("3 1\n1 1\n");  // self loop
    EXPECT_THROW(ReadEdgeList(in), PreconditionError);
  }
  {
    std::istringstream in("3 2\n0 1\n1 0\n");  // duplicate
    EXPECT_THROW(ReadEdgeList(in), PreconditionError);
  }
  {
    std::istringstream in("x 1\n");  // not a number
    EXPECT_THROW(ReadEdgeList(in), PreconditionError);
  }
  {
    std::istringstream in("4294967295 0\n");  // n == kInvalidNode, the sentinel
    EXPECT_THROW(ReadEdgeList(in), PreconditionError);
  }
}

TEST(GraphSpec, BuildsEveryFamily) {
  Rng rng(2);
  EXPECT_EQ(GraphFromSpec("path:n=5", rng).NumEdges(), 4u);
  EXPECT_EQ(GraphFromSpec("cycle:n=5", rng).NumEdges(), 5u);
  EXPECT_EQ(GraphFromSpec("star:n=5", rng).MaxDegree(), 4u);
  EXPECT_EQ(GraphFromSpec("complete:n=5", rng).NumEdges(), 10u);
  EXPECT_EQ(GraphFromSpec("grid:rows=3,cols=4", rng).NumNodes(), 12u);
  EXPECT_EQ(GraphFromSpec("bipartite:left=2,right=3", rng).NumEdges(), 6u);
  EXPECT_EQ(GraphFromSpec("tree:n=20", rng).NumEdges(), 19u);
  EXPECT_EQ(GraphFromSpec("gnm:n=10,m=13", rng).NumEdges(), 13u);
  EXPECT_EQ(GraphFromSpec("matching:n=16", rng).NumEdges(), 4u);
  EXPECT_EQ(GraphFromSpec("cliques:count=3,size=4", rng).NumNodes(), 12u);
  EXPECT_EQ(GraphFromSpec("caterpillar:spine=3,legs=2", rng).NumNodes(), 9u);
  EXPECT_EQ(GraphFromSpec("empty:n=7", rng).NumEdges(), 0u);
  EXPECT_EQ(GraphFromSpec("ba:n=30,m=2", rng).NumNodes(), 30u);
  EXPECT_GT(GraphFromSpec("er:n=50,p=0.2", rng).NumEdges(), 0u);
  EXPECT_GT(GraphFromSpec("udg:n=50,r=0.3", rng).NumEdges(), 0u);
  EXPECT_LE(GraphFromSpec("regular:n=20,d=3", rng).MaxDegree(), 3u);
}

TEST(GraphSpec, RejectsBadSpecs) {
  Rng rng(3);
  EXPECT_THROW(GraphFromSpec("nosuch:n=5", rng), PreconditionError);
  EXPECT_THROW(GraphFromSpec("er:n=5", rng), PreconditionError);       // missing p
  EXPECT_THROW(GraphFromSpec("er:p=0.5", rng), PreconditionError);     // missing n
  EXPECT_THROW(GraphFromSpec("er:n=5,p=zebra", rng), PreconditionError);
  EXPECT_THROW(GraphFromSpec("path:n=x", rng), PreconditionError);
  EXPECT_THROW(GraphFromSpec("grid:rows=3", rng), PreconditionError);  // missing cols
  EXPECT_THROW(GraphFromSpec("er:n=5 p=1", rng), PreconditionError);   // not k=v
  // Counts that do not fit below kInvalidNode are refused, not truncated.
  for (const char* spec :
       {"er:n=4294967298,p=1", "er:n=4294967295,p=0", "path:n=18446744073709551615",
        "ba:n=10,m=4294967297", "regular:n=10,d=4294967298", "grid:rows=4294967297,cols=1",
        "grid:rows=65536,cols=65536", "cliques:count=65536,size=65536",
        "caterpillar:spine=65536,legs=65535", "bipartite:left=2147483648,right=2147483648"}) {
    EXPECT_THROW(GraphFromSpec(spec, rng), PreconditionError) << spec;
  }
  try {
    (void)GraphFromSpec("er:n=4294967298,p=1", rng);
    ADD_FAILURE() << "oversized n accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("'n'"), std::string::npos) << e.what();
  }
  try {
    (void)GraphFromSpec("grid:rows=65536,cols=65536", rng);
    ADD_FAILURE() << "oversized grid accepted";
  } catch (const PreconditionError& e) {
    EXPECT_NE(std::string(e.what()).find("rows*cols"), std::string::npos) << e.what();
  }
}

TEST(GraphSpec, DeterministicGivenRng) {
  Rng a(7), b(7);
  EXPECT_EQ(GraphFromSpec("er:n=40,p=0.2", a).EdgeList(),
            GraphFromSpec("er:n=40,p=0.2", b).EdgeList());
}

TEST(GraphSpec, HelpMentionsFamilies) {
  const std::string help = GraphSpecHelp();
  for (const char* fam : {"er:", "udg:", "tree:", "matching:"}) {
    EXPECT_NE(help.find(fam), std::string::npos) << fam;
  }
}

}  // namespace
}  // namespace emis
