#include "radio/graph.hpp"

#include <algorithm>

#include "core/contracts.hpp"

namespace emis {

Graph Graph::FromEdges(NodeId num_nodes, std::span<const Edge> edges) {
  GraphBuilder builder(num_nodes);
  for (const Edge& e : edges) builder.AddEdge(e.u, e.v);
  return std::move(builder).Build();
}

Graph Graph::FromMappedCsr(std::shared_ptr<const void> owner,
                           const std::uint64_t* offsets, NodeId num_nodes,
                           const NodeId* adjacency, std::uint64_t adj_entries,
                           std::uint32_t max_degree) {
  EMIS_EXPECTS(owner != nullptr, "mapped CSR needs a storage owner");
  EMIS_EXPECTS(offsets != nullptr && (adjacency != nullptr || adj_entries == 0),
               "mapped CSR arrays must not be null");
  Graph g;
  g.mapping_ = std::move(owner);
  g.mapped_offsets_ = offsets;
  g.mapped_adjacency_ = adjacency;
  g.mapped_nodes_ = num_nodes;
  g.mapped_entries_ = adj_entries;
  g.max_degree_ = max_degree;
  return g;
}

bool Graph::HasEdge(NodeId u, NodeId v) const {
  EMIS_REQUIRE(u < NumNodes() && v < NumNodes(), "node out of range");
  if (u == v) return false;
  // Search the shorter adjacency list.
  if (Degree(u) > Degree(v)) std::swap(u, v);
  const auto nbrs = Neighbors(u);
  return std::binary_search(nbrs.begin(), nbrs.end(), v);
}

std::vector<Edge> Graph::EdgeList() const {
  std::vector<Edge> edges;
  edges.reserve(NumEdges());
  for (NodeId u = 0; u < NumNodes(); ++u) {
    for (NodeId v : Neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }
  return edges;  // Lexicographic by construction: u ascending, lists sorted.
}

InducedSubgraph Graph::Induced(std::span<const NodeId> nodes) const {
  std::vector<NodeId> sorted(nodes.begin(), nodes.end());
  std::sort(sorted.begin(), sorted.end());
  EMIS_REQUIRE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
               "duplicate node in induced-subgraph selection");
  for (NodeId v : sorted) EMIS_REQUIRE(v < NumNodes(), "node out of range");

  // original id -> subgraph id (or invalid).
  std::vector<NodeId> to_sub(NumNodes(), kInvalidNode);
  for (NodeId i = 0; i < sorted.size(); ++i) to_sub[sorted[i]] = i;

  GraphBuilder builder(static_cast<NodeId>(sorted.size()));
  for (NodeId i = 0; i < sorted.size(); ++i) {
    for (NodeId w : Neighbors(sorted[i])) {
      const NodeId j = to_sub[w];
      if (j != kInvalidNode && i < j) builder.AddEdge(i, j);
    }
  }
  return {std::move(builder).Build(), std::move(sorted)};
}

std::uint32_t Graph::ConnectedComponents(std::vector<std::uint32_t>& component) const {
  component.assign(NumNodes(), ~std::uint32_t{0});
  std::uint32_t count = 0;
  std::vector<NodeId> stack;
  for (NodeId root = 0; root < NumNodes(); ++root) {
    if (component[root] != ~std::uint32_t{0}) continue;
    component[root] = count;
    stack.push_back(root);
    while (!stack.empty()) {
      const NodeId v = stack.back();
      stack.pop_back();
      for (NodeId w : Neighbors(v)) {
        if (component[w] == ~std::uint32_t{0}) {
          component[w] = count;
          stack.push_back(w);
        }
      }
    }
    ++count;
  }
  return count;
}

Graph Graph::Square() const {
  // Two-hop enumeration produces the same pair many times (once per common
  // neighbor); append them all and let Build() drop the repeats per row
  // instead of paying a hash probe per candidate.
  GraphBuilder builder(NumNodes());
  builder.Reserve(NumEdges() * 2);
  for (NodeId v = 0; v < NumNodes(); ++v) {
    for (NodeId w : Neighbors(v)) {
      if (v < w) builder.AddEdgeDedup(v, w);
      // Two-hop edges: v - w - x.
      for (NodeId x : Neighbors(w)) {
        if (v < x) builder.AddEdgeDedup(v, x);
      }
    }
  }
  return std::move(builder).Build();
}

std::vector<std::uint32_t> Graph::BfsDistances(NodeId source) const {
  EMIS_REQUIRE(source < NumNodes(), "node out of range");
  std::vector<std::uint32_t> dist(NumNodes(), kUnreachable);
  std::vector<NodeId> frontier = {source};
  dist[source] = 0;
  std::uint32_t level = 0;
  while (!frontier.empty()) {
    ++level;
    std::vector<NodeId> next;
    for (NodeId v : frontier) {
      for (NodeId w : Neighbors(v)) {
        if (dist[w] == kUnreachable) {
          dist[w] = level;
          next.push_back(w);
        }
      }
    }
    frontier.swap(next);
  }
  return dist;
}

bool Graph::IsConnected() const {
  if (NumNodes() <= 1) return true;
  std::vector<std::uint32_t> component;
  return ConnectedComponents(component) == 1;
}

GraphBuilder& GraphBuilder::AddEdge(NodeId u, NodeId v) {
  EMIS_REQUIRE(u < num_nodes_ && v < num_nodes_, "node out of range");
  EMIS_REQUIRE(u != v, "self-loops are not allowed");
  if (u > v) std::swap(u, v);
  // Keep the membership set current only once AddEdgeIfAbsent materialized
  // it; the pure-AddEdge bulk path never hashes.
  if (tracking_) seen_.insert((static_cast<std::uint64_t>(u) << 32) | v);
  edges_.push_back({u, v});
  return *this;
}

void GraphBuilder::MaterializeSeen() {
  tracking_ = true;
  seen_.reserve(edges_.size() * 2);
  for (const Edge& e : edges_) {
    seen_.insert((static_cast<std::uint64_t>(e.u) << 32) | e.v);
  }
}

bool GraphBuilder::AddEdgeIfAbsent(NodeId u, NodeId v) {
  EMIS_REQUIRE(u < num_nodes_ && v < num_nodes_, "node out of range");
  if (u == v) return false;
  if (u > v) std::swap(u, v);
  if (!tracking_) MaterializeSeen();
  const std::uint64_t key = (static_cast<std::uint64_t>(u) << 32) | v;
  if (!seen_.insert(key).second) return false;
  edges_.push_back({u, v});
  return true;
}

void GraphBuilder::AddEdgeDedup(NodeId u, NodeId v) {
  EMIS_REQUIRE(u < num_nodes_ && v < num_nodes_, "node out of range");
  EMIS_REQUIRE(u != v, "self-loops are not allowed");
  if (u > v) std::swap(u, v);
  dedup_at_build_ = true;
  edges_.push_back({u, v});
}

Graph GraphBuilder::Build() && {
  // Count -> scatter -> per-row finish. Each row is finished on its own: a
  // duplicate edge repeats inside both endpoint rows, so no cross-row order.
  Graph g;
  g.offsets_.assign(static_cast<std::size_t>(num_nodes_) + 1, 0);
  for (const Edge& e : edges_) {
    ++g.offsets_[e.u + 1];
    ++g.offsets_[e.v + 1];
  }
  for (std::size_t i = 1; i < g.offsets_.size(); ++i) g.offsets_[i] += g.offsets_[i - 1];

  // offsets_[v] is row v's cursor; afterwards it holds the row's end.
  g.adjacency_.resize(edges_.size() * 2);
  for (const Edge& e : edges_) {
    g.adjacency_[g.offsets_[e.u]++] = e.v;
    g.adjacency_[g.offsets_[e.v]++] = e.u;
  }

  // Sort unsorted rows; reject (or, after AddEdgeDedup, drop) duplicates.
  NodeId* const adj = g.adjacency_.data();
  std::uint64_t row_begin = 0;  // row v's start as scattered
  std::uint64_t out = 0;        // row v's start once closed up
  for (NodeId v = 0; v < num_nodes_; ++v) {
    NodeId* const begin = adj + row_begin;
    NodeId* end = adj + g.offsets_[v];
    row_begin = g.offsets_[v];
    if (!std::is_sorted(begin, end)) std::sort(begin, end);
    if (NodeId* const dup = std::adjacent_find(begin, end); dup != end) {
      EMIS_REQUIRE(dedup_at_build_, "duplicate edge");
      end = std::unique(dup, end);
    }
    const auto degree = static_cast<std::uint32_t>(end - begin);
    if (adj + out != begin) std::copy(begin, end, adj + out);
    g.offsets_[v] = out;
    out += degree;
    g.max_degree_ = std::max(g.max_degree_, degree);
  }
  g.offsets_[num_nodes_] = out;
  g.adjacency_.resize(out);
  g.adjacency_.shrink_to_fit();  // no-op unless duplicates were dropped
  return g;
}

}  // namespace emis
