// Immutable undirected communication graph in compressed-sparse-row form.
//
// Nodes are dense 0-based NodeIds. The graph is simple (no self-loops, no
// parallel edges) and symmetric; `GraphBuilder` enforces this at build time.
// Neighbor lists are sorted, enabling O(log d) adjacency queries.
#pragma once

#include <cstdint>
#include <memory>
#include <new>
#include <span>
#include <type_traits>
#include <unordered_set>
#include <utility>
#include <vector>

#include "radio/types.hpp"

namespace emis {

/// An undirected edge; normalized so that u < v once inside a Graph.
struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  friend bool operator==(const Edge&, const Edge&) = default;
};

class GraphBuilder;
class Graph;

namespace detail {

/// Allocator whose value-less construct default-initializes, so resize() on
/// trivial elements leaves the memory untouched: the built adjacency's
/// pages are first faulted in by GraphBuilder::Build's parallel scatter, not
/// by a serial zero fill the scatter overwrites anyway.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  using std::allocator<T>::allocator;
  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

}  // namespace detail

/// Result of Graph::Induced: the subgraph plus the id mapping back to the
/// parent graph. Subgraph node i corresponds to `to_original[i]`.
struct InducedSubgraph;

class Graph {
 public:
  /// The empty graph on zero nodes.
  Graph() = default;

  /// Builds a graph on `num_nodes` nodes from an edge list. Duplicate edges
  /// (in either orientation) are rejected; self-loops are rejected.
  static Graph FromEdges(NodeId num_nodes, std::span<const Edge> edges);
  static Graph FromEdges(NodeId num_nodes, std::initializer_list<Edge> edges) {
    return FromEdges(num_nodes, std::span<const Edge>(edges.begin(), edges.size()));
  }

  /// Wraps an externally-owned CSR without copying it — the zero-copy path
  /// behind graph_io::MapBinaryCsr. `owner` keeps the backing storage (an
  /// mmap) alive for the graph's lifetime; copies of the graph share it.
  /// The arrays must already satisfy the class invariants (symmetric,
  /// sorted rows, no self-loops or duplicates): the binary loader validates
  /// the header and section bounds, not the adjacency content, exactly so
  /// that loading never has to fault in the full edge array.
  static Graph FromMappedCsr(std::shared_ptr<const void> owner,
                             const std::uint64_t* offsets, NodeId num_nodes,
                             const NodeId* adjacency, std::uint64_t adj_entries,
                             std::uint32_t max_degree);

  NodeId NumNodes() const noexcept {
    return mapping_ == nullptr ? static_cast<NodeId>(offsets_.size() - 1)
                               : mapped_nodes_;
  }
  std::uint64_t NumEdges() const noexcept { return NumAdjEntries() / 2; }

  std::uint32_t Degree(NodeId v) const {
    EMIS_REQUIRE(v < NumNodes(), "node out of range");
    const std::uint64_t* offsets = OffsetArray();
    return static_cast<std::uint32_t>(offsets[v + 1] - offsets[v]);
  }

  /// Sorted neighbor list of v.
  std::span<const NodeId> Neighbors(NodeId v) const {
    EMIS_REQUIRE(v < NumNodes(), "node out of range");
    const std::uint64_t* offsets = OffsetArray();
    return {AdjArray() + offsets[v], offsets[v + 1] - offsets[v]};
  }

  /// Raw CSR views: the (NumNodes() + 1)-entry row-offset array and the
  /// directed adjacency array it indexes (each undirected edge appears
  /// twice). Consumed by the binary serializer (radio/graph_io.hpp) and the
  /// scheduler's edge-balanced shard cut.
  std::span<const std::uint64_t> RowOffsets() const noexcept {
    return {OffsetArray(), static_cast<std::size_t>(NumNodes()) + 1};
  }
  std::span<const NodeId> Adjacency() const noexcept {
    return {AdjArray(), static_cast<std::size_t>(NumAdjEntries())};
  }

  bool HasEdge(NodeId u, NodeId v) const;

  /// Maximum degree Δ over all nodes (0 for the empty/edgeless graph).
  std::uint32_t MaxDegree() const noexcept { return max_degree_; }

  /// All edges, each once, with u < v, sorted lexicographically.
  std::vector<Edge> EdgeList() const;

  /// The subgraph induced by `nodes` (need not be sorted; duplicates
  /// rejected). Node ids are remapped densely; the sorted mapping back to
  /// this graph's ids is returned alongside.
  InducedSubgraph Induced(std::span<const NodeId> nodes) const;

  /// Connected components; `component[v]` is a dense component index and the
  /// count of components is returned.
  std::uint32_t ConnectedComponents(std::vector<std::uint32_t>& component) const;
  bool IsConnected() const;

  /// The square graph G²: same nodes, an edge wherever the distance in G is
  /// 1 or 2. Used for distance-2 colorings (TDMA slot assignment where even
  /// a *listener's* neighbors must not share a slot).
  Graph Square() const;

  /// BFS distances from `source` (kUnreachable for other components).
  static constexpr std::uint32_t kUnreachable = ~std::uint32_t{0};
  std::vector<std::uint32_t> BfsDistances(NodeId source) const;

 private:
  friend class GraphBuilder;

  std::uint64_t NumAdjEntries() const noexcept {
    return mapping_ == nullptr ? adjacency_.size() : mapped_entries_;
  }
  const std::uint64_t* OffsetArray() const noexcept {
    return mapping_ == nullptr ? offsets_.data() : mapped_offsets_;
  }
  const NodeId* AdjArray() const noexcept {
    return mapping_ == nullptr ? adjacency_.data() : mapped_adjacency_;
  }

  // Owned storage (built graphs): offsets_ has NumNodes()+1 entries;
  // adjacency_ holds each edge twice.
  std::vector<std::uint64_t> offsets_{0};
  std::vector<NodeId, detail::DefaultInitAllocator<NodeId>> adjacency_;
  // Mapped storage (FromMappedCsr): the view pointers alias memory kept
  // alive by mapping_, never by this object — so defaulted copy/move stay
  // correct for both storage kinds (a copy shares the mapping).
  std::shared_ptr<const void> mapping_;
  const std::uint64_t* mapped_offsets_ = nullptr;
  const NodeId* mapped_adjacency_ = nullptr;
  NodeId mapped_nodes_ = 0;
  std::uint64_t mapped_entries_ = 0;
  std::uint32_t max_degree_ = 0;
};

struct InducedSubgraph {
  Graph graph;
  std::vector<NodeId> to_original;  // subgraph id -> original id
};

/// Incremental construction helper used by the generators.
///
/// Three edge-insertion styles with different cost profiles:
///   * AddEdge — append-only; the bulk-generator fast path. No hash-set
///     work unless AddEdgeIfAbsent has been called on this builder.
///   * AddEdgeIfAbsent — membership-checked insert (needs the answer *now*,
///     e.g. to count distinct edges). The membership set is materialized
///     lazily on first use, so pure-AddEdge builders never pay for it.
///   * AddEdgeDedup — append now; Build() drops the repeats row by row.
///     Cheapest way to insert a stream with many repeats when the caller
///     does not need per-insert feedback (e.g. Square()).
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId num_nodes) : num_nodes_(num_nodes) {}

  /// Pre-allocates the pending-edge list for `edges` insertions. Purely an
  /// allocation hint; generators with a known or expected edge count use it
  /// to avoid growth reallocations.
  void Reserve(std::uint64_t edges) { edges_.reserve(edges); }

  /// Adds the undirected edge {u, v}. Adding an existing edge or a self-loop
  /// throws PreconditionError (at AddEdge time for self-loops, at Build time
  /// for duplicates — unless AddEdgeDedup armed dedup-at-build).
  GraphBuilder& AddEdge(NodeId u, NodeId v);

  /// Adds {u, v} unless it already exists or u == v; returns whether added.
  /// First use materializes the membership set from the pending edges.
  /// Edges inserted later via AddEdgeDedup are invisible to this check.
  bool AddEdgeIfAbsent(NodeId u, NodeId v);

  /// Appends {u, v} (u != v required) without any membership check;
  /// duplicates are silently collapsed by Build(). O(1), no hashing.
  void AddEdgeDedup(NodeId u, NodeId v);

  NodeId num_nodes() const noexcept { return num_nodes_; }
  std::uint64_t num_pending_edges() const noexcept { return edges_.size(); }

  /// O(n + m) plus sorting only the rows that arrive unsorted; edges added in
  /// lexicographic (u, v) order, as the bulk generators emit them, sort none.
  ///
  /// Count -> scatter -> finish on the persistent pool (verify/parallel.hpp):
  /// J contiguous chunks of the pending list count and scatter their edges,
  /// then edge-balanced row ranges sort, dedup and take Δ. `jobs` bounds J
  /// and the ranges (0 = par::DefaultJobs()); lists under a fixed edge grain
  /// take the one-chunk cut with no dispatch, and a Build issued inside a
  /// pool worker runs its chunks inline. The CSR is byte-identical for every
  /// `jobs`, because an exclusive prefix over (row, chunk) hands each chunk
  /// exactly the slots the one-chunk scatter would fill.
  Graph Build(unsigned jobs = 0) &&;

 private:
  void MaterializeSeen();

  NodeId num_nodes_;
  std::vector<Edge> edges_;
  // Membership set for AddEdgeIfAbsent; keyed by (u << 32) | v with u < v.
  // Empty and untouched until the first AddEdgeIfAbsent call (tracking_).
  std::unordered_set<std::uint64_t> seen_;
  bool tracking_ = false;
  bool dedup_at_build_ = false;
};

}  // namespace emis
