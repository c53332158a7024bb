#include "radio/graph.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <new>

#include "core/contracts.hpp"
#include "radio/hugepages.hpp"
#include "verify/parallel.hpp"

namespace emis {
namespace {

/// Pending edges per chunk (and per finish range) below which Build stays on
/// the one-chunk cut: a pool dispatch costs tens of microseconds, building
/// 64 Ki edges about a millisecond.
constexpr std::uint64_t kBuildGrain = std::uint64_t{1} << 16;

/// Zero-filled 64-bit scratch words. Large blocks are mapped straight from
/// the kernel and unmapped on destruction, not taken from the malloc heap:
/// freeing a heap block that size moves glibc's dynamic mmap threshold and
/// leaves later per-run arrays in a heap it no longer trims, which measured
/// +13 MiB of peak RSS over repeated build-then-run trials at n = 2^16.
/// Blocks under glibc's initial 128 KiB threshold (every small sweep graph)
/// stay on the heap, where they never move it and cost no system call.
class ScratchWords {
 public:
  explicit ScratchWords(std::size_t count) {
    if (count * sizeof(std::uint64_t) < kMapBytes) {
      heap_.resize(count);
      words_ = heap_.data();
      return;
    }
    void* const p = ::mmap(nullptr, count * sizeof(std::uint64_t), PROT_READ | PROT_WRITE,
                           MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    words_ = static_cast<std::uint64_t*>(p);
    mapped_bytes_ = count * sizeof(std::uint64_t);
  }
  ~ScratchWords() {
    if (mapped_bytes_ != 0) ::munmap(words_, mapped_bytes_);
  }
  ScratchWords(const ScratchWords&) = delete;
  ScratchWords& operator=(const ScratchWords&) = delete;

  std::uint64_t* data() const noexcept { return words_; }

 private:
  static constexpr std::size_t kMapBytes = std::size_t{128} << 10;

  std::vector<std::uint64_t> heap_;
  std::uint64_t* words_ = nullptr;
  std::size_t mapped_bytes_ = 0;
};

}  // namespace

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

Graph GraphBuilder::Build(unsigned jobs) && {
  if (jobs == 0) jobs = par::DefaultJobs();
  const std::size_t n = num_nodes_;
  const std::uint64_t m = edges_.size();
  // J contiguous chunks of the pending list: one per job, but never a chunk
  // under the grain and never more cursor rows (J x n x 8 B) than 1/8 of the
  // pending list (m x 8 B). The finish cuts up to four row ranges per job.
  const std::uint64_t chunks = std::clamp<std::uint64_t>(
      std::min(m / kBuildGrain, m / (8 * (n + 1))), 1, jobs);
  const std::uint64_t ranges =
      std::clamp<std::uint64_t>(m / kBuildGrain, 1, std::uint64_t{4} * jobs);
  const auto chunk_edges = [this, m, chunks](std::uint64_t j) {
    const std::uint64_t begin = m * j / chunks;
    return std::span<const Edge>(edges_).subspan(begin, m * (j + 1) / chunks - begin);
  };

  Graph g;
  g.offsets_.resize(n + 1);
  // Count: chunk j tallies its rows into cursor row j (chunk-major).
  const ScratchWords cursors(chunks * n);
  par::ParallelFor(jobs, chunks, [&](std::uint64_t j, unsigned) {
    std::uint64_t* const count = cursors.data() + j * n;
    for (const Edge& e : chunk_edges(j)) {
      ++count[e.u];
      ++count[e.v];
    }
  });

  // Prefix over (row, chunk): chunk j's cursor in row v starts after every
  // earlier chunk's entries there, exactly where the one-chunk scatter
  // reaches that chunk's first edge in the row.
  std::uint64_t next = 0;
  for (std::size_t v = 0; v < n; ++v) {
    g.offsets_[v] = next;
    for (std::uint64_t j = 0; j < chunks; ++j) {
      std::uint64_t& cursor = cursors.data()[j * n + v];
      const std::uint64_t count = cursor;
      cursor = next;
      next += count;
    }
  }
  g.offsets_[n] = next;

  // Scatter: each chunk fills only the slots the prefix handed it, so the
  // adjacency bytes are the one-chunk scatter's for any J. The resize does
  // not zero-fill (DefaultInitAllocator): the scatter writes every slot, and
  // its random writes are the first touch, so they fault huge pages.
  ReserveHuge(g.adjacency_, m * 2);
  NodeId* const build_adjacency = g.adjacency_.data();
  par::ParallelFor(jobs, chunks, [&](std::uint64_t j, unsigned) {
    std::uint64_t* const cursor = cursors.data() + j * n;
    for (const Edge& e : chunk_edges(j)) {
      build_adjacency[cursor[e.u]++] = e.v;
      build_adjacency[cursor[e.v]++] = e.u;
    }
  });

  // Finish over edge-balanced row ranges: sort unsorted rows; reject (or,
  // after AddEdgeDedup, drop) duplicates. Each row is finished on its own: a
  // duplicate edge repeats inside both endpoint rows, so no cross-row order.
  struct RangeFinish {
    std::uint32_t max_degree = 0;
    bool dropped = false;
    std::vector<std::uint32_t> kept;  // row degrees after dedup (dedup only)
  };
  std::vector<NodeId> row_cut(ranges + 1, static_cast<NodeId>(n));
  row_cut[0] = 0;
  for (std::uint64_t r = 1; r < ranges; ++r) {
    row_cut[r] = static_cast<NodeId>(
        std::lower_bound(g.offsets_.begin(), g.offsets_.end() - 1, next * r / ranges) -
        g.offsets_.begin());
  }
  std::vector<RangeFinish> finish(ranges);
  const bool dedup = dedup_at_build_;
  par::ParallelFor(jobs, ranges, [&](std::uint64_t r, unsigned) {
    RangeFinish& out = finish[r];
    for (NodeId v = row_cut[r]; v < row_cut[r + 1]; ++v) {
      NodeId* const begin = build_adjacency + g.offsets_[v];
      NodeId* end = build_adjacency + g.offsets_[v + 1];
      if (!std::is_sorted(begin, end)) std::sort(begin, end);
      if (NodeId* const dup = std::adjacent_find(begin, end); dup != end) {
        EMIS_REQUIRE(dedup, "duplicate edge");
        end = std::unique(dup, end);
        out.dropped = true;
      }
      const auto degree = static_cast<std::uint32_t>(end - begin);
      if (dedup) out.kept.push_back(degree);
      out.max_degree = std::max(out.max_degree, degree);
    }
  });

  bool dropped = false;
  for (const RangeFinish& f : finish) {
    g.max_degree_ = std::max(g.max_degree_, f.max_degree);
    dropped = dropped || f.dropped;
  }
  if (dropped) {
    // Close up the rows dedup shortened, in row order.
    std::uint64_t out = 0;
    NodeId v = 0;
    for (const RangeFinish& f : finish) {
      for (const std::uint32_t degree : f.kept) {
        NodeId* const begin = build_adjacency + g.offsets_[v];
        std::copy(begin, begin + degree, build_adjacency + out);
        g.offsets_[v++] = out;
        out += degree;
      }
    }
    g.offsets_[n] = out;
    g.adjacency_.resize(out);
    g.adjacency_.shrink_to_fit();
  }
  return g;
}

}  // namespace emis
