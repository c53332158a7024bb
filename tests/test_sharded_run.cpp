// Intra-run sharding and the emis-csr/1 binary graph format.
//
// Sharding contract (DESIGN.md §13): a flat-engine run partitioned over any
// shard count is BIT-IDENTICAL to the single-shard run — same decisions,
// same rounds, same energy totals, same full trace hash. Pinned here:
//   * fingerprint equality across shards {1, 2, 3, 8} for every MIS core
//     across loss {0, 0.1};
//   * the frozen golden trace hashes of tests/test_channel_direction.cpp
//     reproduce at 4 shards (equivalence to the frozen behavior, not merely
//     to today's single-shard build);
//   * a graph big enough to cross the scheduler's inline-below threshold
//     (kParallelMinNodes) so real pool threads execute the round passes,
//     for every core;
//   * emis-run-report/1 documents are identical across shard counts outside
//     the declared cost observables (run.shards, chan.merge_words,
//     parallel.* gauges, wall-clock timers, alloc), also with a phase
//     timeline above the inline threshold.
// Format contract: pack -> mmap round-trips the exact CSR arrays, and the
// loader rejects truncation, bad magic, bad version, foreign endianness,
// decreasing row offsets, out-of-range neighbor ids and a wrong max_degree.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "core/runner.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/report.hpp"
#include "radio/graph.hpp"
#include "radio/graph_generators.hpp"
#include "radio/graph_io.hpp"
#include "radio/scheduler.hpp"
#include "radio/trace.hpp"

namespace emis {
namespace {

// ---------------------------------------------------------------------------
// emis-csr/1 round-trip and rejection

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

void PackTo(const std::string& path, const Graph& g) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good());
  WriteBinaryCsr(out, g);
  out.flush();
  ASSERT_TRUE(out.good());
}

TEST(BinaryCsr, PackThenMapRoundTripsExactArrays) {
  Rng rng(31337);
  const Graph g = gen::ErdosRenyi(300, 0.05, rng);
  const std::string path = TempPath("roundtrip.csr");
  PackTo(path, g);

  const Graph mapped = MapBinaryCsr(path);
  ASSERT_EQ(mapped.NumNodes(), g.NumNodes());
  EXPECT_EQ(mapped.NumEdges(), g.NumEdges());
  EXPECT_EQ(mapped.MaxDegree(), g.MaxDegree());
  ASSERT_EQ(mapped.RowOffsets().size(), g.RowOffsets().size());
  for (std::size_t i = 0; i < g.RowOffsets().size(); ++i) {
    ASSERT_EQ(mapped.RowOffsets()[i], g.RowOffsets()[i]) << "offset " << i;
  }
  ASSERT_EQ(mapped.Adjacency().size(), g.Adjacency().size());
  for (std::size_t i = 0; i < g.Adjacency().size(); ++i) {
    ASSERT_EQ(mapped.Adjacency()[i], g.Adjacency()[i]) << "entry " << i;
  }
  for (NodeId v = 0; v < g.NumNodes(); ++v) {
    ASSERT_EQ(mapped.Degree(v), g.Degree(v)) << "node " << v;
  }
}

TEST(BinaryCsr, MappedGraphSurvivesCopyAndMove) {
  Rng rng(4);
  const Graph g = gen::ErdosRenyi(64, 0.1, rng);
  const std::string path = TempPath("copy.csr");
  PackTo(path, g);

  Graph mapped = MapBinaryCsr(path);
  const Graph copy = mapped;               // shares the mapping
  const Graph moved = std::move(mapped);   // steals it; views stay valid
  EXPECT_EQ(copy.NumEdges(), g.NumEdges());
  EXPECT_EQ(moved.NumEdges(), g.NumEdges());
  EXPECT_EQ(copy.Degree(0), moved.Degree(0));
}

TEST(BinaryCsr, EmptyGraphRoundTrips) {
  const Graph g = GraphBuilder(0).Build();
  const std::string path = TempPath("empty.csr");
  PackTo(path, g);
  const Graph mapped = MapBinaryCsr(path);
  EXPECT_EQ(mapped.NumNodes(), 0u);
  EXPECT_EQ(mapped.NumEdges(), 0u);
}

TEST(BinaryCsr, RejectsTruncatedFile) {
  Rng rng(5);
  const Graph g = gen::ErdosRenyi(128, 0.06, rng);
  const std::string full = TempPath("full.csr");
  PackTo(full, g);
  std::ifstream in(full, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GT(bytes.size(), 64u);

  // Cut inside the adjacency section: header parses, file_size disagrees.
  const std::string cut = TempPath("cut.csr");
  std::ofstream out(cut, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 8));
  out.close();
  EXPECT_THROW(MapBinaryCsr(cut), PreconditionError);

  // Cut inside the header: too small to even decode.
  const std::string stub = TempPath("stub.csr");
  std::ofstream out2(stub, std::ios::binary);
  out2.write(bytes.data(), 20);
  out2.close();
  EXPECT_THROW(MapBinaryCsr(stub), PreconditionError);
}

/// Copies `src` to `dst` with the sizeof(T) bytes at `at` overwritten by
/// `value` (native byte order, as the format stores it).
template <typename T>
void PatchWord(const std::string& src, const std::string& dst, std::size_t at,
               T value) {
  std::ifstream in(src, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  ASSERT_GE(bytes.size(), at + sizeof(T));
  std::memcpy(bytes.data() + at, &value, sizeof(T));
  std::ofstream out(dst, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

TEST(BinaryCsr, RejectsBadMagicVersionAndForeignEndianness) {
  Rng rng(6);
  const Graph g = gen::ErdosRenyi(64, 0.1, rng);
  const std::string good = TempPath("good.csr");
  PackTo(good, g);
  EXPECT_NO_THROW(MapBinaryCsr(good));

  const std::string bad_magic = TempPath("bad_magic.csr");
  PatchWord<char>(good, bad_magic, 0, 'X');  // magic starts at byte 0
  EXPECT_THROW(MapBinaryCsr(bad_magic), PreconditionError);

  // The endian tag (bytes 8..11) stores 0x01020304 in native order; a
  // byte-swapped tag is what this machine would read from a file written on
  // an opposite-endian host. Swapping bytes 8 and 11 produces exactly that.
  const std::string foreign = TempPath("foreign.csr");
  {
    std::ifstream in(good, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::swap(bytes[8], bytes[11]);
    std::swap(bytes[9], bytes[10]);
    std::ofstream out(foreign, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(MapBinaryCsr(foreign), PreconditionError);

  const std::string bad_version = TempPath("bad_version.csr");
  PatchWord<char>(good, bad_version, 12, 9);  // version field at bytes 12..15
  EXPECT_THROW(MapBinaryCsr(bad_version), PreconditionError);
}

TEST(BinaryCsr, RejectsDecreasingRowOffsets) {
  // A row whose end precedes its start would hand the scans a span that
  // runs backwards (or far past the adjacency section). The ends still
  // check out, so only the full offsets pass can catch it.
  Rng rng(8);
  const Graph g = gen::ErdosRenyi(256, 0.05, rng);
  const std::string good = TempPath("offsets_good.csr");
  PackTo(good, g);
  const std::string bad = TempPath("offsets_bad.csr");
  // offsets[1] sits 8 bytes into the offsets section, which starts right
  // after the 64-byte header.
  PatchWord<std::uint64_t>(good, bad, 64 + 8, g.RowOffsets()[2] + 1);
  EXPECT_THROW(MapBinaryCsr(bad), PreconditionError);
}

TEST(BinaryCsr, RejectsOutOfRangeNeighborIdAndWrongMaxDegree) {
  Rng rng(9);
  const Graph g = gen::ErdosRenyi(256, 0.05, rng);
  const std::string good = TempPath("ids_good.csr");
  PackTo(good, g);
  std::uint64_t adjacency_start = 0;
  {
    std::ifstream in(good, std::ios::binary);
    in.seekg(48);  // adjacency_start field of the header
    in.read(reinterpret_cast<char*>(&adjacency_start), sizeof(adjacency_start));
    ASSERT_TRUE(in.good());
  }
  // The first id past the range is num_nodes itself.
  const std::string bad_id = TempPath("ids_bad.csr");
  PatchWord<NodeId>(good, bad_id, adjacency_start, g.NumNodes());
  EXPECT_THROW(MapBinaryCsr(bad_id), PreconditionError);
  // The last entry, so the pass must read the whole section.
  const std::string bad_last = TempPath("ids_bad_last.csr");
  PatchWord<NodeId>(good, bad_last,
                    adjacency_start + (g.Adjacency().size() - 1) * sizeof(NodeId),
                    0x7fffffffu);
  EXPECT_THROW(MapBinaryCsr(bad_last), PreconditionError);
  // max_degree (bytes 32..35) must equal the longest row.
  const std::string bad_degree = TempPath("degree_bad.csr");
  PatchWord<std::uint32_t>(good, bad_degree, 32, g.MaxDegree() - 1);
  EXPECT_THROW(MapBinaryCsr(bad_degree), PreconditionError);
}

TEST(BinaryCsr, MappedGraphRunsIdenticallyToOwnedGraph) {
  Rng rng(11);
  const Graph owned = gen::ErdosRenyi(200, 0.05, rng);
  const std::string path = TempPath("run.csr");
  PackTo(path, owned);
  const Graph mapped = MapBinaryCsr(path);

  MisRunConfig cfg;
  cfg.algorithm = MisAlgorithm::kCd;
  cfg.seed = 3;
  cfg.engine = ExecutionEngine::kFlat;
  const MisRunResult a = RunMis(owned, cfg);
  const MisRunResult b = RunMis(mapped, cfg);
  EXPECT_TRUE(a.Valid());
  EXPECT_EQ(a.status, b.status);
  EXPECT_EQ(a.stats.rounds_used, b.stats.rounds_used);
  EXPECT_EQ(a.energy.TotalAwake(), b.energy.TotalAwake());
}

// ---------------------------------------------------------------------------
// Sharded-run bit-identity

/// FNV-1a over every traced action and reception — the pattern pinned in
/// test_channel_direction.cpp and test_flat_engine.cpp.
class HashTrace final : public TraceSink {
 public:
  void OnEvent(const TraceEvent& e) override {
    Mix(e.round);
    Mix(e.node);
    Mix(static_cast<std::uint64_t>(e.action));
    Mix(e.payload);
    Mix(static_cast<std::uint64_t>(e.reception.kind));
    Mix(e.reception.payload);
  }
  std::uint64_t Value() const noexcept { return hash_; }

 private:
  void Mix(std::uint64_t x) noexcept {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (x >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001B3ULL;
    }
  }
  std::uint64_t hash_ = 0xCBF29CE484222325ULL;
};

struct RunFingerprint {
  std::vector<MisStatus> status;
  Round rounds = 0;
  std::uint64_t total_awake = 0;
  std::uint64_t max_awake = 0;
  std::uint64_t trace_hash = 0;

  friend bool operator==(const RunFingerprint&, const RunFingerprint&) = default;
};

RunFingerprint ShardedFingerprint(const Graph& g, unsigned shards,
                                  MisAlgorithm algorithm, double loss) {
  HashTrace trace;
  MisRunConfig cfg;
  cfg.algorithm = algorithm;
  cfg.seed = 7;
  cfg.engine = ExecutionEngine::kFlat;
  cfg.shards = shards;
  cfg.trace = &trace;
  cfg.link_loss = loss;
  const MisRunResult r = RunMis(g, cfg);
  EXPECT_TRUE(r.Valid() || loss > 0.0);
  return {r.status, r.stats.rounds_used, r.energy.TotalAwake(),
          r.energy.MaxAwake(), trace.Value()};
}

constexpr MisAlgorithm kCores[] = {
    MisAlgorithm::kCd, MisAlgorithm::kCdNaive, MisAlgorithm::kNoCd,
    MisAlgorithm::kNoCdDaviesProfile, MisAlgorithm::kNoCdRoundEfficient};

TEST(ShardedRun, BitIdenticalAcrossShardCountsForEveryCore) {
  Rng rng(909);
  const Graph g = gen::ErdosRenyi(96, 0.07, rng);
  for (MisAlgorithm algorithm : kCores) {
    for (double loss : {0.0, 0.1}) {
      const RunFingerprint reference =
          ShardedFingerprint(g, 1, algorithm, loss);
      // 8 > the natural cut count for 96 nodes on small shards; also
      // exercises the clamp-to-NumNodes path indirectly.
      for (unsigned shards : {2u, 3u, 8u}) {
        EXPECT_EQ(ShardedFingerprint(g, shards, algorithm, loss), reference)
            << ToString(algorithm) << " loss " << loss << " shards " << shards;
      }
    }
  }
}

TEST(ShardedRun, ReproducesPinnedGoldenTraceHashesAtFourShards) {
  // The constants test_channel_direction.cpp froze for the coroutine
  // engine; the sharded flat path must reproduce the frozen behavior.
  Rng rng(424242);
  const Graph g = gen::RandomGeometric(64, 0.22, rng);
  EXPECT_EQ(ShardedFingerprint(g, 4, MisAlgorithm::kCd, 0.0).trace_hash,
            0xB54A7384D88D1E30ULL);
  EXPECT_EQ(ShardedFingerprint(g, 4, MisAlgorithm::kCd, 0.3).trace_hash,
            0x0FA217956D3014ABULL);
  EXPECT_EQ(ShardedFingerprint(g, 4, MisAlgorithm::kNoCd, 0.0).trace_hash,
            0xE8D014E39E2297D4ULL);
}

TEST(ShardedRun, BitIdenticalAboveTheInlineThreshold) {
  // 4096 nodes crosses Scheduler::kParallelMinNodes, so the round passes
  // genuinely dispatch onto pool threads (the small-graph tests above run
  // the shard loops inline), for every core. This is the TSan-meaningful
  // configuration.
  Rng rng(616);
  const Graph g = gen::ErdosRenyi(4096, 0.002, rng);
  for (MisAlgorithm algorithm : kCores) {
    const RunFingerprint reference = ShardedFingerprint(g, 1, algorithm, 0.0);
    for (unsigned shards : {2u, 4u}) {
      EXPECT_EQ(ShardedFingerprint(g, shards, algorithm, 0.0), reference)
          << ToString(algorithm) << " shards " << shards;
    }
  }
}

TEST(ShardedRun, ShardCountExceedingNodesIsClamped) {
  const Graph g = gen::Path(5);
  const RunFingerprint reference =
      ShardedFingerprint(g, 1, MisAlgorithm::kCd, 0.0);
  EXPECT_EQ(ShardedFingerprint(g, 64, MisAlgorithm::kCd, 0.0), reference);
}

// ---------------------------------------------------------------------------
// Reports across shard counts

/// emis-run-report/1 for a flat run at `shards`, minus the declared cost
/// observables: run.shards, the chan.merge_words / parallel.* gauges, the
/// wall-clock timers and the alloc section. What remains must be identical
/// at any shard count.
/// With `with_timeline` the run also carries a phase timeline (and the
/// report its phases block): phase annotations mutate the shared timeline
/// inside a step, so such runs step serially while the channel passes stay
/// sharded.
std::string NormalizedShardReport(const Graph& g, unsigned shards,
                                  bool with_timeline = false) {
  obs::MetricsRegistry metrics;
  obs::PhaseTimeline timeline;
  MisRunConfig cfg;
  cfg.algorithm = MisAlgorithm::kCd;
  cfg.seed = 21;
  cfg.engine = ExecutionEngine::kFlat;
  cfg.shards = shards;
  cfg.metrics = &metrics;
  if (with_timeline) cfg.timeline = &timeline;
  const MisRunResult r = RunMis(g, cfg);
  EXPECT_TRUE(r.Valid());
  obs::JsonValue doc = obs::BuildRunReport({.algorithm = "cd",
                                            .graph = "er-shard-parity",
                                            .preset = "practical",
                                            .seed = 21,
                                            .nodes = g.NumNodes(),
                                            .edges = g.NumEdges(),
                                            .max_degree = g.MaxDegree(),
                                            .shards = shards,
                                            .valid_mis = r.Valid(),
                                            .mis_size = r.MisSize(),
                                            .stats = &r.stats,
                                            .energy = &r.energy,
                                            .timeline = with_timeline ? &timeline
                                                                      : nullptr,
                                            .metrics = &metrics});
  EXPECT_EQ(obs::ValidateRunReport(doc), "");
  // The run block must record what actually executed.
  EXPECT_EQ(doc.Find("run")->Find("shards")->AsNumber(),
            static_cast<double>(shards));
  obs::JsonValue normalized = obs::JsonValue::MakeObject();
  for (const auto& [key, value] : doc.Entries()) {
    if (key == "alloc") continue;
    if (key == "run") {
      obs::JsonValue run_doc = obs::JsonValue::MakeObject();
      for (const auto& [rkey, rvalue] : value.Entries()) {
        if (rkey != "shards") run_doc.Set(rkey, rvalue);
      }
      normalized.Set("run", std::move(run_doc));
      continue;
    }
    if (key != "metrics") {
      normalized.Set(key, value);
      continue;
    }
    obs::JsonValue metrics_doc = obs::JsonValue::MakeObject();
    for (const auto& [mkey, mvalue] : value.Entries()) {
      if (mkey == "timers") continue;
      if (mkey != "gauges") {
        metrics_doc.Set(mkey, mvalue);
        continue;
      }
      obs::JsonValue gauges = obs::JsonValue::MakeObject();
      for (const auto& [gkey, gvalue] : mvalue.Entries()) {
        if (gkey.starts_with("parallel.") || gkey == "chan.merge_words") continue;
        gauges.Set(gkey, gvalue);
      }
      metrics_doc.Set("gauges", std::move(gauges));
    }
    normalized.Set("metrics", std::move(metrics_doc));
  }
  return normalized.Dump(2);
}

TEST(ShardedRun, ReportsIdenticalAcrossShardCountsOutsideCostKeys) {
  Rng rng(77);
  const Graph g = gen::ErdosRenyi(72, 0.08, rng);
  const std::string reference = NormalizedShardReport(g, 1);
  EXPECT_EQ(NormalizedShardReport(g, 2), reference);
  EXPECT_EQ(NormalizedShardReport(g, 4), reference);
}

TEST(ShardedRun, TimelineReportsIdenticalAboveTheInlineThreshold) {
  // Above kParallelMinNodes the channel passes dispatch onto the pool while
  // the timeline keeps every step serial: the phases block (with its
  // residual probes) and the rest of the report must not see the shards.
  Rng rng(616);
  const Graph g = gen::ErdosRenyi(4096, 0.002, rng);
  const std::string reference = NormalizedShardReport(g, 1, true);
  EXPECT_NE(reference.find("\"phases\""), std::string::npos);
  EXPECT_EQ(NormalizedShardReport(g, 4, true), reference);
}

TEST(ShardedRun, DefaultShardsParsesEnvironmentContract) {
  // DefaultShards() is cached per process, so this only checks the value is
  // in the documented range; the EMIS_SHARDS parsing paths are covered by
  // the CI matrix running this whole suite under EMIS_SHARDS=4.
  const unsigned shards = DefaultShards();
  EXPECT_GE(shards, 1u);
  EXPECT_LE(shards, 256u);
}

}  // namespace
}  // namespace emis
