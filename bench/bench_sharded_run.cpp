// E22 — intra-run sharding: one giant MIS run across all cores.
//
// The flat engine's sharded round path (DESIGN.md §13) partitions every
// round's transmit/listen passes over edge-balanced node ranges on the
// persistent pool; a serial fixed-order merge keeps every observable
// bit-identical at any shard count (pinned by tests/test_sharded_run.cpp).
// Legs:
//   * equivalence — re-assert the contract in-bench at smoke size: rounds,
//     MIS size, awake totals and chan.edges_scanned all match across shard
//     counts, so any speedup is pure parallelism, not a different schedule;
//   * mmap format — pack the bench topology into emis-csr/1, map it back,
//     and measure resident-set growth: the zero-copy loader must fault in
//     a sliver of the adjacency bytes (its O(n + m) validation reads the
//     file, not the mapping, so only O(1) mapped pages fault at load), and
//     a run on the mapped graph must match the owned-graph run;
//   * scaling curve — full RunMis(cd) at n = 2^22, average degree 256
//     (override with EMIS_BENCH_N) for shards in {1, 2, 4, 8}: the
//     EXPERIMENTS.md E22 table. With >= 8 hardware threads at the
//     calibrated size, 8 shards must sustain >= 3x the single-shard RunMis
//     throughput; on narrower machines or smoke sizes the curve is
//     informational (a 1-core host cannot speed up, only stay identical).
//     Per-shard wall times land in the JSON artifact as shard.wall_s_<k>
//     gauges so CI's BENCH_*.json series tracks the curve over time.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/runner.hpp"
#include "radio/graph_io.hpp"
#include "verify/parallel.hpp"

namespace emis {
namespace {

struct TimedRun {
  double seconds = 0.0;
  Round rounds = 0;
  std::uint64_t edges_scanned = 0;
  std::uint64_t total_awake = 0;
  std::size_t mis_size = 0;
};

TimedRun RunOnce(const Graph& g, unsigned shards, std::uint64_t seed) {
  obs::MetricsRegistry metrics;
  MisRunConfig cfg;
  cfg.algorithm = MisAlgorithm::kCd;
  cfg.seed = seed;
  cfg.engine = ExecutionEngine::kFlat;
  cfg.shards = shards;
  cfg.metrics = &metrics;
  const auto start = std::chrono::steady_clock::now();
  const MisRunResult r = RunMis(g, cfg);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EMIS_REQUIRE(r.Valid(), "bench run must produce a valid MIS");
  return {elapsed.count(), r.stats.rounds_used,
          metrics.GetCounter("chan.edges_scanned").Value(),
          r.energy.TotalAwake(), r.MisSize()};
}

NodeId BenchN() {
  NodeId n = 1u << 22;
  if (const char* env = std::getenv("EMIS_BENCH_N");
      env != nullptr && env[0] != '\0') {
    n = static_cast<NodeId>(std::strtoul(env, nullptr, 10));
  }
  return n;
}

/// Current (not peak) resident set in bytes, from /proc/self/statm. The mmap
/// leg needs a before/after delta; obs::PeakRssBytes is monotone and already
/// saturated by whatever ran earlier in the process.
std::uint64_t CurrentRssBytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t total_pages = 0;
  std::uint64_t resident_pages = 0;
  if (!(statm >> total_pages >> resident_pages)) return 0;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

// --- equivalence ------------------------------------------------------------

void CheckEquivalence() {
  Rng rng(7);
  const Graph g = gen::ErdosRenyi(4096, 64.0 / 4096.0, rng);
  const TimedRun reference = RunOnce(g, 1, 11);
  std::uint32_t mismatches = 0;
  for (const unsigned shards : {2u, 4u, 8u}) {
    const TimedRun sharded = RunOnce(g, shards, 11);
    if (sharded.rounds != reference.rounds ||
        sharded.mis_size != reference.mis_size ||
        sharded.total_awake != reference.total_awake ||
        sharded.edges_scanned != reference.edges_scanned) {
      ++mismatches;
      std::printf("  [mismatch] shards %u: rounds %llu/%llu awake %llu/%llu\n",
                  shards, static_cast<unsigned long long>(sharded.rounds),
                  static_cast<unsigned long long>(reference.rounds),
                  static_cast<unsigned long long>(sharded.total_awake),
                  static_cast<unsigned long long>(reference.total_awake));
    }
  }
  bench::Verdict(mismatches == 0,
                 "sharded rounds agree with single-shard on rounds, MIS size, "
                 "awake rounds and chan.edges_scanned (shards 2, 4, 8)");
  std::printf("\n");
}

// --- mmap binary format -----------------------------------------------------

void CheckMappedFormat() {
  // Big enough that lazily-paged adjacency is clearly distinguishable from
  // an eager read (tens of MB), small enough for any CI tmpdir.
  Rng rng(17);
  const NodeId n = std::min<NodeId>(BenchN(), 1u << 18);
  const Graph owned = gen::ErdosRenyi(n, 64.0 / static_cast<double>(n), rng);
  const std::uint64_t adjacency_bytes = owned.Adjacency().size() * sizeof(NodeId);

  const std::filesystem::path path =
      std::filesystem::temp_directory_path() / "emis_bench_sharded.csr";
  {
    std::ofstream out(path, std::ios::binary);
    EMIS_REQUIRE(out.good(), "cannot write bench .csr");
    WriteBinaryCsr(out, owned);
  }

  const std::uint64_t rss_before = CurrentRssBytes();
  const Graph mapped = MapBinaryCsr(path.string());
  // Touch only O(1) of the graph: the loader's validation plus one row.
  EMIS_REQUIRE(mapped.NumNodes() == owned.NumNodes() &&
                   mapped.NumEdges() == owned.NumEdges() &&
                   mapped.Degree(0) == owned.Degree(0),
               "mapped header must round-trip");
  const std::uint64_t rss_after = CurrentRssBytes();
  const std::uint64_t delta = rss_after > rss_before ? rss_after - rss_before : 0;

  Table table({"quantity", "bytes"});
  table.AddRow({"adjacency section", std::to_string(adjacency_bytes)});
  table.AddRow({"RSS delta at load", std::to_string(delta)});
  std::printf("%s", table.Render("emis-csr/1 mmap load, G(n=" +
                                 std::to_string(n) + ", 64/n)").c_str());
  bench::Metrics().GetGauge("csr.adjacency_bytes")
      .Set(static_cast<double>(adjacency_bytes));
  bench::Metrics().GetGauge("csr.load_rss_delta_bytes")
      .Set(static_cast<double>(delta));
  // Through the mapping, validation touches the header page and the two
  // ends of the offsets section; with transparent huge pages each touch can
  // fault up to 2 MB.
  // 8 MB of slack stays an order of magnitude under the ~67 MB adjacency.
  bench::Verdict(delta < adjacency_bytes / 4 + (8u << 20),
                 "mmap load faulted " + std::to_string(delta) +
                     " bytes, far below the " +
                     std::to_string(adjacency_bytes) + "-byte adjacency");

  const TimedRun on_owned = RunOnce(owned, 4, 5);
  const TimedRun on_mapped = RunOnce(mapped, 4, 5);
  bench::Verdict(on_owned.rounds == on_mapped.rounds &&
                     on_owned.mis_size == on_mapped.mis_size &&
                     on_owned.total_awake == on_mapped.total_awake,
                 "sharded run on the mapped graph is identical to the "
                 "owned-graph run");
  std::filesystem::remove(path);
  std::printf("\n");
}

// --- scaling curve ----------------------------------------------------------

void CheckScaling() {
  const NodeId n = BenchN();
  Rng rng(42);
  const Graph g = gen::ErdosRenyi(n, 256.0 / static_cast<double>(n), rng);

  const std::vector<unsigned> shard_counts = {1, 2, 4, 8};
  std::vector<TimedRun> runs;
  Table table({"shards", "wall s", "rounds/s", "speedup"});
  for (const unsigned shards : shard_counts) {
    const TimedRun run = RunOnce(g, shards, 1);
    runs.push_back(run);
    EMIS_REQUIRE(run.rounds == runs.front().rounds &&
                     run.total_awake == runs.front().total_awake,
                 "sharded runs must be bit-identical");
    const double speedup = runs.front().seconds / run.seconds;
    table.AddRow({std::to_string(shards), Fmt(run.seconds, 3),
                  Fmt(static_cast<double>(run.rounds) / run.seconds, 0),
                  Fmt(speedup, 2) + "x"});
    bench::Metrics().GetGauge("shard.wall_s_" + std::to_string(shards))
        .Set(run.seconds);
  }
  std::printf("%s", table.Render("E22 intra-run sharding: RunMis(cd, flat) on "
                                 "G(n=" + std::to_string(n) +
                                 ", 256/n) per shard count").c_str());
  const double speedup8 = runs.front().seconds / runs.back().seconds;
  bench::Metrics().GetGauge("shard.speedup_8x").Set(speedup8);
  bench::Metrics().GetGauge("shard.bench_n").Set(static_cast<double>(n));

  const unsigned hw = par::DefaultJobs();
  if (n >= (1u << 22) && hw >= 8) {
    bench::Verdict(speedup8 >= 3.0,
                   "8 shards sustain >= 3x single-shard RunMis throughput at "
                   "n=" + std::to_string(n) + " (measured " + Fmt(speedup8, 2) +
                       "x on " + std::to_string(hw) + " hardware threads)");
  } else {
    std::printf("  [info] 3x floor applies at n >= 2^22 with >= 8 hardware "
                "threads (n=%u, %u thread(s): measured %sx)\n",
                n, hw, Fmt(speedup8, 2).c_str());
  }
  std::printf("\n");
}

}  // namespace
}  // namespace emis

int main() {
  using namespace emis;
  bench::Banner("E22 bench_sharded_run",
                "Engineering: one flat-engine MIS run partitioned across all "
                "cores stays bit-identical at any shard count and sustains "
                ">= 3x RunMis throughput with 8 shards at n = 2^22 (degree "
                "256); the emis-csr/1 mmap loader faults in O(1) pages.");
  CheckEquivalence();
  CheckMappedFormat();
  CheckScaling();
  bench::Footer();
  return 0;
}
