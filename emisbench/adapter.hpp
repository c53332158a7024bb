// The benchmark's one seam onto libemis. Every library call the benchmark
// makes lives in adapter.cpp, so an API move (a config struct renamed, a
// knob folded elsewhere) touches one benchmark file. This header exposes
// only benchmark-side types.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"

namespace emisbench {

enum class Engine : std::uint8_t { kCoroutine, kFlat };

/// Every cost knob of a workload, pinned explicitly. The algorithm
/// (Algorithm 1, `cd`), the channel resolution (auto) and the parameter
/// preset (practical) are the same for every workload and are set in
/// adapter.cpp on every config the benchmark builds, so no environment
/// default can reach a run.
struct Knobs {
  Engine engine = Engine::kFlat;
  unsigned shards = 1;
  unsigned jobs = 1;
  bool compaction = true;
};

/// The simulated statistics of one trial, compared exactly by the gate.
struct RunFacts {
  std::uint32_t n = 0;
  std::uint64_t rounds = 0;       ///< RunStats::rounds_used
  std::uint64_t energy_max = 0;   ///< max awake rounds of any node
  std::uint64_t mis_size = 0;
  std::uint64_t node_rounds = 0;  ///< RunStats::node_rounds
  std::uint64_t status_hash = 0;  ///< FNV-1a over the status vector
  bool valid = false;             ///< CheckMis verdict

  friend bool operator==(const RunFacts&, const RunFacts&) = default;
  friend auto operator<=>(const RunFacts&, const RunFacts&) = default;
};

/// Per-layer numbers by metric name (registry counters, gauges, timers).
using Layers = std::map<std::string, double>;

/// One G(n, d/n) graph and the MIS runs on it.
class SingleRun {
 public:
  SingleRun(std::uint32_t n, double avg_degree, Knobs knobs, std::uint64_t seed);
  ~SingleRun();
  SingleRun(const SingleRun&) = delete;
  SingleRun& operator=(const SingleRun&) = delete;

  /// GraphFromSpec: generation plus CSR build. Replaces any held graph.
  void Generate(Tracer* tracer, int parent);
  /// Adjacency entries of the held graph (2|E|).
  std::uint64_t AdjEntries() const;
  /// RunMis on the held graph.
  RunFacts RunMis();
  /// The same run driven through the Scheduler constructor, Spawn/SpawnFlat,
  /// Run and CheckMis, each in its own span; adds the scheduler's registry
  /// counters to `layers`. Must reproduce RunMis exactly.
  RunFacts RunDecomposed(Tracer* tracer, int parent, Layers* layers);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

/// A RunSweep over families::SparseErdosRenyi(avg_degree).
struct SweepSpec {
  double avg_degree = 16;
  std::vector<std::uint32_t> sizes;
  std::uint32_t seeds_per_size = 1;
  std::uint64_t seed_base = 1;
  Knobs knobs;
};

/// One emis::Summary, field for field.
struct SummaryFacts {
  std::uint64_t count = 0;
  double mean = 0, m2 = 0, min = 0, max = 0;

  friend bool operator==(const SummaryFacts&, const SummaryFacts&) = default;
};

/// The gated aggregates of one SweepPoint, compared exactly.
struct PointFacts {
  std::uint32_t n = 0;
  std::uint32_t runs = 0;
  std::uint32_t failures = 0;
  SummaryFacts max_energy;
  SummaryFacts rounds;
  SummaryFacts mis_size;

  friend bool operator==(const PointFacts&, const PointFacts&) = default;
};

/// Folds per-trial facts, given in RunSweep's (size, seed) order, into
/// points exactly as RunSweep reduces its trials.
std::vector<PointFacts> AggregatePoints(const std::vector<RunFacts>& trials,
                                        const std::vector<std::uint32_t>& sizes,
                                        std::uint32_t seeds_per_size);

struct SweepOutcome {
  std::vector<PointFacts> points;      ///< RunSweep's points, in size order
  double wall_s = 0;                   ///< the RunSweep call
  double factory_s = 0;                ///< Σ time inside GraphFactory calls
  double busy_s = 0;                   ///< Σ SweepRunInfo::point_wall_seconds
  std::vector<double> size_s;          ///< point_wall_seconds per size
  unsigned jobs = 1;
  std::uint64_t barrier_waits = 0;     ///< pool barrier waits during the call
  /// With `replay`: every trial re-run serially through the decomposed path,
  /// in RunSweep's (size, seed) order.
  std::vector<RunFacts> replay;
  std::uint64_t replay_adj_entries = 0;
};

/// One RunSweep call. The call keeps no per-trial results: RunSweep reduces
/// them to its points as a plain sweep does. With `replay`, a tweak hook
/// records each trial's inputs, and after the call every trial is re-run
/// serially through GraphFactory and the decomposed scheduler path, one
/// trial in memory at a time, under a "replay" span, with its registry
/// counters added to `layers`. With a tracer, factory calls get spans under
/// a "sweep.run" span.
SweepOutcome RunSweepPass(const SweepSpec& spec, bool replay, Tracer* tracer,
                          int parent, Layers* layers);

/// Process peak resident set (VmHWM) in bytes.
std::uint64_t PeakRssBytes();

}  // namespace emisbench
