// E11 — simulator micro-benchmarks (engineering, google-benchmark).
//
// Throughput of the substrate: graph generation, channel resolution,
// round dispatch under both execution engines, backoff execution, and
// end-to-end MIS runs. The custom main additionally writes an
// emis-bench-report/1 artifact (EMIS_BENCH_JSON) whose metrics block
// carries the measured flat-vs-coroutine RunMis speedup.
#include <benchmark/benchmark.h>

#include <chrono>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "core/backoff.hpp"
#include "core/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timeline.hpp"
#include "radio/channel.hpp"
#include "radio/graph_generators.hpp"
#include "radio/scheduler.hpp"

namespace emis {
namespace {

/// G(n, d/n) sampling plus CSR build; args are (n, average degree d). The
/// dense leg is the regime of full-size runs, where the build dominates.
void BM_GraphErdosRenyi(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const double p = static_cast<double>(state.range(1)) / n;
  Rng rng(1);
  std::int64_t edges = 0;
  for (auto _ : state) {
    Graph g = gen::ErdosRenyi(n, p, rng);
    edges += static_cast<std::int64_t>(g.NumEdges());
    benchmark::DoNotOptimize(g.NumEdges());
  }
  state.SetItemsProcessed(edges);
}
BENCHMARK(BM_GraphErdosRenyi)
    ->Args({1024, 8})
    ->Args({16384, 8})
    ->Args({65536, 256})
    ->Unit(benchmark::kMillisecond);

/// GraphBuilder::Build alone, from a pre-shuffled and randomly oriented
/// G(n, d/n) edge list: every row arrives unsorted, so this tracks the
/// per-row sort that generator-ordered input never needs.
void BM_GraphBuildShuffled(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(5);
  std::vector<Edge> edges =
      gen::ErdosRenyi(n, static_cast<double>(state.range(1)) / n, rng).EdgeList();
  for (std::size_t i = edges.size(); i > 1; --i) {
    std::swap(edges[i - 1], edges[rng.UniformBelow(i)]);
  }
  for (Edge& e : edges) {
    if (rng.Bernoulli(0.5)) std::swap(e.u, e.v);
  }
  for (auto _ : state) {
    GraphBuilder builder(n);
    builder.Reserve(edges.size());
    for (const Edge& e : edges) builder.AddEdge(e.u, e.v);
    const Graph g = std::move(builder).Build();
    benchmark::DoNotOptimize(g.MaxDegree());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(edges.size()));
}
BENCHMARK(BM_GraphBuildShuffled)
    ->Args({16384, 8})
    ->Args({65536, 256})
    ->Unit(benchmark::kMillisecond);

void BM_ChannelRound(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(2);
  const Graph g = gen::ErdosRenyi(n, 16.0 / n, rng);
  Channel ch(g, ChannelModel::kNoCd);
  std::vector<NodeId> transmitters;
  for (NodeId v = 0; v < n; v += 2) transmitters.push_back(v);
  for (auto _ : state) {
    ch.BeginRound();
    for (NodeId v : transmitters) ch.AddTransmitter(v, 1);
    std::uint64_t busy = 0;
    for (NodeId v = 1; v < n; v += 2) busy += ch.ResolveListener(v).Busy();
    benchmark::DoNotOptimize(busy);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_ChannelRound)->Arg(1024)->Arg(16384);

proc::Task<void> PingPong(NodeApi api, std::uint32_t rounds) {
  for (std::uint32_t i = 0; i < rounds; ++i) {
    if ((api.Id() + i) % 2 == 0) {
      co_await api.Transmit(1);
    } else {
      co_await api.Listen();
    }
  }
}

void BM_SchedulerNodeRounds(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(3);
  const Graph g = gen::ErdosRenyi(n, 8.0 / n, rng);
  const std::uint32_t kRounds = 64;
  for (auto _ : state) {
    Scheduler sched(g, {.model = ChannelModel::kCd}, 7);
    sched.Spawn([&](NodeApi api) { return PingPong(api, kRounds); });
    const RunStats stats = sched.Run();
    benchmark::DoNotOptimize(stats.node_rounds);
  }
  state.SetItemsProcessed(state.iterations() * n * kRounds);
}
BENCHMARK(BM_SchedulerNodeRounds)->Arg(256)->Arg(4096);

void BM_SchedulerNodeRoundsInstrumented(benchmark::State& state) {
  // Same workload with a MetricsRegistry attached: the delta against
  // BM_SchedulerNodeRounds is the observability overhead (budget: <= 5%).
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(3);
  const Graph g = gen::ErdosRenyi(n, 8.0 / n, rng);
  const std::uint32_t kRounds = 64;
  obs::MetricsRegistry metrics;
  for (auto _ : state) {
    Scheduler sched(g, {.model = ChannelModel::kCd, .metrics = &metrics}, 7);
    sched.Spawn([&](NodeApi api) { return PingPong(api, kRounds); });
    const RunStats stats = sched.Run();
    benchmark::DoNotOptimize(stats.node_rounds);
  }
  state.SetItemsProcessed(state.iterations() * n * kRounds);
}
BENCHMARK(BM_SchedulerNodeRoundsInstrumented)->Arg(256)->Arg(4096);

void BM_RoundSkipping(benchmark::State& state) {
  // A single pair exchanging one message across a huge sleep gap: measures
  // the event-driven jump, which must not scale with the gap.
  const Graph g = gen::Path(2);
  for (auto _ : state) {
    Scheduler sched(g, {.model = ChannelModel::kCd}, 9);
    sched.Spawn([](NodeApi api) -> proc::Task<void> {
      return [](NodeApi a) -> proc::Task<void> {
        co_await a.SleepFor(10'000'000);
        co_await a.Transmit(1);
      }(api);
    });
    const RunStats stats = sched.Run();
    benchmark::DoNotOptimize(stats.rounds_used);
  }
}
BENCHMARK(BM_RoundSkipping);

void BM_EBackoffPair(benchmark::State& state) {
  const Graph g = gen::Path(2);
  const std::uint32_t k = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    Scheduler sched(g, {.model = ChannelModel::kNoCd}, 11);
    sched.Spawn([&](NodeApi api) -> proc::Task<void> {
      if (api.Id() == 0) {
        return [](NodeApi a, std::uint32_t kk) -> proc::Task<void> {
          co_await SndEBackoff(a, kk, 64);
        }(api, k);
      }
      return [](NodeApi a, std::uint32_t kk) -> proc::Task<void> {
        (void)co_await RecEBackoff(a, kk, 64, 64);
      }(api, k);
    });
    sched.Run();
  }
  state.SetItemsProcessed(state.iterations() * k);
}
BENCHMARK(BM_EBackoffPair)->Arg(8)->Arg(64);

void BM_MisCdEndToEnd(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(4);
  const Graph g = gen::ErdosRenyi(n, 8.0 / n, rng);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto r = RunMis(g, {.algorithm = MisAlgorithm::kCd, .seed = ++seed});
    benchmark::DoNotOptimize(r.MisSize());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MisCdEndToEnd)->Arg(1024)->Arg(8192);

void BM_MisCdEndToEndInstrumented(benchmark::State& state) {
  // Full observability (registry + timeline + residual probes) on the same
  // end-to-end run as BM_MisCdEndToEnd.
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(4);
  const Graph g = gen::ErdosRenyi(n, 8.0 / n, rng);
  std::uint64_t seed = 0;
  obs::MetricsRegistry metrics;
  for (auto _ : state) {
    obs::PhaseTimeline timeline;
    const auto r = RunMis(g, {.algorithm = MisAlgorithm::kCd, .seed = ++seed,
                              .metrics = &metrics, .timeline = &timeline});
    benchmark::DoNotOptimize(r.MisSize());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MisCdEndToEndInstrumented)->Arg(1024)->Arg(8192);

void BM_MisCdEndToEndFlat(benchmark::State& state) {
  // BM_MisCdEndToEnd under the flat engine — the per-iteration delta is the
  // engine overhead alone (identical receptions, actions, and results).
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(4);
  const Graph g = gen::ErdosRenyi(n, 8.0 / n, rng);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto r = RunMis(g, {.algorithm = MisAlgorithm::kCd, .seed = ++seed,
                              .engine = ExecutionEngine::kFlat});
    benchmark::DoNotOptimize(r.MisSize());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MisCdEndToEndFlat)->Arg(1024)->Arg(8192);

void BM_MisNoCdEndToEnd(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(5);
  const Graph g = gen::ErdosRenyi(n, 8.0 / n, rng);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto r = RunMis(g, {.algorithm = MisAlgorithm::kNoCd, .seed = ++seed});
    benchmark::DoNotOptimize(r.MisSize());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MisNoCdEndToEnd)->Arg(256);

void BM_MisNoCdEndToEndFlat(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  Rng rng(5);
  const Graph g = gen::ErdosRenyi(n, 8.0 / n, rng);
  std::uint64_t seed = 0;
  for (auto _ : state) {
    const auto r = RunMis(g, {.algorithm = MisAlgorithm::kNoCd, .seed = ++seed,
                              .engine = ExecutionEngine::kFlat});
    benchmark::DoNotOptimize(r.MisSize());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_MisNoCdEndToEndFlat)->Arg(256);

/// Wall-clock for `reps` end-to-end kCd runs under `engine` (distinct seeds,
/// so no run is trivially warm).
double MeasureRunMisSeconds(const Graph& g, ExecutionEngine engine, int reps) {
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t seed = 100;
  for (int i = 0; i < reps; ++i) {
    const auto r = RunMis(g, {.algorithm = MisAlgorithm::kCd, .seed = ++seed,
                              .engine = engine});
    benchmark::DoNotOptimize(r.MisSize());
  }
  const std::chrono::duration<double> dt =
      std::chrono::steady_clock::now() - start;
  return dt.count();
}

/// Writes the EMIS_BENCH_JSON artifact: the flat-vs-coroutine RunMis
/// speedup as a gauge (sim.flat_speedup_x) plus a sanity verdict, so the CI
/// perf trajectory tracks the engine ratio run over run.
void EmitSpeedupArtifact() {
  bench::Banner("E11-simulator",
                "flat engine >= coroutine engine RunMis throughput");
  Rng rng(4);
  const NodeId n = 8192;
  const Graph g = gen::ErdosRenyi(n, 8.0 / n, rng);
  constexpr int kReps = 5;
  MeasureRunMisSeconds(g, ExecutionEngine::kCoroutine, 1);  // warm-up
  const double coro = MeasureRunMisSeconds(g, ExecutionEngine::kCoroutine, kReps);
  const double flat = MeasureRunMisSeconds(g, ExecutionEngine::kFlat, kReps);
  const double speedup = flat > 0.0 ? coro / flat : 0.0;
  std::printf("RunMis kCd er n=%u: coroutine %.3fs, flat %.3fs, speedup %.2fx\n",
              n, coro, flat, speedup);
  bench::Metrics().GetGauge("sim.flat_speedup_x").Set(speedup);
  bench::Metrics().GetGauge("sim.coroutine_seconds").Set(coro);
  bench::Metrics().GetGauge("sim.flat_seconds").Set(flat);
  bench::Verdict(speedup >= 1.0,
                 "flat engine at least matches coroutine RunMis throughput");
  bench::Footer();
}

}  // namespace
}  // namespace emis

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emis::EmitSpeedupArtifact();
  return 0;
}
