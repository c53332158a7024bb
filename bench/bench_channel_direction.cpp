// E19 — direction-optimizing channel resolution (engineering; no paper claim).
//
// The scheduler resolves each round on the cheaper side of the channel:
// push (transmitters scan their neighbor rows) or pull (listeners scan
// theirs), picked per round by the cost-weighted degree-sum rule. This
// bench checks the two halves of that design:
//   * equivalence — push and pull produce identical receptions, and whole
//     MIS runs are identical in every resolution mode (reliable and lossy);
//   * throughput — on dense-transmitter/sparse-listener workloads (a star
//     whose hub announces to a few awake leaves; a degree-64 G(n,p) with 16x
//     more transmitting than listening edges) auto resolution sustains
//     >= 2x the round throughput of forced push, best of 3 runs.
// Workloads keep the awake actor count small while Sigma deg(transmitter)
// is huge, so the measured gap is channel work, not coroutine resume cost.
#include <chrono>

#include "bench_common.hpp"
#include "radio/scheduler.hpp"

namespace emis {
namespace {

// --- equivalence ------------------------------------------------------------

void CheckEquivalence() {
  Rng rng(2025);
  int reception_mismatches = 0;
  for (int trial = 0; trial < 10; ++trial) {
    const NodeId n = 32 + static_cast<NodeId>(rng.UniformBelow(96));
    const Graph g = gen::ErdosRenyi(n, 0.1, rng);
    for (const double loss : {0.0, 0.3}) {
      Channel push(g, ChannelModel::kCd);
      Channel pull(g, ChannelModel::kCd);
      if (loss > 0.0) {
        push.SetLoss(loss, 11);
        pull.SetLoss(loss, 11);
      }
      for (int round = 0; round < 4; ++round) {
        push.BeginRound(ChannelDirection::kPush);
        pull.BeginRound(ChannelDirection::kPull);
        std::vector<bool> transmits(n, false);
        for (NodeId v = 0; v < n; ++v) {
          if (rng.Bernoulli(0.25)) {
            transmits[v] = true;
            push.AddTransmitter(v, v + 1);
            pull.AddTransmitter(v, v + 1);
          }
        }
        for (NodeId v = 0; v < n; ++v) {
          if (!transmits[v] && push.ResolveListener(v) != pull.ResolveListener(v)) {
            ++reception_mismatches;
          }
        }
      }
    }
  }
  bench::Verdict(reception_mismatches == 0,
                 "push and pull resolution produce identical receptions "
                 "(random graphs, reliable and lossy)");

  Rng topo(3);
  const Graph g = gen::ErdosRenyi(256, 0.05, topo);
  bool identical = true;
  for (const double loss : {0.0, 0.3}) {
    MisRunConfig base{.algorithm = MisAlgorithm::kCd, .seed = 12};
    base.link_loss = loss;
    base.resolution = ChannelResolution::kPush;
    const MisRunResult push = RunMis(g, base);
    base.resolution = ChannelResolution::kPull;
    const MisRunResult pull = RunMis(g, base);
    base.resolution = ChannelResolution::kAuto;
    const MisRunResult aut = RunMis(g, base);
    identical = identical && push.status == pull.status &&
                push.status == aut.status &&
                push.stats.rounds_used == pull.stats.rounds_used &&
                push.energy.TotalAwake() == aut.energy.TotalAwake();
  }
  bench::Verdict(identical,
                 "RunMis output is identical under push, pull and auto "
                 "(loss 0 and 0.3)");
}

// --- throughput -------------------------------------------------------------

/// Broadcast workload: `transmitters` nodes announce every round for
/// `rounds` rounds, `listeners` nodes listen along; everyone else finishes
/// immediately (asleep nodes are free, exactly like decided MIS nodes).
proc::Task<void> BroadcastActor(NodeApi api, bool transmit, bool listen,
                                Round rounds) {
  if (transmit) {
    for (Round r = 0; r < rounds; ++r) co_await api.Transmit(1);
  } else if (listen) {
    for (Round r = 0; r < rounds; ++r) co_await api.Listen();
  }
  co_return;
}

struct Workload {
  std::string name;
  Graph graph;
  std::vector<bool> transmits;
  std::vector<bool> listens;
  Round rounds = 0;
};

/// Star: the hub (degree n-1) announces; 16 leaves stay listening. Pull
/// scans 16 degree-1 rows per round where push scans the full hub row.
Workload StarWorkload() {
  Workload w;
  w.name = "star n=8192, hub announces, 16 listeners";
  w.graph = gen::Star(8192);
  w.transmits.assign(w.graph.NumNodes(), false);
  w.listens.assign(w.graph.NumNodes(), false);
  w.transmits[0] = true;
  for (NodeId v = 1; v <= 16; ++v) w.listens[v] = true;
  w.rounds = 3000;
  return w;
}

/// Dense G(n, 64/n): every 8th node transmits (~512 rows of ~64 edges);
/// 28 low-id nodes listen (~1.8k edges) — a 16x push/pull cost gap.
Workload DenseErWorkload() {
  Rng rng(6);
  Workload w;
  w.name = "G(4096, 64/n), 512 transmitters, 28 listeners";
  w.graph = gen::ErdosRenyi(4096, 64.0 / 4096.0, rng);
  w.transmits.assign(w.graph.NumNodes(), false);
  w.listens.assign(w.graph.NumNodes(), false);
  for (NodeId v = 0; v < w.graph.NumNodes(); ++v) {
    if (v % 8 == 0) w.transmits[v] = true;
    else if (v < 32) w.listens[v] = true;
  }
  w.rounds = 600;
  return w;
}

/// Wall-clock of one full scheduler run of the workload, forced to `res`.
double RunOnce(const Workload& w, ChannelResolution res) {
  Scheduler sched(w.graph, {.resolution = res}, /*seed=*/1);
  const auto start = std::chrono::steady_clock::now();
  sched.Spawn([&w](NodeApi api) {
    return BroadcastActor(api, w.transmits[api.Id()], w.listens[api.Id()],
                          w.rounds);
  });
  const RunStats stats = sched.Run();
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  EMIS_REQUIRE(stats.rounds_used == w.rounds, "workload must run all rounds");
  return elapsed.count();
}

/// Best-of-3 rounds/second (min wall-clock), the standard perf protocol.
double Throughput(const Workload& w, ChannelResolution res) {
  double best = RunOnce(w, res);
  for (int i = 0; i < 2; ++i) best = std::min(best, RunOnce(w, res));
  return static_cast<double>(w.rounds) / best;
}

void CheckThroughput() {
  Table table({"workload", "push rounds/s", "auto rounds/s", "ratio"});
  for (const Workload& w : {StarWorkload(), DenseErWorkload()}) {
    const double push = Throughput(w, ChannelResolution::kPush);
    const double aut = Throughput(w, ChannelResolution::kAuto);
    const double ratio = push > 0.0 ? aut / push : 0.0;
    table.AddRow({w.name, Fmt(push, 0), Fmt(aut, 0), Fmt(ratio, 2)});
    bench::Verdict(ratio >= 2.0,
                   "auto resolution sustains >= 2x forced-push round "
                   "throughput on " + w.name + " (measured " +
                       Fmt(ratio, 2) + "x)");
  }
  std::printf("%s", table.Render("round throughput, forced push vs auto "
                                 "(best of 3)").c_str());
}

}  // namespace
}  // namespace emis

int main() {
  using namespace emis;
  bench::Banner("E19 bench_channel_direction",
                "Engineering: direction-optimizing channel resolution — push "
                "and pull are semantically identical, and the degree-sum "
                "cost model wins >= 2x round throughput on dense-transmitter "
                "workloads.");
  CheckEquivalence();
  CheckThroughput();
  bench::Footer();
  return 0;
}
