// Direction-optimizing channel resolution: push and pull must be two
// implementations of the same radio semantics. Properties checked here:
//   * push/pull reception equivalence on random graphs, transmitter sets,
//     models, and loss rates (the tentpole invariant);
//   * RunMis produces identical MIS outputs, energy and full traces under
//     kPush, kPull and kAuto, reliable and lossy, and pinned golden trace
//     hashes (also reproduced by test_flat_engine and test_sharded_run);
//   * the counter-based fading stream is pinned against golden values, so
//     an accidental reseeding or hash change fails loudly;
//   * double transmitter registration throws instead of double-delivering;
//   * ResolveDirection in isolation — forced overrides win; kAuto pulls
//     unless 4·Σdeg(tx) < Σdeg(listen) on a loss-free channel, and takes the
//     strictly cheaper side (ties to push) on a lossy one;
//   * the chan.* counters equal the physical channel work — each round's
//     chosen-side degree sum, rebuilt from a trace — for both engines at
//     every shard count, and auto's weighted cost is no more than either
//     forced mode's; the scheduler's frame arena reaches a pooled steady
//     state;
//   * the payload tie-break contract: a reception's payload is observable
//     only when exactly one transmitter survives; >= 2 survivors perceive as
//     collision/silence/beep with payload 0, in both directions;
//   * retirement lifecycle — a retired node that transmits or listens trips
//     an invariant, finishing implies retirement, and a retired node may
//     still sleep and finish;
//   * parallel sweeps stay bit-identical across job counts.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/contracts.hpp"
#include "core/runner.hpp"
#include "obs/metrics.hpp"
#include "radio/channel.hpp"
#include "radio/graph_generators.hpp"
#include "radio/scheduler.hpp"
#include "radio/trace.hpp"
#include "verify/experiment.hpp"

namespace emis {
namespace {

/// Runs one identically-seeded round on two channels, one per direction,
/// and expects every listener's view to match.
void ExpectDirectionsAgree(const Graph& g, ChannelModel model, double loss) {
  Channel push(g, model);
  Channel pull(g, model);
  if (loss > 0.0) {
    push.SetLoss(loss, 77);
    pull.SetLoss(loss, 77);
  }
  Rng rng(g.NumNodes() * 131 + static_cast<std::uint64_t>(model));
  for (int round = 0; round < 6; ++round) {
    push.BeginRound(ChannelDirection::kPush);
    pull.BeginRound(ChannelDirection::kPull);
    std::vector<bool> transmits(g.NumNodes(), false);
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (rng.Bernoulli(0.3)) {
        transmits[v] = true;
        const std::uint64_t payload = 1 + rng.UniformBelow(1000);
        push.AddTransmitter(v, payload);
        pull.AddTransmitter(v, payload);
      }
    }
    for (NodeId v = 0; v < g.NumNodes(); ++v) {
      if (transmits[v]) continue;
      EXPECT_EQ(push.ResolveListener(v), pull.ResolveListener(v))
          << "model " << ToString(model) << " loss " << loss << " node " << v;
      EXPECT_EQ(push.TransmittingNeighbors(v), pull.TransmittingNeighbors(v));
    }
  }
}

TEST(ChannelDirection, PushAndPullAgreeOnRandomRounds) {
  Rng rng(4242);
  for (int trial = 0; trial < 20; ++trial) {
    const NodeId n = 6 + static_cast<NodeId>(rng.UniformBelow(50));
    const Graph g = gen::ErdosRenyi(n, 0.15, rng);
    for (ChannelModel model :
         {ChannelModel::kCd, ChannelModel::kNoCd, ChannelModel::kBeeping}) {
      ExpectDirectionsAgree(g, model, /*loss=*/0.0);
      ExpectDirectionsAgree(g, model, /*loss=*/0.3);
    }
  }
}

TEST(ChannelDirection, PullBasicSemantics) {
  // The pull path alone reproduces the push-path unit behaviours.
  const Graph star = gen::Star(5);
  Channel ch(star, ChannelModel::kCd);
  ch.BeginRound(ChannelDirection::kPull);
  EXPECT_EQ(ch.ResolveListener(0).kind, ReceptionKind::kSilence);

  ch.BeginRound(ChannelDirection::kPull);
  ch.AddTransmitter(1, 0xABC);
  Reception r = ch.ResolveListener(0);
  EXPECT_EQ(r.kind, ReceptionKind::kMessage);
  EXPECT_EQ(r.payload, 0xABCu);
  EXPECT_EQ(ch.ResolveListener(2).kind, ReceptionKind::kSilence);

  ch.BeginRound(ChannelDirection::kPull);
  ch.AddTransmitter(1, 1);
  ch.AddTransmitter(2, 2);
  EXPECT_EQ(ch.ResolveListener(0).kind, ReceptionKind::kCollision);
  EXPECT_EQ(ch.TransmittingNeighbors(0), 2u);

  // Directions may alternate round to round; epochs keep them clean.
  ch.BeginRound(ChannelDirection::kPush);
  ch.AddTransmitter(3, 9);
  EXPECT_EQ(ch.ResolveListener(0).payload, 9u);
  ch.BeginRound(ChannelDirection::kPull);
  EXPECT_EQ(ch.ResolveListener(0).kind, ReceptionKind::kSilence);
}

TEST(ChannelDirection, DoubleRegistrationThrows) {
  // Pin abort mode: the env (e.g. CI's EMIS_CONTRACTS=audit) must not turn
  // the expected throw into a logged continuation.
  contracts::SetMode(ContractMode::kAbort);
  const Graph star = gen::Star(4);
  for (ChannelDirection dir :
       {ChannelDirection::kPush, ChannelDirection::kPull}) {
    Channel ch(star, ChannelModel::kCd);
    ch.BeginRound(dir);
    ch.AddTransmitter(1, 1);
    EXPECT_THROW(ch.AddTransmitter(1, 1), InvariantError);
    // The next round accepts the node again.
    ch.BeginRound(dir);
    EXPECT_NO_THROW(ch.AddTransmitter(1, 1));
  }
}

// --- counter-based fading ---------------------------------------------------

TEST(CounterHashGolden, PinnedValues) {
  // Golden values pin the hash stream: any change to CounterHash/MixU64 or
  // to how the channel keys erasure draws is a determinism break for stored
  // seeds, and must show up here as a deliberate diff.
  EXPECT_EQ(CounterHash(0x5eedULL, 0, 0, 0), 0xb5148eca4cc6b0d0ULL);
  EXPECT_EQ(CounterHash(0x5eedULL, 1, 2, 3), 0x02892dcdfdcd4648ULL);
  EXPECT_EQ(CounterHash(0x5eedULL, 1, 3, 2), 0x4296e44dc0753b27ULL);
  EXPECT_EQ(CounterHash(42, 7, 11, 13), 0x0076d3e3c6234030ULL);
  EXPECT_DOUBLE_EQ(CounterHashUnit(0x5eedULL, 5, 8, 21), 0.73663826418136202);
}

TEST(CounterHashGolden, LinkErasedPattern) {
  // The channel's per-(round, tx, rx) erasure pattern for seed 9, loss 0.3.
  // Erasure is per *directed* link: (2 -> 5) and (5 -> 2) are independent.
  const std::vector<int> fwd = {0, 1, 1, 0, 0, 0, 0, 0};  // 2 -> 5
  const std::vector<int> rev = {0, 1, 1, 1, 1, 0, 0, 1};  // 5 -> 2
  for (std::uint64_t r = 1; r <= 8; ++r) {
    EXPECT_EQ(Channel::LinkErased(r, 2, 5, 9, 0.3), fwd[r - 1] != 0) << r;
    EXPECT_EQ(Channel::LinkErased(r, 5, 2, 9, 0.3), rev[r - 1] != 0) << r;
  }
  // Pure function: re-evaluation cannot perturb any stream.
  EXPECT_EQ(Channel::LinkErased(3, 2, 5, 9, 0.3),
            Channel::LinkErased(3, 2, 5, 9, 0.3));
}

// --- ResolveDirection (the cost model in isolation) -------------------------

TEST(ResolveDirection, ForcedOverridesWinUnconditionally) {
  for (const bool lossy : {false, true}) {
    EXPECT_EQ(ResolveDirection(ChannelResolution::kPush, 1000, 1, lossy),
              ChannelDirection::kPush);
    EXPECT_EQ(ResolveDirection(ChannelResolution::kPull, 1, 1000, lossy),
              ChannelDirection::kPull);
  }
}

TEST(ResolveDirection, AutoTakesCheaperSideTiesToPush) {
  // Loss-free: a pull edge costs a quarter of a push edge, so push needs
  // 4·Σdeg(tx) strictly below Σdeg(listen); ties go to pull.
  EXPECT_EQ(ResolveDirection(ChannelResolution::kAuto, 10, 3, false),
            ChannelDirection::kPull);
  EXPECT_EQ(ResolveDirection(ChannelResolution::kAuto, 3, 10, false),
            ChannelDirection::kPull);
  EXPECT_EQ(ResolveDirection(ChannelResolution::kAuto, 3, 12, false),
            ChannelDirection::kPull);
  EXPECT_EQ(ResolveDirection(ChannelResolution::kAuto, 3, 13, false),
            ChannelDirection::kPush);
  EXPECT_EQ(ResolveDirection(ChannelResolution::kAuto, 0, 0, false),
            ChannelDirection::kPull);
  EXPECT_EQ(ResolveDirection(ChannelResolution::kAuto, 0, 1, false),
            ChannelDirection::kPush);
  // Lossy: both sides scan scalar, so the cheaper side wins unweighted,
  // ties to push.
  EXPECT_EQ(ResolveDirection(ChannelResolution::kAuto, 10, 3, true),
            ChannelDirection::kPull);
  EXPECT_EQ(ResolveDirection(ChannelResolution::kAuto, 3, 10, true),
            ChannelDirection::kPush);
  EXPECT_EQ(ResolveDirection(ChannelResolution::kAuto, 7, 7, true),
            ChannelDirection::kPush);
  EXPECT_EQ(ResolveDirection(ChannelResolution::kAuto, 0, 0, true),
            ChannelDirection::kPush);
}

// --- end-to-end equivalence across resolution modes -------------------------

/// FNV-1a over every traced action and reception — any divergence in who
/// acted, what was heard, or which payload was decoded changes the hash.
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
  std::uint64_t node_rounds = 0;
  std::uint64_t total_awake = 0;
  std::uint64_t max_awake = 0;
  std::uint64_t trace_hash = 0;

  friend bool operator==(const RunFingerprint&, const RunFingerprint&) = default;
};

RunFingerprint Fingerprint(const Graph& g, MisAlgorithm algorithm,
                           ChannelResolution resolution, double loss) {
  HashTrace trace;
  MisRunConfig cfg;
  cfg.algorithm = algorithm;
  cfg.seed = 7;
  cfg.trace = &trace;
  cfg.link_loss = loss;
  cfg.resolution = resolution;
  const MisRunResult r = RunMis(g, cfg);
  EXPECT_TRUE(r.Valid() || loss > 0.0);
  return {r.status, r.stats.rounds_used, r.stats.node_rounds,
          r.energy.TotalAwake(), r.energy.MaxAwake(), trace.Value()};
}

TEST(ResolutionEquivalence, IdenticalRunsAcrossModes) {
  Rng rng(17);
  const Graph g = gen::ErdosRenyi(96, 0.08, rng);
  for (MisAlgorithm alg :
       {MisAlgorithm::kCd, MisAlgorithm::kCdBeeping, MisAlgorithm::kNoCd}) {
    for (double loss : {0.0, 0.3}) {
      // Identical receptions => identical protocol behaviour: same MIS, same
      // rounds, same per-node energy, same full trace. Unhardened
      // algorithms may emit a broken MIS under heavy fading (see
      // test_lossy_channel for the hardened variants) — but they must break
      // *identically* in every resolution mode; Fingerprint checks validity
      // only on the reliable channel.
      const RunFingerprint push =
          Fingerprint(g, alg, ChannelResolution::kPush, loss);
      EXPECT_EQ(Fingerprint(g, alg, ChannelResolution::kPull, loss), push)
          << ToString(alg) << " loss " << loss;
      EXPECT_EQ(Fingerprint(g, alg, ChannelResolution::kAuto, loss), push)
          << ToString(alg) << " loss " << loss;
    }
  }
}

TEST(ResolutionEquivalence, GoldenTraceHashes) {
  // Pinned fingerprints: a change to retirement timing, scan order or the
  // loss stream shows up here as a golden mismatch even if the resolution
  // modes still agree with each other.
  Rng rng(424242);
  const Graph g = gen::RandomGeometric(64, 0.22, rng);
  const RunFingerprint cd =
      Fingerprint(g, MisAlgorithm::kCd, ChannelResolution::kAuto, 0.0);
  const RunFingerprint cd_lossy =
      Fingerprint(g, MisAlgorithm::kCd, ChannelResolution::kAuto, 0.3);
  const RunFingerprint nocd =
      Fingerprint(g, MisAlgorithm::kNoCd, ChannelResolution::kAuto, 0.0);
  EXPECT_EQ(cd.trace_hash, 0xB54A7384D88D1E30ULL);
  EXPECT_EQ(cd_lossy.trace_hash, 0x0FA217956D3014ABULL);
  EXPECT_EQ(nocd.trace_hash, 0xE8D014E39E2297D4ULL);
}

// --- scheduler integration --------------------------------------------------

/// Star-shaped round: the hub transmits, every leaf listens. Pull scans only
/// the leaves' degree-1 rows; push scans the hub's (n-1)-row. kAuto must
/// pick push here only when listeners outweigh the hub... i.e. it picks by
/// the sums, which this test pins via the counters.
TEST(SchedulerResolution, CountersTrackForcedDirections) {
  Rng rng(5);
  const Graph g = gen::ErdosRenyi(64, 0.1, rng);
  for (ChannelResolution res :
       {ChannelResolution::kPush, ChannelResolution::kPull}) {
    obs::MetricsRegistry metrics;
    const MisRunResult r = RunMis(
        g, {.algorithm = MisAlgorithm::kCd, .seed = 8, .resolution = res,
            .metrics = &metrics});
    ASSERT_TRUE(r.Valid());
    const std::uint64_t push_rounds =
        metrics.GetCounter("chan.push_rounds").Value();
    const std::uint64_t pull_rounds =
        metrics.GetCounter("chan.pull_rounds").Value();
    const std::uint64_t executed =
        metrics.GetCounter("sched.rounds_executed").Value();
    EXPECT_GT(executed, 0u);
    if (res == ChannelResolution::kPush) {
      EXPECT_EQ(push_rounds, executed);
      EXPECT_EQ(pull_rounds, 0u);
    } else {
      EXPECT_EQ(pull_rounds, executed);
      EXPECT_EQ(push_rounds, 0u);
    }
    EXPECT_GT(metrics.GetCounter("chan.edges_scanned").Value(), 0u);
  }
}

/// Rebuilds each executed round's transmit- and listen-side static degree
/// sums from the trace (every executed round has at least one event).
class DegreeSumTrace final : public TraceSink {
 public:
  struct Sums {
    Round round = 0;
    std::uint64_t tx = 0;
    std::uint64_t listen = 0;
  };
  explicit DegreeSumTrace(const Graph& g) : graph_(&g) {}
  void OnEvent(const TraceEvent& e) override {
    if (rounds.empty() || rounds.back().round != e.round) rounds.push_back({e.round});
    (e.action == ActionKind::kTransmit ? rounds.back().tx : rounds.back().listen) +=
        graph_->Degree(e.node);
  }
  std::vector<Sums> rounds;

 private:
  const Graph* graph_;
};

/// The side the channel physically resolves an auto round on, restated
/// from the per-edge costs: a loss-free pull edge is a word-kernel probe at
/// about a quarter of a push delivery; lossy scans are scalar on both sides.
bool PhysicallyPushes(const DegreeSumTrace::Sums& r, bool lossy) {
  return lossy ? r.tx <= r.listen : 4 * r.tx < r.listen;
}

struct ChanCounters {
  std::uint64_t edges = 0;
  std::uint64_t push_rounds = 0;
  std::uint64_t pull_rounds = 0;
  std::uint64_t executed = 0;
  std::vector<DegreeSumTrace::Sums> rounds;
};

ChanCounters RunCounted(const Graph& g, MisRunConfig cfg) {
  obs::MetricsRegistry metrics;
  DegreeSumTrace trace(g);
  cfg.metrics = &metrics;
  cfg.trace = &trace;
  const MisRunResult r = RunMis(g, cfg);
  EXPECT_TRUE(r.Valid() || cfg.link_loss > 0.0);
  return {metrics.GetCounter("chan.edges_scanned").Value(),
          metrics.GetCounter("chan.push_rounds").Value(),
          metrics.GetCounter("chan.pull_rounds").Value(),
          metrics.GetCounter("sched.rounds_executed").Value(),
          std::move(trace.rounds)};
}

TEST(SchedulerResolution, CountersEqualPhysicalWork) {
  // Both engines, every shard count, reliable and lossy: chan.edges_scanned
  // is the sum over rounds of the physically chosen side's degree sum, and
  // every executed round is counted once as push or pull. The ER graph is
  // large enough (2048 >= the scheduler's pool threshold of 1024 actors)
  // for the sharded passes to run on the pool; the no-CD star has rounds
  // where a few leaves transmit to the listening hub, which resolve push —
  // in sharded runs through the serial push delivery.
  struct Case {
    const char* name;
    Graph graph;
    MisAlgorithm algorithm;
  };
  Rng rng(31);
  const Case cases[] = {
      {"star nocd", gen::Star(256), MisAlgorithm::kNoCd},
      {"er cd", gen::ErdosRenyi(2048, 16.0 / 2048.0, rng), MisAlgorithm::kCd},
  };
  struct Cell {
    ExecutionEngine engine;
    unsigned shards;
  };
  const Cell cells[] = {{ExecutionEngine::kCoroutine, 1},
                        {ExecutionEngine::kFlat, 1},
                        {ExecutionEngine::kFlat, 2},
                        {ExecutionEngine::kFlat, 4}};
  for (const Case& c : cases) {
    for (const Cell& cell : cells) {
      for (const double loss : {0.0, 0.1}) {
        const ChanCounters run = RunCounted(
            c.graph, {.algorithm = c.algorithm, .seed = 3, .engine = cell.engine,
                      .shards = cell.shards, .link_loss = loss});
        std::uint64_t edges = 0;
        std::uint64_t pushes = 0;
        for (const DegreeSumTrace::Sums& r : run.rounds) {
          const bool push = PhysicallyPushes(r, loss > 0.0);
          edges += push ? r.tx : r.listen;
          pushes += push ? 1 : 0;
        }
        const std::string where = std::string(c.name) + " " +
                                  std::string(ToString(cell.engine)) + " x" +
                                  std::to_string(cell.shards) + " loss " +
                                  std::to_string(loss);
        EXPECT_EQ(run.edges, edges) << where;
        EXPECT_EQ(run.push_rounds, pushes) << where;
        EXPECT_EQ(run.push_rounds + run.pull_rounds, run.executed) << where;
        EXPECT_EQ(run.rounds.size(), run.executed) << where;
        if (c.algorithm == MisAlgorithm::kNoCd && cell.shards > 1) {
          EXPECT_GT(run.push_rounds, 0u) << where;
        }
      }
    }
  }
}

TEST(SchedulerResolution, AutoCostsNoMoreThanEitherForcedMode) {
  // Weighted by the rule's per-edge costs (a loss-free push edge costs 4, a
  // pull edge 1), auto pays min(4·Σdeg(tx), Σdeg(listen)) per round, so its
  // run total is <= either forced mode's. Receptions are identical in all
  // three modes, so the per-round sums are too.
  Rng rng(23);
  const Graph g = gen::ErdosRenyi(128, 0.1, rng);
  auto counted = [&](ChannelResolution res) {
    return RunCounted(g, {.algorithm = MisAlgorithm::kCd, .seed = 4,
                          .resolution = res});
  };
  const ChanCounters push = counted(ChannelResolution::kPush);
  const ChanCounters pull = counted(ChannelResolution::kPull);
  const ChanCounters automatic = counted(ChannelResolution::kAuto);
  std::uint64_t auto_cost = 0;
  std::uint64_t auto_edges = 0;
  for (const DegreeSumTrace::Sums& r : automatic.rounds) {
    const bool pushes = PhysicallyPushes(r, false);
    auto_cost += pushes ? 4 * r.tx : r.listen;
    auto_edges += pushes ? r.tx : r.listen;
  }
  EXPECT_EQ(automatic.edges, auto_edges);
  EXPECT_GT(automatic.push_rounds, 0u);
  EXPECT_GT(automatic.pull_rounds, 0u);
  EXPECT_LE(auto_cost, 4 * push.edges);
  EXPECT_LE(auto_cost, pull.edges);
}

TEST(SchedulerResolution, AutoPullsWhenListenersAreCheap) {
  // Star, hub transmits once, one leaf listens: Σdeg(listen) = 1 beats
  // Σdeg(tx) = n - 1, so the auto round must resolve pull-side. The cost
  // model sums static CSR degrees, so the 62 idle leaves retiring at spawn
  // does not change the choice.
  const Graph g = gen::Star(64);
  obs::MetricsRegistry metrics;
  Scheduler sched(g, {.metrics = &metrics}, /*seed=*/1);
  sched.Spawn([](NodeApi api) -> proc::Task<void> {
    if (api.Id() == 0) co_await api.Transmit(1);
    if (api.Id() == 1) {
      const Reception r = co_await api.Listen();
      EMIS_ASSERT(r.kind == ReceptionKind::kMessage, "leaf must hear the hub");
    }
    co_return;
  });
  sched.Run();
  EXPECT_EQ(metrics.GetCounter("chan.pull_rounds").Value(), 1u);
  EXPECT_EQ(metrics.GetCounter("chan.push_rounds").Value(), 0u);
  EXPECT_EQ(metrics.GetCounter("chan.edges_scanned").Value(), 1u);
}

TEST(FrameArena, PoolsSubProtocolFrames) {
  // A protocol that repeatedly awaits a sub-protocol must reach a pooled
  // steady state: allocations beyond the first wave are served by reuse,
  // and the arena footprint stays bounded.
  const Graph g = gen::Star(8);
  Scheduler sched(g, {}, /*seed=*/2);
  sched.Spawn([](NodeApi api) -> proc::Task<void> {
    auto sub = [](NodeApi inner) -> proc::Task<void> {
      co_await inner.SleepFor(1);
    };
    for (int i = 0; i < 50; ++i) co_await sub(api);
  });
  sched.Run();
  const FrameArena::Stats& stats = sched.ArenaStats();
  // 8 roots + 8 * 50 sub-frames were allocated...
  EXPECT_GE(stats.frame_allocations, 8u + 8u * 50u);
  // ...but all sub-frames after the first wave came from the pool,
  EXPECT_GE(stats.pool_reuses, 8u * 49u);
  // so the bump high-water mark is ~one frame per node, not 50.
  EXPECT_LT(stats.used_bytes, 8u * 4096u);
  EXPECT_GE(stats.reserved_bytes, stats.used_bytes);
  // Only the roots are still live (held by the scheduler's tasks).
  EXPECT_EQ(stats.live_frames, 8u);
}

TEST(FrameArena, HeapFallbackOutsideScheduler) {
  // Tasks driven without a scheduler (no FrameArenaScope) must still work:
  // frames fall back to the heap and are freed there.
  auto coro = [](int x) -> proc::Task<int> { co_return x * 2; };
  auto outer = [&](int x) -> proc::Task<int> {
    const int a = co_await coro(x);
    co_return a + 1;
  };
  proc::Task<int> t = outer(20);
  t.RawHandle().resume();
  ASSERT_TRUE(t.Done());
  EXPECT_EQ(FrameArenaScope::Current(), nullptr);
}

// --- payload tie-break contract (channel.hpp "Payload tie-break") -----------

TEST(ChannelDirection, PayloadObservableOnlyForLoneTransmitter) {
  const Graph g = gen::Star(5);  // hub 0, leaves 1..4
  for (ChannelDirection dir : {ChannelDirection::kPush, ChannelDirection::kPull}) {
    for (ChannelModel model :
         {ChannelModel::kCd, ChannelModel::kNoCd, ChannelModel::kBeeping}) {
      Channel ch(g, model);
      // Two survivors: the perceived payload is 0 regardless of which
      // transmitter's payload an implementation kept internally (push keeps
      // the first delivery, pull the last scanned CSR neighbor — both
      // unobservable by contract).
      ch.BeginRound(dir);
      ch.AddTransmitter(1, 0xAAA);
      ch.AddTransmitter(3, 0xBBB);
      Reception two = ch.ResolveListener(0);
      EXPECT_EQ(two.payload, 0u);
      switch (model) {
        case ChannelModel::kCd:
          EXPECT_EQ(two.kind, ReceptionKind::kCollision);
          break;
        case ChannelModel::kNoCd:
          EXPECT_EQ(two.kind, ReceptionKind::kSilence);
          break;
        case ChannelModel::kBeeping:
          EXPECT_EQ(two.kind, ReceptionKind::kBeep);
          break;
      }
      // One survivor: the exact payload comes through (beeping stays unary).
      ch.BeginRound(dir);
      ch.AddTransmitter(3, 0xBBB);
      Reception one = ch.ResolveListener(0);
      if (model == ChannelModel::kBeeping) {
        EXPECT_EQ(one.kind, ReceptionKind::kBeep);
      } else {
        EXPECT_EQ(one.kind, ReceptionKind::kMessage);
        EXPECT_EQ(one.payload, 0xBBBu);
      }
    }
  }
}

// --- retirement lifecycle ---------------------------------------------------

proc::Task<void> RetireThenTransmit(NodeApi api) {
  api.Retire();
  co_await api.Transmit(1);
}

proc::Task<void> RetireThenSleep(NodeApi api) {
  api.Retire();
  co_await api.SleepFor(3);
}

proc::Task<void> TransmitEachRound(NodeApi api, int rounds) {
  for (int i = 0; i < rounds; ++i) co_await api.Transmit(1);
}

TEST(Retirement, RetiredNodeActingTripsInvariant) {
  const Graph g = gen::Path(2);
  Scheduler sched(g, {}, 1);
  // The retire request is consumed before the resume slice's action is
  // filed, so the transmit submitted alongside it is rejected.
  EXPECT_THROW(
      sched.Spawn([](NodeApi api) -> proc::Task<void> {
        return RetireThenTransmit(api);
      }),
      InvariantError);
}

TEST(Retirement, RetiredNodeMaySleepAndFinish) {
  const Graph g = gen::Path(2);
  Scheduler sched(g, {}, 1);
  sched.Spawn([](NodeApi api) -> proc::Task<void> {
    return RetireThenSleep(api);
  });
  sched.Run();
  EXPECT_TRUE(sched.AllFinished());
  EXPECT_EQ(sched.RetiredCount(), 2u);
}

TEST(Retirement, FinishingImpliesRetirement) {
  Rng rng(5);
  const Graph g = gen::ErdosRenyi(40, 0.15, rng);
  EXPECT_TRUE(RunMis(g, {.algorithm = MisAlgorithm::kCd, .seed = 3}).Valid());
  // RunMis tears its scheduler down, so observe via a direct run instead.
  Scheduler sched(g, {}, 3);
  sched.Spawn([](NodeApi api) -> proc::Task<void> {
    return TransmitEachRound(api, 2);
  });
  sched.Run();
  EXPECT_TRUE(sched.AllFinished());
  EXPECT_EQ(sched.RetiredCount(), g.NumNodes());
}

// --- parallel sweeps --------------------------------------------------------

void ExpectSamePoints(const std::vector<SweepPoint>& a,
                      const std::vector<SweepPoint>& b) {
  const auto same = [](const Summary& x, const Summary& y) {
    return x.count == y.count && x.mean == y.mean && x.m2 == y.m2 &&
           x.min == y.min && x.max == y.max;
  };
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].n, b[i].n);
    EXPECT_EQ(a[i].failures, b[i].failures);
    EXPECT_TRUE(same(a[i].max_energy, b[i].max_energy)) << "point " << i;
    EXPECT_TRUE(same(a[i].avg_energy, b[i].avg_energy)) << "point " << i;
    EXPECT_TRUE(same(a[i].rounds, b[i].rounds)) << "point " << i;
    EXPECT_TRUE(same(a[i].mis_size, b[i].mis_size)) << "point " << i;
  }
}

TEST(ParallelSweep, DeterministicAcrossJobs) {
  SweepConfig cfg;
  cfg.algorithm = MisAlgorithm::kNoCd;
  cfg.factory = families::SparseErdosRenyi(6.0);
  cfg.sizes = {48, 96};
  cfg.seeds_per_size = 4;
  ExpectSamePoints(RunSweep(cfg), RunSweep(cfg, 4, nullptr));
}

}  // namespace
}  // namespace emis
