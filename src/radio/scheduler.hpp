// The synchronous round engine.
//
// Each node runs a coroutine protocol (see process.hpp). A round proceeds in
// two phases: every awake node's action is known before any reception is
// resolved, matching the synchronous radio model exactly. The engine is
// event-driven: rounds in which *every* node sleeps are skipped in O(1), so
// simulation cost is proportional to the total awake node-rounds — i.e. to
// the energy the paper studies — plus O(1) amortized calendar-wheel work
// per sleep (a 4096-slot ring over the near future with a compacting
// overflow list; drained buckets are sorted so the pop order matches the
// binary heap it replaced). Channel scans read the static CSR rows;
// protocols Retire() when decided, which arms the acting-after-retirement
// invariant (DESIGN.md §9).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "obs/energy_ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/phase_timeline.hpp"
#include "obs/stream_sink.hpp"
#include "radio/channel.hpp"
#include "radio/energy.hpp"
#include "radio/flat_engine.hpp"
#include "radio/frame_arena.hpp"
#include "radio/graph.hpp"
#include "radio/model.hpp"
#include "radio/process.hpp"
#include "radio/trace.hpp"

namespace emis {

/// Process-wide default intra-run shard count: 1, or the value of the
/// EMIS_SHARDS environment variable when set to a valid positive integer.
/// Read once and cached; lets a CI matrix run the whole test suite sharded
/// without touching call sites (the EMIS_ENGINE pattern).
unsigned DefaultShards() noexcept;

struct SchedulerConfig {
  ChannelModel model = ChannelModel::kCd;
  /// Hard stop: no round >= max_rounds is executed. Guards against
  /// non-terminating protocols in tests and benches.
  Round max_rounds = 100'000'000;
  /// Optional event sink; null disables tracing.
  TraceSink* trace = nullptr;
  /// Per-link per-round signal erasure probability (fading). 0 = the
  /// paper's reliable channel. See Channel::SetLoss.
  double link_loss = 0.0;
  /// How the channel resolves receptions each round. kAuto picks per round
  /// by ResolveDirection's weighted degree-sum rule; kPush/kPull force one
  /// direction (a test seam for the equivalence checks). Receptions are
  /// identical in all three modes.
  ChannelResolution resolution = ChannelResolution::kAuto;
  /// Ignored: residual compaction was removed; kept only so
  /// `emisbench/adapter.cpp` compiles until the benchmark harness drops it.
  bool compaction = true;
  /// Optional metrics registry (owned by the caller). When set, the
  /// scheduler feeds hot-path timers ("sched.execute_round", "sched.resume",
  /// "sched.wake_heap"), counters ("sched.rounds_executed",
  /// "sched.rounds_skipped", "sched.wake_events", "chan.push_rounds",
  /// "chan.pull_rounds", "chan.edges_scanned"), arena gauges ("arena.bytes_reserved", "arena.bytes_used"), and
  /// working-set gauges ("mem.context_hot_bytes", "mem.context_cold_bytes",
  /// "mem.lane_bytes" — the resume loop's per-array footprints, see
  /// DESIGN.md §12.2) — cheap enough to keep on in perf runs (see
  /// bench_simulator's *Instrumented variants).
  obs::MetricsRegistry* metrics = nullptr;
  /// Optional phase timeline (owned by the caller). The scheduler binds it
  /// to its energy meter, protocols annotate via NodeApi::Phase, and the
  /// timeline closes when the run finishes.
  obs::PhaseTimeline* timeline = nullptr;
  /// Optional energy-attribution ledger (owned by the caller; must be sized
  /// to the graph). Every transmit/listen charge is mirrored into it, keyed
  /// by the timeline's current (phase, sub-phase) context — the scheduler
  /// binds the ledger to `timeline` when both are set; without a timeline
  /// all charges land under the unattributed key. Conservation is exact by
  /// construction: Σ over keys of a node's attributed rounds equals its
  /// EnergyMeter entry.
  obs::EnergyLedger* ledger = nullptr;
  /// Which backend drives the protocols. kCoroutine runs the reference
  /// coroutine implementation via Spawn; kFlat runs a packed state-machine
  /// backend via SpawnFlat. Observationally identical (traces, energy,
  /// metrics, reports); purely a cost knob.
  ExecutionEngine engine = ExecutionEngine::kCoroutine;
  /// Optional streaming telemetry sink (owned by the caller). The scheduler
  /// emits a `round` heartbeat per executed round (cadence
  /// StreamSinkConfig::heartbeat_every) with awake/decided/finished
  /// gauges, and — when `timeline` is also set — a `phase` event
  /// per closed span carrying the span's attribution delta.
  obs::StreamSink* telemetry = nullptr;
  /// Intra-run shard count for the flat engine: the node range is cut into
  /// `shards` contiguous, edge-balanced row ranges and each round's per-node
  /// work (protocol steps, channel stamping/scanning, energy charges) runs
  /// one shard per pool worker, with every cross-node mutation serialized in
  /// global actor order between the parallel passes (DESIGN.md §13). Purely
  /// a cost knob: traces, energy, metrics, receptions, and reports are
  /// bit-identical at any shard count. The coroutine engine ignores it and
  /// always runs single-sharded (it is the reference implementation).
  unsigned shards = DefaultShards();
};

/// The per-round direction decision, factored out of the scheduler so the
/// rule is unit-testable in isolation. Both engines resolve every round in
/// the direction returned here, at any shard count, and the chan.* counters
/// record it. Forced resolutions win unconditionally. kAuto weighs each
/// side's static CSR degree sum by its per-edge cost:
///   * loss-free — the pull scan runs the word-parallel kernel at roughly a
///     quarter of push's per-edge cost (measured ~3.2 ns/edge vs ~14
///     ns/edge at bench sizes), so pull wins unless 4·Σdeg(tx) <
///     Σdeg(listen);
///   * lossy — both sides draw a per-link erasure in a scalar loop, so the
///     cheaper side wins unweighted, ties to push.
constexpr ChannelDirection ResolveDirection(ChannelResolution resolution,
                                            std::uint64_t tx_edges,
                                            std::uint64_t listen_edges,
                                            bool lossy) noexcept {
  switch (resolution) {
    case ChannelResolution::kPush:
      return ChannelDirection::kPush;
    case ChannelResolution::kPull:
      return ChannelDirection::kPull;
    case ChannelResolution::kAuto:
      break;
  }
  if (lossy) {
    return listen_edges < tx_edges ? ChannelDirection::kPull
                                   : ChannelDirection::kPush;
  }
  return tx_edges * 4 < listen_edges ? ChannelDirection::kPush
                                     : ChannelDirection::kPull;
}

struct RunStats {
  /// One past the last round in which any node was awake (== the paper's
  /// round complexity of the run when all nodes terminated).
  Round rounds_used = 0;
  /// Total awake node-rounds actually simulated.
  std::uint64_t node_rounds = 0;
  /// Nodes whose protocol coroutine ran to completion.
  NodeId nodes_finished = 0;
  /// True if the run stopped at max_rounds with live protocols remaining.
  bool hit_round_limit = false;
};

class Scheduler {
 public:
  /// The graph must outlive the scheduler. `seed` determines every node's
  /// private random stream.
  Scheduler(const Graph& graph, SchedulerConfig config, std::uint64_t seed);

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Creates and starts one protocol instance per node. Must be called
  /// exactly once, before Run/RunUntil. Requires engine == kCoroutine.
  void Spawn(const ProtocolFactory& factory);

  /// Installs the flat state-machine backend and steps every node to its
  /// first action. The flat counterpart of Spawn; must be called exactly
  /// once, before Run/RunUntil. Requires engine == kFlat.
  void SpawnFlat(std::unique_ptr<FlatProtocol> protocol);

  /// Runs until all protocols finish or max_rounds is reached.
  RunStats Run() { return RunUntil(config_.max_rounds); }

  /// Runs rounds < `limit` (and not >= max_rounds); returns a snapshot of the
  /// stats so far. Idempotent once everything finished. Used by experiments
  /// that inspect state at phase boundaries.
  RunStats RunUntil(Round limit);

  /// Permanently removes node v from the radio: it must never transmit or
  /// listen again — enforced by an invariant on action filing. Idempotent.
  /// Called automatically when a protocol coroutine finishes and on
  /// NodeApi::Retire requests; also callable directly by drivers that know a
  /// node is done. Retired nodes are the telemetry's "decided" count.
  void Retire(NodeId v);

  bool AllFinished() const noexcept { return finished_ == graph_->NumNodes(); }
  /// Nodes retired so far (decided via Retire, or finished).
  NodeId RetiredCount() const noexcept { return retired_; }
  Round Now() const noexcept { return now_; }
  const EnergyMeter& Energy() const noexcept { return energy_; }
  const Graph& Topology() const noexcept { return *graph_; }

  /// Allocation footprint of this scheduler's coroutine-frame arena.
  const FrameArena::Stats& ArenaStats() const noexcept { return arena_.GetStats(); }

  /// Calendar-wheel slot count (power of two). Public so tests can pin the
  /// horizon edge: a sleep of exactly kWheelSize rounds must route through
  /// the overflow list, not alias the current slot.
  static constexpr std::size_t kWheelSize = 4096;

 private:
  /// The one step-and-file pass behind spawn (all nodes, round 0), the wake
  /// drain (the sorted bucket) and the resume pass (the actors): steps each
  /// node of `nodes` to its next suspension at clock `now` and files its
  /// action via FileAction in list order. When ParallelStepEligible, each
  /// shard steps its part on the pool (`shard_lists[s]`, else its segment
  /// of the node-sorted `nodes`) and filing follows serially.
  void StepAndFile(std::span<const NodeId> nodes, Round now,
                   const std::vector<std::vector<NodeId>>* shard_lists,
                   std::vector<NodeId>& actors,
                   std::vector<std::vector<NodeId>>& by_shard);

  /// Files node v's already-computed action: into `actors` (and the shard
  /// mirror, when sharded) if it acts in round ctx.now, into the wake wheel
  /// if it sleeps; detects completion and retires. Called serially in list
  /// order — filing mutates cross-node state (finished_, the retired count,
  /// the wheel), whose mutation order the trace/report goldens pin.
  void FileAction(NodeId v, std::vector<NodeId>& actors,
                  std::vector<std::vector<NodeId>>& by_shard);

  /// Issues prefetches for upcoming resumes in a batch: position i + 16
  /// pulls the node's hot context line (ctx_hot_ is 16 B/node — four nodes
  /// share a cache line, but resume order is wake order, so the hardware
  /// stride detector cannot cover it) plus, per engine, the flat lane or the
  /// cold context half the resume will touch; position i + 4 chases
  /// resume_point to the coroutine-frame header the resume call loads
  /// first. Hides the dependent LLC misses that otherwise dominate per-wake
  /// cost on large graphs.
  void PrefetchResume(std::span<const NodeId> nodes, std::size_t i) noexcept;

  /// Executes the current round for `actors_`, then resumes the actors to
  /// collect their next actions. One path for every engine and shard count
  /// (an unsharded run is the one-shard cut, whose passes run inline):
  /// (1) transmitters register — a pull round stamps shard-local bitsets
  /// (in parallel when sharded) and OR-merges them in fixed shard order; a
  /// push round registers serially in global actor order; (2) a per-shard
  /// listener pass resolves receptions; (3) energy totals commit once and
  /// the trace is emitted serially in global actor order; (4) StepAndFile
  /// steps the actors and files them serially. Every observable is
  /// bit-identical at any shard count (DESIGN.md §13).
  void ExecuteRound();

  /// Shard s's pull-round transmitter stamping + local energy charges.
  void ShardTransmitPass(unsigned s);
  /// Shard s's reception resolution + local energy charges.
  void ShardListenPass(unsigned s);
  /// Shard s's actors in global actor order; the whole actor list when the
  /// run is unsharded.
  const std::vector<NodeId>& ShardActors(unsigned s) const noexcept {
    return Sharded() ? shard_actors_[s] : actors_;
  }
  /// Serial trace pass in the two-phase event order: all transmits in actor
  /// order, then all listens.
  void EmitRoundTrace();
  /// Edge-balanced contiguous node cut from the CSR offset array; also
  /// sizes the per-shard actor lists and transmit buffers.
  void BuildShardCut();
  /// The shard owning node v under the current cut.
  unsigned ShardOf(NodeId v) const noexcept;
  bool Sharded() const noexcept { return shards_ > 1; }
  /// Whether per-node protocol steps may run in parallel: sharded and no
  /// timeline (phase annotations mutate the shared timeline inside Step, so
  /// annotated runs keep the serial reference path for the resume pass —
  /// channel and energy passes stay parallel either way).
  bool ParallelStepEligible() const noexcept {
    return Sharded() && config_.timeline == nullptr;
  }

  /// Pool dispatch only pays off when a pass has enough per-node work to
  /// amortize the barrier handshake; below this many nodes the same shard
  /// loop runs inline on the scheduler thread (ParallelFor with one job).
  /// Bit-identical either way — the shards execute the same disjoint work
  /// in the same serialized merge/filing order — so this is purely a cost
  /// knob, sized so ~µs of pass work meets ~µs of dispatch overhead.
  static constexpr std::size_t kParallelMinNodes = 1024;
  unsigned ShardJobs(std::size_t work_items) const noexcept {
    return work_items >= kParallelMinNodes ? shards_ : 1;
  }

  /// The direction this round resolves in (ResolveDirection over the
  /// pending actions of `actors_`). Also validates actor rounds and feeds
  /// the chan.* counters with the edges the chosen side scans.
  ChannelDirection ChooseDirection();

  const Graph* graph_;
  SchedulerConfig config_;
  Channel channel_;
  EnergyMeter energy_;

  // Declared before tasks_: destroying a task recycles its coroutine frames
  // into the arena, so the arena must be destroyed after (i.e. declared
  // before) the tasks that feed it.
  FrameArena arena_;

  // Per-node context state, split hot/cold into parallel arrays (DESIGN.md
  // §12.2): the resume loop and the channel's action scans stream only
  // ctx_hot_ (16 B/node — round, action argument, packed flags); RNG state,
  // receptions, the coroutine handle, and the energy/timeline pointers live
  // in ctx_cold_ and are touched only when a node actually draws, listens,
  // or resumes a coroutine. Protocols see both halves through the two-
  // pointer NodeContext view built by View().
  std::vector<HotNodeContext> ctx_hot_;
  std::vector<ColdNodeContext> ctx_cold_;
  std::vector<proc::Task<void>> tasks_;

  /// The two-pointer hot/cold view of node v handed to NodeApi / FlatCtx.
  NodeContext View(NodeId v) noexcept { return {&ctx_hot_[v], &ctx_cold_[v]}; }

  // Engaged by SpawnFlat: the batched state-machine backend. When set,
  // StepAndFile steps lanes in place and tasks_/arena_ stay empty.
  std::unique_ptr<FlatProtocol> flat_;
  // Cached at SpawnFlat so the prefetch path pays no virtual call.
  FlatProtocol::LaneLayout flat_lanes_;

  // Nodes acting (transmit/listen) in round now_.
  std::vector<NodeId> actors_;
  std::vector<NodeId> next_actors_;  // scratch, swapped each round

  // Intra-run sharding, cut once by the constructor (flat engine only;
  // every other run is the one-shard cut). shard_begin_ holds the
  // contiguous node cut (shards_ + 1 boundaries); when sharded,
  // shard_actors_ mirrors actors_ partitioned by shard, maintained by
  // FileAction and swapped alongside it.
  unsigned shards_ = 1;
  std::vector<NodeId> shard_begin_;
  std::vector<std::vector<NodeId>> shard_actors_;
  std::vector<std::vector<NodeId>> next_shard_actors_;
  std::vector<Channel::TxShardBuffer> tx_buffers_;
  // Per-shard charge tallies from the shard passes, summed serially into
  // the EnergyMeter totals once per round.
  std::vector<std::uint64_t> shard_tx_count_;
  std::vector<std::uint64_t> shard_listen_count_;
  std::uint64_t merge_words_ = 0;  ///< words OR-merged across all rounds
  std::uint64_t barrier_waits_base_ = 0;  ///< par::BarrierWaits at ctor

  // Calendar-wheel wake queue. Sleeping nodes land in the bucket of their
  // wake round when it is within the wheel horizon (now < round < now + W;
  // strict, since a distance-W round aliases the current slot), else in the
  // unsorted overflow (far phase syncs). The virtual clock visits
  // every wake round (jumps target the minimum pending round), so a bucket is
  // drained exactly at its round; draining sorts the bucket, reproducing the
  // (round, node)-ascending pop order of a binary heap — which resume order,
  // and therefore trace goldens, depend on — at O(1) amortized per event
  // instead of O(log sleepers).
  struct WakeEntry {
    Round round;
    NodeId node;
  };
  void PushWake(Round round, NodeId node);
  /// Smallest pending wake round (wheel and overflow), or kNoWake.
  Round NextWakeRound() const noexcept;
  /// Moves overflow entries that entered the horizon into their buckets.
  void MigrateOverflow();
  static constexpr Round kNoWake = ~Round{0};
  std::vector<std::vector<NodeId>> wake_wheel_{kWheelSize};
  std::vector<NodeId> wake_scratch_;       // drained bucket, sorted
  std::uint64_t wheel_count_ = 0;
  std::vector<WakeEntry> wake_overflow_;
  Round overflow_min_ = kNoWake;

  Round now_ = 0;
  Round last_awake_round_ = 0;
  bool any_awake_round_ = false;
  std::uint64_t node_rounds_ = 0;
  NodeId finished_ = 0;
  NodeId retired_ = 0;  ///< decided nodes (telemetry's "decided" gauge)
  bool spawned_ = false;

  /// Emits the per-round telemetry heartbeat (config.telemetry set).
  void EmitHeartbeat();

  // Metric handles resolved once in the constructor; null when metrics are
  // off, so the hot path pays a branch, not a map lookup.
  obs::Timer* execute_timer_ = nullptr;
  obs::Timer* resume_timer_ = nullptr;
  obs::Timer* wake_timer_ = nullptr;
  obs::Counter* rounds_executed_ = nullptr;
  obs::Counter* rounds_skipped_ = nullptr;
  obs::Counter* wake_events_ = nullptr;
  obs::Counter* push_rounds_ = nullptr;
  obs::Counter* pull_rounds_ = nullptr;
  obs::Counter* edges_scanned_ = nullptr;
  obs::Gauge* arena_reserved_ = nullptr;
  obs::Gauge* arena_used_ = nullptr;
  obs::Gauge* merge_words_metric_ = nullptr;
  obs::Gauge* barrier_waits_metric_ = nullptr;
  obs::Gauge* mem_hot_metric_ = nullptr;
  obs::Gauge* mem_cold_metric_ = nullptr;
  obs::Gauge* mem_lane_metric_ = nullptr;
};

}  // namespace emis
