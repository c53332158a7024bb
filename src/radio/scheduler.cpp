#include "radio/scheduler.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>

#include "core/contracts.hpp"
#include "obs/scoped_timer.hpp"
#include "radio/hugepages.hpp"
#include "verify/parallel.hpp"

namespace emis {

unsigned DefaultShards() noexcept {
  static const unsigned shards = [] {
    // Read once under the static's init guard; the process never setenv()s,
    // so the getenv cannot race a writer.
    const char* env = std::getenv("EMIS_SHARDS");  // NOLINT(concurrency-mt-unsafe)
    if (env == nullptr || *env == '\0') return 1u;
    char* end = nullptr;
    const unsigned long value = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0' || value == 0 || value > 256) return 1u;
    return static_cast<unsigned>(value);
  }();
  return shards;
}

Scheduler::Scheduler(const Graph& graph, SchedulerConfig config, std::uint64_t seed)
    : graph_(&graph),
      config_(config),
      channel_(graph, config.model),
      energy_(graph.NumNodes()) {
  if (config.link_loss > 0.0) {
    channel_.SetLoss(config.link_loss, seed ^ 0x10ad10ad10ad10adULL);
  }
  if (config_.ledger != nullptr) {
    EMIS_EXPECTS(config_.ledger->NumNodes() == graph.NumNodes(),
                 "energy ledger sized for a different graph");
  }
  if (config_.timeline != nullptr) {
    config_.timeline->BindEnergy(&energy_);
    // The timeline drives the ledger's (phase, sub) context and the
    // telemetry's phase-boundary events. RunMis (or whichever driver owns
    // the timeline) clears these bindings after the run.
    if (config_.ledger != nullptr) {
      config_.timeline->BindLedger(config_.ledger);
    }
    if (config_.telemetry != nullptr) {
      obs::StreamSink* sink = config_.telemetry;
      config_.timeline->SetSpanHook([sink](const obs::PhaseSpan& span) {
        obs::JsonValue event = obs::JsonValue::MakeObject();
        event.Set("event", obs::JsonValue("phase"));
        event.Set("label", obs::JsonValue(span.label));
        event.Set("level", obs::JsonValue(static_cast<std::uint64_t>(span.level)));
        event.Set("begin_round", obs::JsonValue(span.begin_round));
        event.Set("end_round", obs::JsonValue(span.end_round));
        event.Set("rounds", obs::JsonValue(span.Rounds()));
        // The span's transmit/listen delta = this phase's attribution
        // increment, streamed so a live consumer can grow the attribution
        // table without waiting for the final report.
        event.Set("transmit_rounds", obs::JsonValue(span.transmit_rounds));
        event.Set("listen_rounds", obs::JsonValue(span.listen_rounds));
        if (span.has_residual) {
          event.Set("residual_edges_begin", obs::JsonValue(span.residual_edges_begin));
          event.Set("residual_edges_end", obs::JsonValue(span.residual_edges_end));
        }
        sink->Emit(event);
      });
    }
  }
  if (config_.metrics != nullptr) {
    execute_timer_ = &config_.metrics->GetTimer("sched.execute_round");
    resume_timer_ = &config_.metrics->GetTimer("sched.resume");
    wake_timer_ = &config_.metrics->GetTimer("sched.wake_heap");
    rounds_executed_ = &config_.metrics->GetCounter("sched.rounds_executed");
    rounds_skipped_ = &config_.metrics->GetCounter("sched.rounds_skipped");
    wake_events_ = &config_.metrics->GetCounter("sched.wake_events");
    push_rounds_ = &config_.metrics->GetCounter("chan.push_rounds");
    pull_rounds_ = &config_.metrics->GetCounter("chan.pull_rounds");
    edges_scanned_ = &config_.metrics->GetCounter("chan.edges_scanned");
    arena_reserved_ = &config_.metrics->GetGauge("arena.bytes_reserved");
    arena_used_ = &config_.metrics->GetGauge("arena.bytes_used");
    merge_words_metric_ = &config_.metrics->GetGauge("chan.merge_words");
    barrier_waits_metric_ = &config_.metrics->GetGauge("parallel.barrier_waits");
    mem_hot_metric_ = &config_.metrics->GetGauge("mem.context_hot_bytes");
    mem_cold_metric_ = &config_.metrics->GetGauge("mem.context_cold_bytes");
    mem_lane_metric_ = &config_.metrics->GetGauge("mem.lane_bytes");
  }
  barrier_waits_base_ = par::BarrierWaits();
  const Rng root(seed);
  // The hot array is default-initialized (round 0, sleeping, no flags);
  // only the cold half needs per-node identity wired up.
  ReserveHuge(ctx_hot_, graph.NumNodes());
  ReserveHuge(ctx_cold_, graph.NumNodes());
  for (NodeId v = 0; v < graph.NumNodes(); ++v) {
    ctx_cold_[v].id = v;
    ctx_cold_[v].rng = root.Split(v);
    ctx_cold_[v].energy = &energy_.Of(v);
    ctx_cold_[v].timeline = config_.timeline;
  }
  // Sharding applies to the flat engine only, and never cuts more shards
  // than nodes, so degenerate tiny graphs collapse to fewer shards instead
  // of empty dispatches. Every other run is the one-shard cut.
  if (config_.engine == ExecutionEngine::kFlat && config_.shards > 1 &&
      graph.NumNodes() > 0) {
    shards_ = std::min<unsigned>(config_.shards, graph.NumNodes());
  }
  BuildShardCut();
}

void Scheduler::Spawn(const ProtocolFactory& factory) {
  EMIS_EXPECTS(!spawned_, "Spawn must be called exactly once");
  // Engine and protocol checks guard a public entry point against misuse,
  // so they stay on in every contract mode (audit mode would otherwise run
  // on into the wrong engine or a null protocol).
  EMIS_REQUIRE(config_.engine == ExecutionEngine::kCoroutine,
               "Spawn drives the coroutine engine; use SpawnFlat");
  spawned_ = true;
  // Root frames (and any coroutines the factory itself creates) come from
  // this scheduler's pooled arena; see radio/frame_arena.hpp.
  {
    const FrameArenaScope frames(&arena_);
    tasks_.reserve(graph_->NumNodes());
    for (NodeId v = 0; v < graph_->NumNodes(); ++v) {
      tasks_.push_back(factory(NodeApi(View(v))));
      EMIS_EXPECTS(tasks_.back().Valid(), "protocol factory returned an empty task");
      ctx_cold_[v].resume_point = tasks_[v].RawHandle();
    }
  }
  // Start every protocol: run it to its first suspension (or completion) so
  // it submits its action for round 0.
  std::vector<NodeId> all(graph_->NumNodes());
  std::iota(all.begin(), all.end(), NodeId{0});
  StepAndFile(all, 0, nullptr, actors_, shard_actors_);
}

void Scheduler::SpawnFlat(std::unique_ptr<FlatProtocol> protocol) {
  EMIS_EXPECTS(!spawned_, "Spawn must be called exactly once");
  EMIS_REQUIRE(config_.engine == ExecutionEngine::kFlat,
               "SpawnFlat drives the flat engine; use Spawn");
  EMIS_REQUIRE(protocol != nullptr, "flat protocol must not be null");
  spawned_ = true;
  flat_ = std::move(protocol);
  flat_lanes_ = flat_->Lanes();
  // Step every machine to its first action (round 0), in node order —
  // exactly where Spawn runs each coroutine to its first suspension.
  std::vector<NodeId> all(graph_->NumNodes());
  std::iota(all.begin(), all.end(), NodeId{0});
  StepAndFile(all, 0, nullptr, actors_, shard_actors_);
}

void Scheduler::BuildShardCut() {
  const std::span<const std::uint64_t> offsets = graph_->RowOffsets();
  const NodeId n = graph_->NumNodes();
  const std::uint64_t total = offsets[n];  // directed CSR entries
  shard_begin_.assign(shards_ + 1, 0);
  shard_begin_[shards_] = n;
  for (unsigned s = 1; s < shards_; ++s) {
    NodeId boundary;
    if (total == 0) {
      // Edgeless graph: fall back to a node-uniform cut.
      boundary = static_cast<NodeId>(
          static_cast<std::uint64_t>(n) * s / shards_);
    } else {
      // Largest node whose edge prefix is still within s/shards of the
      // total — contiguous row ranges with balanced directed-edge volume,
      // which is what the channel passes actually iterate.
      const std::uint64_t target =
          static_cast<std::uint64_t>(static_cast<unsigned __int128>(total) * s / shards_);
      const auto it = std::upper_bound(offsets.begin(), offsets.end(), target);
      boundary = static_cast<NodeId>(std::distance(offsets.begin(), it) - 1);
    }
    // Monotone boundaries; skewed graphs may leave later shards empty.
    shard_begin_[s] = std::max(boundary, shard_begin_[s - 1]);
  }
  tx_buffers_.resize(shards_);
  for (unsigned s = 0; s < shards_; ++s) {
    channel_.InitShardBuffer(tx_buffers_[s], shard_begin_[s], shard_begin_[s + 1]);
  }
  shard_actors_.assign(shards_, {});
  next_shard_actors_.assign(shards_, {});
  shard_tx_count_.assign(shards_, 0);
  shard_listen_count_.assign(shards_, 0);
}

unsigned Scheduler::ShardOf(NodeId v) const noexcept {
  const auto it =
      std::upper_bound(shard_begin_.begin() + 1, shard_begin_.end(), v);
  return static_cast<unsigned>(std::distance(shard_begin_.begin() + 1, it));
}

void Scheduler::Retire(NodeId v) {
  EMIS_EXPECTS(v < graph_->NumNodes(), "node out of range");
  HotNodeContext& hot = ctx_hot_[v];
  if (hot.Retired()) return;  // idempotent: finishing also implies retirement
  hot.MarkRetired();  // sets retired, clears any pending retire request
  ++retired_;
}

void Scheduler::StepAndFile(std::span<const NodeId> nodes, Round now,
                            const std::vector<std::vector<NodeId>>* shard_lists,
                            std::vector<NodeId>& actors,
                            std::vector<std::vector<NodeId>>& by_shard) {
  // Filing always runs serially in list order (see FileAction). No step
  // reads what filing writes, so filing after all steps or right after
  // each gives the same bits.
  const auto clock = static_cast<std::uint32_t>(now);
  if (ParallelStepEligible()) {
    // Steps are independent per node (each touches only its own context and
    // lane), so each shard steps its own part on the pool: its list when the
    // caller keeps per-shard lists, else its segment of the node-sorted
    // `nodes`.
    par::ParallelFor(ShardJobs(nodes.size()), shards_,
                     [this, nodes, shard_lists, clock](std::uint64_t s, unsigned) {
      std::span<const NodeId> part;
      if (shard_lists != nullptr) {
        part = (*shard_lists)[s];
      } else {
        const auto begin =
            std::lower_bound(nodes.begin(), nodes.end(), shard_begin_[s]);
        part = {begin, std::lower_bound(begin, nodes.end(), shard_begin_[s + 1])};
      }
      for (std::size_t i = 0; i < part.size(); ++i) {
        PrefetchResume(part, i);
        const NodeId v = part[i];
        EMIS_INVARIANT(ctx_hot_[v].Pending() != ActionKind::kSleep ||
                           ctx_hot_[v].WakeRound() == clock,
                       "missed a wake event");
        ctx_hot_[v].now = clock;
        flat_->Step(v, View(v));
      }
    });
    for (const NodeId v : nodes) FileAction(v, actors, by_shard);
    return;
  }
  // Serially, each node files right after its step, while its hot context
  // is still in cache. Sub-protocol frames spawned while a coroutine runs
  // allocate from (and completed ones recycle into) this scheduler's arena.
  const FrameArenaScope frames(&arena_);
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    PrefetchResume(nodes, i);
    const NodeId v = nodes[i];
    HotNodeContext& hot = ctx_hot_[v];
    EMIS_INVARIANT(hot.Pending() != ActionKind::kSleep || hot.WakeRound() == clock,
                   "missed a wake event");
    hot.now = clock;
    if (flat_ != nullptr) {
      flat_->Step(v, View(v));
    } else {
      ctx_cold_[v].resume_point.resume();
      if (tasks_[v].Done()) {
        tasks_[v].RethrowIfFailed();
        hot.MarkDone();
      }
    }
    FileAction(v, actors, by_shard);
  }
}

void Scheduler::FileAction(NodeId v, std::vector<NodeId>& actors,
                           std::vector<std::vector<NodeId>>& by_shard) {
  HotNodeContext& hot = ctx_hot_[v];
  if (hot.Done()) {
    ++finished_;
    // A finished program never acts again: retiring arms the
    // acting-after-retirement invariant and counts the node as decided.
    Retire(v);
    return;
  }
  if (hot.RetireRequested()) Retire(v);
  switch (hot.Pending()) {
    case ActionKind::kTransmit:
    case ActionKind::kListen:
      EMIS_INVARIANT(!hot.Retired(), "retired node submitted a radio action");
      actors.push_back(v);
      if (Sharded()) by_shard[ShardOf(v)].push_back(v);
      break;
    case ActionKind::kSleep:
      EMIS_INVARIANT(hot.WakeRound() > hot.now, "sleep must advance time");
      PushWake(hot.WakeRound(), v);
      break;
    default:
      EMIS_UNREACHABLE("unhandled pending action kind");
  }
}

void Scheduler::PrefetchResume(std::span<const NodeId> nodes,
                               std::size_t i) noexcept {
  if (i + 16 < nodes.size()) {
    const NodeId ahead = nodes[i + 16];
    // A HotNodeContext is 16 B — one cache line covers it and three of
    // its neighbors, so a single prefetch pulls everything the filing
    // path reads. Resume order is wake order, not node order, so the
    // hardware stride detector cannot cover any of these streams.
    __builtin_prefetch(&ctx_hot_[ahead], /*rw=*/1, /*locality=*/1);
    if (flat_lanes_.base != nullptr) {
      // The flat engine's second dependent load is the node's lane. The
      // cold half is deliberately NOT prefetched here: only RNG-drawing
      // resumes reach it, and pulling it for every node measurably costs
      // more in bandwidth than the avoided misses return (~6% at
      // n = 2^20, degree 256).
      __builtin_prefetch(static_cast<const char*>(flat_lanes_.base) +
                             flat_lanes_.stride * ahead,
                         1, 1);
    } else {
      // Coroutine resumes always reach the cold half (resume_point, rng).
      __builtin_prefetch(&ctx_cold_[ahead], 1, 1);
    }
  }
  if (i + 4 < nodes.size() && flat_ == nullptr) {
    // The cold line was prefetched twelve resumes ago, so this dereference
    // is cheap by now; the frame header is what resume() loads first.
    __builtin_prefetch(ctx_cold_[nodes[i + 4]].resume_point.address(), 1, 1);
  }
}

void Scheduler::PushWake(Round round, NodeId node) {
  // Wheel entries satisfy now < round < now + W: the bucket for `round` was
  // last drained at or before the current round, so it next drains exactly
  // at `round` (the clock visits every pending wake round). The bound must
  // be strict — a distance-W entry maps to the *current* round's slot, and
  // if it lands there while now's bucket drains (all woken nodes back to
  // sleep), NextWakeRound would re-find the slot at d = 0 and re-drain it
  // this round, waking the node W rounds early. Distance >= W goes to the
  // overflow list, whose minimum NextWakeRound also consults.
  if (round - now_ < kWheelSize) {
    wake_wheel_[round & (kWheelSize - 1)].push_back(node);
    ++wheel_count_;
  } else {
    wake_overflow_.push_back({round, node});
    overflow_min_ = std::min(overflow_min_, round);
  }
}

Round Scheduler::NextWakeRound() const noexcept {
  if (wheel_count_ > 0) {
    // Walk forward from `now`; total walk length across a run is bounded by
    // the rounds the clock advances, so this is O(1) amortized per jump.
    // Slot aliasing is benign: at distance d the slot can only hold round
    // now + d (a round now + d + W entry would have been pushed after round
    // now + d, which has not happened yet).
    for (Round d = 0; d < kWheelSize; ++d) {
      const Round round = now_ + d;
      if (!wake_wheel_[round & (kWheelSize - 1)].empty()) {
        return std::min(round, overflow_min_);
      }
    }
  }
  return overflow_min_;
}

void Scheduler::MigrateOverflow() {
  std::size_t kept = 0;
  Round kept_min = kNoWake;
  for (const WakeEntry& entry : wake_overflow_) {
    // Same strict horizon as PushWake: a distance-W entry would alias the
    // current slot, so it stays in overflow until the clock gets closer.
    if (entry.round - now_ < kWheelSize) {
      wake_wheel_[entry.round & (kWheelSize - 1)].push_back(entry.node);
      ++wheel_count_;
    } else {
      kept_min = std::min(kept_min, entry.round);
      wake_overflow_[kept++] = entry;
    }
  }
  wake_overflow_.resize(kept);
  overflow_min_ = kept_min;
}

ChannelDirection Scheduler::ChooseDirection() {
  std::uint64_t tx_edges = 0;
  std::uint64_t listen_edges = 0;
  for (NodeId v : actors_) {
    const HotNodeContext& hot = ctx_hot_[v];
    EMIS_INVARIANT(hot.now == now_, "actor scheduled for wrong round");
    const std::uint64_t cost = graph_->Degree(v);
    if (hot.Pending() == ActionKind::kTransmit) {
      tx_edges += cost;
    } else {
      listen_edges += cost;
    }
  }
  const ChannelDirection dir = ResolveDirection(
      config_.resolution, tx_edges, listen_edges, config_.link_loss > 0.0);
  if (edges_scanned_ != nullptr) {
    (dir == ChannelDirection::kPush ? push_rounds_ : pull_rounds_)->Inc();
    edges_scanned_->Inc(dir == ChannelDirection::kPush ? tx_edges : listen_edges);
  }
  return dir;
}

void Scheduler::ShardTransmitPass(unsigned s) {
  Channel::TxShardBuffer& buffer = tx_buffers_[s];
  const std::vector<NodeId>& list = ShardActors(s);
  std::uint64_t transmits = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i + 8 < list.size()) {
      __builtin_prefetch(&ctx_hot_[list[i + 8]], 0, 1);
    }
    const NodeId v = list[i];
    const HotNodeContext& hot = ctx_hot_[v];
    if (hot.Pending() != ActionKind::kTransmit) continue;
    channel_.StampTransmitter(buffer, v, hot.Payload());
    energy_.ChargeTransmitLocal(v);
    if (config_.ledger != nullptr) config_.ledger->ChargeTransmit(v);
    ++transmits;
  }
  shard_tx_count_[s] = transmits;
}

void Scheduler::ShardListenPass(unsigned s) {
  const std::vector<NodeId>& list = ShardActors(s);
  std::uint64_t listens = 0;
  for (std::size_t i = 0; i < list.size(); ++i) {
    if (i + 8 < list.size()) {
      const NodeId ahead = list[i + 8];
      __builtin_prefetch(&ctx_hot_[ahead], 0, 1);
      __builtin_prefetch(&ctx_cold_[ahead].last_reception, 1, 1);
    }
    const NodeId v = list[i];
    if (ctx_hot_[v].Pending() != ActionKind::kListen) continue;
    ctx_cold_[v].last_reception = channel_.ResolveListener(v);
    energy_.ChargeListenLocal(v);
    if (config_.ledger != nullptr) config_.ledger->ChargeListen(v);
    ++listens;
  }
  shard_listen_count_[s] = listens;
}

void Scheduler::EmitRoundTrace() {
  // Serial trace pass in global actor order: all transmit events, then all
  // listens, so trace goldens are shard-count-invariant.
  for (const NodeId v : actors_) {
    const HotNodeContext& hot = ctx_hot_[v];
    if (hot.Pending() == ActionKind::kTransmit) {
      config_.trace->OnEvent({now_, v, ActionKind::kTransmit, hot.Payload(), {}});
    }
  }
  for (const NodeId v : actors_) {
    if (ctx_hot_[v].Pending() == ActionKind::kListen) {
      config_.trace->OnEvent(
          {now_, v, ActionKind::kListen, 0, ctx_cold_[v].last_reception});
    }
  }
}

void Scheduler::ExecuteRound() {
  {
    const obs::ScopedTimer timing(execute_timer_);
    const ChannelDirection dir = ChooseDirection();
    channel_.BeginRound(dir);
    // Pre-intern the ledger's (phase, sub) key so concurrent charges touch
    // only per-node cells (disjoint across shards), never the key table.
    if (config_.ledger != nullptr) config_.ledger->PrimeCurrentKey();
    const unsigned jobs = ShardJobs(actors_.size());
    std::uint64_t tx_total = 0;
    if (dir == ChannelDirection::kPull) {
      par::ParallelFor(jobs, shards_, [this](std::uint64_t s, unsigned) {
        ShardTransmitPass(static_cast<unsigned>(s));
      });
      // Word-wise OR-merge in fixed shard order into the epoch-stamped
      // global bitset; serial, so boundary words shared by two shards merge
      // cleanly.
      for (unsigned s = 0; s < shards_; ++s) {
        merge_words_ += channel_.MergeTxShard(tx_buffers_[s]);
        tx_total += shard_tx_count_[s];
      }
    } else {
      // Push deliveries write into neighbors' slots, which any shard may
      // own, so they run serially in global actor order. That stays cheap:
      // push is only chosen when its edge side is under a quarter of the
      // listen side.
      for (std::size_t i = 0; i < actors_.size(); ++i) {
        if (i + 8 < actors_.size()) {
          __builtin_prefetch(&ctx_hot_[actors_[i + 8]], 0, 1);
        }
        const NodeId v = actors_[i];
        const HotNodeContext& hot = ctx_hot_[v];
        if (hot.Pending() != ActionKind::kTransmit) continue;
        channel_.AddTransmitter(v, hot.Payload());
        energy_.ChargeTransmitLocal(v);
        if (config_.ledger != nullptr) config_.ledger->ChargeTransmit(v);
        ++tx_total;
      }
    }
    // ResolveListener(v) reads only the merged transmitter set (pull) or
    // v's own delivery slots (push), so the listener pass is shard-parallel
    // in either direction.
    par::ParallelFor(jobs, shards_, [this](std::uint64_t s, unsigned) {
      ShardListenPass(static_cast<unsigned>(s));
    });
    std::uint64_t listen_total = 0;
    for (unsigned s = 0; s < shards_; ++s) listen_total += shard_listen_count_[s];
    // Totals are plain sums — order-independent — so committing them once
    // per round keeps the meter exactly conserved at round boundaries.
    energy_.CommitShardTotals(tx_total, listen_total);
    if (config_.trace != nullptr) EmitRoundTrace();
  }
  node_rounds_ += actors_.size();
  last_awake_round_ = now_;
  any_awake_round_ = true;
  if (rounds_executed_ != nullptr) rounds_executed_->Inc();
  if (config_.telemetry != nullptr &&
      now_ % std::max<Round>(config_.telemetry->HeartbeatEvery(), 1) == 0) {
    EmitHeartbeat();
  }

  // Resume pass: step every actor to its action for the next round and
  // file it (StepAndFile).
  const obs::ScopedTimer timing(resume_timer_);
  next_actors_.clear();
  for (std::vector<NodeId>& list : next_shard_actors_) list.clear();
  StepAndFile(actors_, now_ + 1, &shard_actors_, next_actors_, next_shard_actors_);
  actors_.swap(next_actors_);
  shard_actors_.swap(next_shard_actors_);
}

void Scheduler::EmitHeartbeat() {
  // Emitted after the round's channel/energy work, before the actors are
  // resumed for the next round, so the gauges describe the round that just
  // executed. Heartbeats ride the bounded queue: a consumer that cannot
  // keep up loses heartbeats (counted), never the control envelopes.
  obs::JsonValue event = obs::JsonValue::MakeObject();
  event.Set("event", obs::JsonValue("round"));
  event.Set("round", obs::JsonValue(now_));
  event.Set("awake", obs::JsonValue(static_cast<std::uint64_t>(actors_.size())));
  event.Set("decided", obs::JsonValue(static_cast<std::uint64_t>(retired_)));
  event.Set("finished", obs::JsonValue(static_cast<std::uint64_t>(finished_)));
  config_.telemetry->Emit(event);
}

RunStats Scheduler::RunUntil(Round limit) {
  EMIS_EXPECTS(spawned_, "call Spawn before running");
  limit = std::min(limit, config_.max_rounds);

  while (!AllFinished()) {
    // If nobody acts this round, jump to the next wake event.
    if (actors_.empty()) {
      const Round next_wake = NextWakeRound();
      if (next_wake == kNoWake) {
        // Every remaining protocol sleeps forever; nothing further happens.
        // (Cannot occur with SleepFor/SleepUntil, which are finite, but a
        // protocol that never finishes after its last action lands here.)
        break;
      }
      // Clamp the jump at `limit`: the virtual clock must not overshoot the
      // run bound, and rounds_skipped_ must count only rounds actually
      // skipped within this run (the remainder is counted if a later
      // RunUntil resumes past it).
      const Round jump_to = std::min(limit, std::max(now_, next_wake));
      if (rounds_skipped_ != nullptr) rounds_skipped_->Inc(jump_to - now_);
      now_ = jump_to;
    }
    if (now_ >= limit) break;
    // The hot contexts store the clock narrowed (HotNodeContext::kNowMax);
    // the skip-jump above is the only way now_ can move fast, so one check
    // per executed round keeps every per-node store exact.
    EMIS_INVARIANT(now_ < HotNodeContext::kNowMax,
                   "round clock outgrew the narrowed hot-context field");

    // Wake sleepers due now; they may join this round's actors. Swap the
    // bucket out first: woken nodes push fresh wheel entries as they file
    // sleeps (never into this slot — the strict horizon sends distance-W
    // wakes to overflow), and sorting in scratch keeps the bucket's
    // capacity for its next lap.
    if (overflow_min_ <= now_) MigrateOverflow();
    std::vector<NodeId>& bucket = wake_wheel_[now_ & (kWheelSize - 1)];
    if (!bucket.empty()) {
      const obs::ScopedTimer timing(wake_timer_);
      wake_scratch_.clear();
      wake_scratch_.swap(bucket);
      // Heap-order compatibility: same-round wakes resume in node order.
      std::sort(wake_scratch_.begin(), wake_scratch_.end());
      wheel_count_ -= wake_scratch_.size();
      if (wake_events_ != nullptr) wake_events_->Inc(wake_scratch_.size());
      StepAndFile(wake_scratch_, now_, nullptr, actors_, shard_actors_);
    }
    if (actors_.empty()) continue;  // woken nodes all went back to sleep

    ExecuteRound();
    ++now_;
  }

  if (arena_reserved_ != nullptr) {
    const FrameArena::Stats& arena = arena_.GetStats();
    arena_reserved_->Set(static_cast<double>(arena.reserved_bytes));
    arena_used_->Set(static_cast<double>(arena.used_bytes));
  }
  if (merge_words_metric_ != nullptr) {
    merge_words_metric_->Set(static_cast<double>(merge_words_));
    barrier_waits_metric_->Set(
        static_cast<double>(par::BarrierWaits() - barrier_waits_base_));
  }
  if (mem_hot_metric_ != nullptr) {
    // Working-set gauges (DESIGN.md §12.2): bytes the resume loop streams
    // per array. The lane gauge reads the stride the protocol published —
    // zero for the coroutine engine, whose per-node machine state lives in
    // arena frames (reported by the arena gauges instead).
    const double n = static_cast<double>(graph_->NumNodes());
    mem_hot_metric_->Set(n * static_cast<double>(sizeof(HotNodeContext)));
    mem_cold_metric_->Set(n * static_cast<double>(sizeof(ColdNodeContext)));
    mem_lane_metric_->Set(n * static_cast<double>(flat_lanes_.stride));
  }

  RunStats stats;
  stats.rounds_used = any_awake_round_ ? last_awake_round_ + 1 : 0;
  stats.node_rounds = node_rounds_;
  stats.nodes_finished = finished_;
  stats.hit_round_limit = !AllFinished() && now_ >= config_.max_rounds;
  EMIS_ENSURES(stats.nodes_finished <= graph_->NumNodes(),
               "more protocols finished than nodes exist");
  EMIS_ENSURES(stats.rounds_used <= config_.max_rounds,
               "round complexity exceeds the configured hard stop");
  // The run is over (not merely paused at `limit`): close the trailing phase
  // span so per-phase deltas cover the whole run.
  if (config_.timeline != nullptr && (AllFinished() || stats.hit_round_limit)) {
    config_.timeline->Close(stats.rounds_used);
  }
  return stats;
}

}  // namespace emis
