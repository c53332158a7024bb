// Streaming run telemetry: a push-based NDJSON event stream (one JSON object
// per line) under the versioned "emis-telemetry/1" schema.
//
// The sink is a bounded in-memory queue of serialized lines. Producers (the
// Scheduler's round heartbeats, the PhaseTimeline's span-close hook, drivers
// emitting run_begin/run_end envelopes) push events; a consumer drains the
// queue to a stream when convenient. Bounding matters: a heartbeat per
// executed round on a long run must not grow memory without limit, so once
// the queue is full further *data* events are dropped and counted —
// `dropped_events` is explicit in the run_end envelope and surfaced as the
// `obs.telemetry_dropped` gauge in run reports, never silent. Control
// events (EmitControl) bypass the bound: the envelope that carries the drop
// accounting must itself never be dropped.
//
// Event vocabulary (all events carry "event"; the opening envelope carries
// "schema"):
//   run_begin   {schema, event, algorithm?, graph?, seed?, nodes?, edges?}
//   round       {event, round, awake, decided, finished}
//   phase       {event, label, level, begin_round, end_round, rounds,
//                transmit_rounds, listen_rounds[, residual_edges_begin,
//                residual_edges_end]}   — one per closed span; the
//                transmit/listen fields are the span's attribution delta
//   run_end     {event, ..., emitted_events, dropped_events}
//   sweep_begin / sweep_end — sweep-level envelopes (emis_cli sweep); each
//                trial inside a sweep is framed by its own run_begin/run_end
//                pair carrying {n, seed_index} instead of the schema key
//
// Determinism: events are produced on the single scheduler thread in round
// order, so one run's drained content is a pure function of (graph, config).
// Sweeps give each trial a private sink and concatenate the drained blobs on
// the reducing thread in (size, seed) order — the same shard-and-merge
// discipline that makes sweep points bit-identical at any --jobs.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "obs/json.hpp"
#include "radio/types.hpp"

namespace emis::obs {

inline constexpr std::string_view kTelemetrySchema = "emis-telemetry/1";

struct StreamSinkConfig {
  /// Queue bound in events; data events past this are dropped and counted.
  std::size_t max_queued_events = 1 << 16;
  /// Scheduler heartbeat cadence: a `round` event every N executed rounds.
  Round heartbeat_every = 1;
};

class StreamSink {
 public:
  explicit StreamSink(StreamSinkConfig config = {}) : config_(config) {}

  /// Serializes and enqueues a data event; drops it (counting) when full.
  void Emit(const JsonValue& event);

  /// Enqueues a control envelope (run_begin/run_end/...), never dropped.
  void EmitControl(const JsonValue& event);

  /// Events accepted into the queue since construction/Clear (control
  /// events included), regardless of later draining.
  std::uint64_t EmittedEvents() const noexcept { return emitted_; }
  /// Data events rejected because the queue was full.
  std::uint64_t DroppedEvents() const noexcept { return dropped_; }
  std::size_t QueuedEvents() const noexcept { return queue_.size(); }

  Round HeartbeatEvery() const noexcept { return config_.heartbeat_every; }

  /// Writes all queued lines to `out` and clears the queue; counters are
  /// preserved so drop accounting survives incremental drains.
  void DrainTo(std::ostream& out);
  /// Same, returning the NDJSON blob (sweeps buffer per trial, then
  /// concatenate blobs in trial order).
  std::string DrainToString();

  void Clear();

 private:
  void Enqueue(const JsonValue& event, bool bounded);

  StreamSinkConfig config_;
  std::vector<std::string> queue_;  ///< serialized lines, '\n'-terminated
  std::uint64_t emitted_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Opens the destination named by an `--telemetry-out <path|fd>` spec: a
/// file path, or "fd:N" to write an already-open descriptor (e.g. "fd:3"
/// under a supervisor that collects telemetry on a pipe). This is the
/// library's one sanctioned file-writing path (see emis_lint io-in-library).
/// Throws PreconditionError when the destination cannot be opened.
std::unique_ptr<std::ostream> OpenTelemetryStream(const std::string& spec);

}  // namespace emis::obs
