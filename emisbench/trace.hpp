// In-memory span recorder for the benchmark's traced run.
//
// Spans are opened in the benchmark's own code around each call into a
// library layer (graph generation, scheduler set-up, rounds, MIS check,
// RunSweep). Each span records its name, start, end, parent and the pass it
// belongs to; nothing is written until the run ends. A span's self time is
// its duration minus the part of its interval that its children cover, so
// self time plus covered time conserves to the span exactly.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace emisbench {

/// Monotonic clock in nanoseconds (std::chrono::steady_clock).
std::int64_t NowNs() noexcept;

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;          ///< index of the parent span, -1 for a root
  std::uint32_t pass = 0;   ///< spans of one pass share this id
};

/// Thread-safe: sweep workers open factory spans concurrently.
class Tracer {
 public:
  /// Opens a span stamped with the current pass; returns its id.
  int Begin(std::string name, int parent);
  void End(int id);
  void SetPass(std::uint32_t pass);
  /// Copy of every span recorded so far (call after the traced work joined).
  std::vector<Span> Spans() const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::uint32_t pass_ = 0;
};

/// RAII span. With a null tracer it records nothing and id() is -1.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, std::string name, int parent);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;
  int id() const noexcept { return id_; }

 private:
  Tracer* tracer_;
  int id_ = -1;
};

/// Per span: `covered_ns` is the length of the union of its children's
/// intervals clipped to the span, `self_ns` the rest of its duration.
/// Children may overlap (parallel sweep workers); covered time counts each
/// instant once, so self_ns + covered_ns == end_ns - start_ns always holds.
struct SelfTimes {
  std::vector<std::int64_t> self_ns;
  std::vector<std::int64_t> covered_ns;
};

SelfTimes ComputeSelfTimes(const std::vector<Span>& spans);

}  // namespace emisbench
