#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace emisbench {

std::int64_t NowNs() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(std::string name, int parent) {
  const std::int64_t now = NowNs();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({std::move(name), now, now, parent, pass_});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) {
  const std::int64_t now = NowNs();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = now;
}

void Tracer::SetPass(std::uint32_t pass) {
  const std::lock_guard<std::mutex> lock(mu_);
  pass_ = pass;
}

std::vector<Span> Tracer::Spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

SpanScope::SpanScope(Tracer* tracer, std::string name, int parent)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->Begin(std::move(name), parent);
}

SpanScope::~SpanScope() {
  if (tracer_ != nullptr) tracer_->End(id_);
}

SelfTimes ComputeSelfTimes(const std::vector<Span>& spans) {
  const std::size_t count = spans.size();
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(count);
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (lo < hi) children[static_cast<std::size_t>(s.parent)].emplace_back(lo, hi);
  }
  SelfTimes out;
  out.self_ns.resize(count);
  out.covered_ns.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [lo, hi] : iv) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    out.covered_ns[i] = covered;
    out.self_ns[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return out;
}

}  // namespace emisbench
