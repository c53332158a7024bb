// Checks that span self times conserve: for every span, self time plus the
// time its children cover equals its duration, serial children sum with the
// remainder to their parent, and overlapping children count each instant once.
// Exit code 0 iff every check passes.
#include <cstdio>
#include <thread>
#include <vector>

#include "trace.hpp"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

using emisbench::Span;

void SerialChildrenConserveToParent() {
  // pass [0, 100): gen [5, 40), run [40, 90), check [90, 96); remainder 9.
  // run has one child [50, 60).
  const std::vector<Span> spans = {{"pass", 0, 100, -1, 1},
                                   {"gen", 5, 40, 0, 1},
                                   {"run", 40, 90, 0, 1},
                                   {"check", 90, 96, 0, 1},
                                   {"inner", 50, 60, 2, 1}};
  const emisbench::SelfTimes st = emisbench::ComputeSelfTimes(spans);
  Expect(st.self_ns[0] == 9, "pass remainder is the uncovered 9 ns");
  Expect(st.covered_ns[0] == 35 + 50 + 6, "serial children sum to covered");
  Expect(st.self_ns[2] == 40, "run self excludes its child");
  std::int64_t total_self = 0;
  for (const std::int64_t s : st.self_ns) total_self += s;
  Expect(total_self == 100, "self times of a serial tree sum to the root");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    Expect(st.self_ns[i] + st.covered_ns[i] == spans[i].end_ns - spans[i].start_ns,
           "self + covered == duration");
  }
}

void OverlappingChildrenCountOnce() {
  // Two workers: [10, 50) and [30, 70) inside [0, 100); union is 60.
  const std::vector<Span> spans = {{"sweep", 0, 100, -1, 1},
                                   {"factory", 10, 50, 0, 1},
                                   {"factory", 30, 70, 0, 1},
                                   {"factory", 95, 120, 0, 1}};
  const emisbench::SelfTimes st = emisbench::ComputeSelfTimes(spans);
  Expect(st.covered_ns[0] == 65, "union clipped to the parent");
  Expect(st.self_ns[0] == 35, "self is the uncovered part");
  Expect(st.self_ns[1] == 40 && st.covered_ns[1] == 0, "leaf self is its duration");
}

void TracerIsThreadSafeAndNests() {
  emisbench::Tracer tracer;
  tracer.SetPass(7);
  {
    const emisbench::SpanScope root(&tracer, "pass", -1);
    std::thread a([&] { const emisbench::SpanScope s(&tracer, "w", root.id()); });
    std::thread b([&] { const emisbench::SpanScope s(&tracer, "w", root.id()); });
    a.join();
    b.join();
  }
  const std::vector<Span> spans = tracer.Spans();
  Expect(spans.size() == 3, "three spans recorded");
  for (const Span& s : spans) {
    Expect(s.pass == 7, "spans carry the pass id");
    Expect(s.end_ns >= s.start_ns, "spans are closed");
  }
  const emisbench::SelfTimes st = emisbench::ComputeSelfTimes(spans);
  Expect(st.self_ns[0] + st.covered_ns[0] == spans[0].end_ns - spans[0].start_ns,
         "root conserves");
  const emisbench::SpanScope off(nullptr, "off", -1);
  Expect(off.id() == -1, "a null tracer records nothing");
}

}  // namespace

int main() {
  SerialChildrenConserveToParent();
  OverlappingChildrenCountOnce();
  TracerIsThreadSafeAndNests();
  if (failures == 0) std::printf("trace_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
