// emisbench: runs one named workload through libemis for a fixed time and
// prints one JSON result line (the last line of stdout).
//
//   emisbench --workload NAME --seed N --seconds S --trace 0|1
//             --out-dir DIR [--smoke]
//   emisbench --list        (workload and metric names with units)
//
// Every process runs one untimed warm-up pass, then identical timed passes
// (same seed, so the same work) until S seconds have passed, and reports
// the median pass. --trace 1 instead alternates plain and traced passes and
// reports the per-layer metrics; its spans are written to DIR at exit.
// The output gate compares the simulated statistics of every pass, every
// traced replay and every earlier run of the same seed (recorded in DIR)
// exactly.
#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "adapter.hpp"
#include "trace.hpp"

namespace emisbench {
namespace {

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
constexpr bool kMeasurableBuild = false;
#else
constexpr bool kMeasurableBuild = true;
#endif

struct MetricDef {
  const char* name;
  const char* unit;
};

// Emitted with --trace 0.
constexpr MetricDef kEndToEnd[] = {
    {"wall_s", "s"},           {"setup_s", "s"},
    {"node_rounds_per_s", "1/s"}, {"trials_per_s", "1/s"},
    {"peak_rss_mb", "MiB"},    {"ok_ratio", "ratio"},
    {"energy_max", "rounds"},  {"rounds", "rounds"},
};

// Emitted with --trace 1. A layer a workload does not exercise reads 0.
constexpr MetricDef kPerLayer[] = {
    {"graph.gen_s", "s"},
    {"graph.adj_entries", "count"},
    {"graph.gen_entries_per_s", "1/s"},
    {"sched.init_s", "s"},
    {"sched.spawn_s", "s"},
    {"sched.run_s", "s"},
    {"sched.execute_round_s", "s"},
    {"sched.resume_s", "s"},
    {"sched.wake_s", "s"},
    {"sched.rounds_executed", "count"},
    {"sched.rounds_skipped", "count"},
    {"sched.wake_events", "count"},
    {"sched.node_rounds", "count"},
    {"chan.edges_scanned", "count"},
    {"chan.push_rounds", "count"},
    {"chan.pull_rounds", "count"},
    {"chan.merge_words", "count"},
    {"chan.edges_per_node_round", "ratio"},
    {"chan.live_edges", "count"},
    {"graph.compactions", "count"},
    {"graph.edges_reclaimed", "count"},
    {"arena.bytes_reserved", "bytes"},
    {"mem.context_hot_bytes", "bytes"},
    {"mem.context_cold_bytes", "bytes"},
    {"mem.lane_bytes", "bytes"},
    {"check.s", "s"},
    {"sweep.busy_ratio", "ratio"},
    {"sweep.size_s.512", "s"},
    {"sweep.size_s.1024", "s"},
    {"sweep.size_s.2048", "s"},
    {"sweep.size_s.4096", "s"},
    {"parallel.barrier_waits", "count"},
    {"pass.cold_wall_s", "s"},
    {"proc.minflt", "count"},
    {"proc.majflt", "count"},
    {"proc.invol_csw", "count"},
    {"trace.overhead_ratio", "ratio"},
};

struct Workload {
  std::string name;
  bool sweep = false;
  std::uint32_t n = 0;  ///< single run: G(n, avg_degree / n)
  double avg_degree = 0;
  SweepSpec spec;       ///< sweeps; knobs live in spec.knobs
  Knobs knobs;          ///< single run
};

const char* const kWorkloadNames[] = {"er_dense_cd_flat", "sweep_er_cd_coroutine"};

// Why each workload exists is in README.md; sizes shrink with --smoke. Sweep
// sizes run largest first, so the two workers finish together instead of
// one waiting on the other's last large trial.
std::optional<Workload> FindWorkload(const std::string& name, std::uint64_t seed,
                                     bool smoke) {
  Workload w;
  w.name = name;
  if (name == "er_dense_cd_flat") {
    w.n = smoke ? 1U << 12 : 1U << 16;
    w.avg_degree = smoke ? 32 : 256;
    w.knobs = {.engine = Engine::kFlat, .shards = 2, .jobs = 1, .compaction = true};
    return w;
  }
  w.sweep = true;
  w.spec.seed_base = seed;
  if (name == "sweep_er_cd_coroutine") {
    w.spec.avg_degree = 16;
    w.spec.sizes = smoke ? std::vector<std::uint32_t>{512, 256}
                         : std::vector<std::uint32_t>{4096, 2048, 1024, 512};
    w.spec.seeds_per_size = smoke ? 4 : 100;
    w.spec.knobs = {.engine = Engine::kCoroutine, .shards = 1, .jobs = 2,
                    .compaction = true};
    return w;
  }
  return std::nullopt;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

struct Usage {
  double minflt = 0, majflt = 0, invol_csw = 0;
};

Usage ReadUsage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return {static_cast<double>(ru.ru_minflt), static_cast<double>(ru.ru_majflt),
          static_cast<double>(ru.ru_nivcsw)};
}

struct Pass {
  double wall_s = 0;   ///< gen + checked MIS (single) / the RunSweep call
  double setup_s = 0;  ///< GraphFromSpec / Σ factory time
  double run_s = 0;    ///< RunMis / the RunSweep call
  std::vector<RunFacts> facts;   ///< single run, untraced: RunMis's facts
  std::vector<RunFacts> replay;  ///< the decomposed path's facts, per trial
  Usage usage;                   ///< getrusage delta over the pass
  SweepOutcome sweep;            ///< sweeps: the raw outcome, with points
  std::uint64_t adj_entries = 0;
};

/// A single run goes through RunMis, or with a tracer through the
/// decomposed path. A sweep with `replay` re-runs its trials serially
/// through the decomposed path after the timed RunSweep call.
Pass RunPass(const Workload& w, std::uint64_t seed, bool replay, Tracer* tracer,
             Layers* layers) {
  Pass p;
  const Usage u0 = ReadUsage();
  const SpanScope root(tracer, "pass", -1);
  if (!w.sweep) {
    SingleRun run(w.n, w.avg_degree, w.knobs, seed);
    const std::int64_t t0 = NowNs();
    run.Generate(tracer, root.id());
    const std::int64_t t1 = NowNs();
    const RunFacts f = tracer != nullptr
                           ? run.RunDecomposed(tracer, root.id(), layers)
                           : run.RunMis();
    const std::int64_t t2 = NowNs();
    p.setup_s = static_cast<double>(t1 - t0) * 1e-9;
    p.run_s = static_cast<double>(t2 - t1) * 1e-9;
    p.wall_s = static_cast<double>(t2 - t0) * 1e-9;
    p.adj_entries = run.AdjEntries();
    (tracer != nullptr ? p.replay : p.facts).push_back(f);
  } else {
    p.sweep = RunSweepPass(w.spec, replay, tracer, root.id(), layers);
    p.wall_s = p.run_s = p.sweep.wall_s;
    p.setup_s = p.sweep.factory_s;
    p.replay = p.sweep.replay;
    p.adj_entries = p.sweep.replay_adj_entries;
  }
  const Usage u1 = ReadUsage();
  p.usage = {u1.minflt - u0.minflt, u1.majflt - u0.majflt,
             u1.invol_csw - u0.invol_csw};
  return p;
}

/// What every pass must reproduce, taken from the warm-up pass.
struct Reference {
  std::vector<RunFacts> trials;   ///< per trial, in RunSweep's order
  std::vector<PointFacts> points; ///< sweeps: RunSweep's points
};

std::uint64_t CountInvalid(const std::vector<RunFacts>& facts) {
  return static_cast<std::uint64_t>(
      std::count_if(facts.begin(), facts.end(), [](const RunFacts& f) { return !f.valid; }));
}

/// Output gate for one pass against the reference. A single run's RunMis
/// facts must equal the reference per trial; a sweep's points must equal the
/// reference points exactly; a replay (traced pass) must equal the reference
/// trials exactly. Returns the failed trial count.
std::uint64_t GatePass(const Pass& p, const Reference& ref, bool replayed,
                       bool sweep) {
  const std::uint64_t trials = ref.trials.size();
  std::uint64_t failed = 0;
  if (sweep) {
    if (p.sweep.points.size() != ref.points.size()) return trials;
    for (std::size_t i = 0; i < ref.points.size(); ++i) {
      const bool same = p.sweep.points[i] == ref.points[i];
      failed += same ? p.sweep.points[i].failures : ref.points[i].runs;
    }
  } else if (!replayed) {
    if (p.facts.size() != trials) return trials;
    for (std::size_t i = 0; i < trials; ++i) {
      failed += (p.facts[i] != ref.trials[i] || !p.facts[i].valid) ? 1 : 0;
    }
  }
  if (replayed) {
    if (p.replay != ref.trials) {
      std::fprintf(stderr, "gate: decomposed path differs from RunMis/RunSweep\n");
      failed += trials;
    }
    failed += CountInvalid(p.replay);
  }
  return std::min(failed, trials);
}

/// The warm-up pass as the reference: a single run's RunMis facts, or a
/// sweep's points together with its serial replay, whose trials must fold
/// back into exactly those points. Adds the failed trial count to `failed`.
Reference MakeReference(const Workload& w, const Pass& warm, std::uint64_t* failed) {
  Reference ref;
  if (!w.sweep) {
    ref.trials = warm.facts;
    *failed += CountInvalid(ref.trials);
    return ref;
  }
  ref.trials = warm.replay;
  ref.points = warm.sweep.points;
  if (AggregatePoints(ref.trials, w.spec.sizes, w.spec.seeds_per_size) != ref.points) {
    std::fprintf(stderr, "gate: serial replay differs from RunSweep's points\n");
    *failed += ref.trials.size();
  }
  for (const PointFacts& p : ref.points) *failed += p.failures;
  *failed = std::min<std::uint64_t>(*failed, ref.trials.size());
  return ref;
}

std::uint64_t Fingerprint(const std::string& name, const std::vector<RunFacts>& facts) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const char c : name) mix(static_cast<unsigned char>(c));
  for (const RunFacts& f : facts) {
    mix(f.n);
    mix(f.rounds);
    mix(f.energy_max);
    mix(f.mis_size);
    mix(f.node_rounds);
    mix(f.status_hash);
    mix(f.valid ? 1 : 0);
  }
  return h;
}

/// The workload's definition, so a changed definition starts a new record.
std::string Describe(const Workload& w) {
  std::ostringstream d;
  const Knobs& k = w.sweep ? w.spec.knobs : w.knobs;
  d << w.name << " n=" << w.n << " d=" << w.avg_degree << " sweep_d="
    << w.spec.avg_degree << " seeds=" << w.spec.seeds_per_size << " engine="
    << static_cast<int>(k.engine) << " shards=" << k.shards << " jobs=" << k.jobs
    << " compaction=" << k.compaction << " sizes=";
  for (const std::uint32_t n : w.spec.sizes) d << n << ",";
  return d.str();
}

/// Across runs: the first run of a (workload, seed) in a build directory
/// records the statistics' fingerprint; later runs of the same definition,
/// traced or not, must match it.
bool MatchesEarlierRuns(const std::string& out_dir, const std::string& key,
                        const Workload& w, const std::vector<RunFacts>& ref) {
  const std::string path = out_dir + "/expected-" + key + ".txt";
  char hex[40];
  std::snprintf(hex, sizeof hex, "%016" PRIx64 "-%016" PRIx64,
                Fingerprint(Describe(w), {}), Fingerprint(w.name, ref));
  std::ifstream in(path);
  std::string recorded;
  if (in >> recorded && recorded.substr(0, 16) == std::string(hex, 16)) {
    if (recorded == hex) return true;
    std::fprintf(stderr, "gate: statistics %s differ from an earlier run's %s (%s)\n",
                 hex, recorded.c_str(), path.c_str());
    return false;
  }
  std::ofstream(path) << hex << "\n";
  return true;
}

struct Conservation {
  bool ok = true;
  std::map<std::string, std::pair<double, double>> by_name;  ///< total, self (s)
  std::vector<double> pass_unattributed_s;                   ///< self of each pass
};

/// Self times per span name and the per-pass unattributed remainder, with the
/// conservation check: every child lies inside its parent, and every span's
/// self time plus the time its children cover equals its duration.
Conservation Conserve(const std::vector<Span>& spans) {
  Conservation c;
  const SelfTimes st = ComputeSelfTimes(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::int64_t dur = s.end_ns - s.start_ns;
    if (s.parent >= 0) {
      const Span& p = spans[static_cast<std::size_t>(s.parent)];
      if (s.start_ns < p.start_ns || s.end_ns > p.end_ns) c.ok = false;
    }
    if (st.self_ns[i] < 0 || st.self_ns[i] + st.covered_ns[i] != dur) c.ok = false;
    auto& [total, self] = c.by_name[s.name];
    total += static_cast<double>(dur) * 1e-9;
    self += static_cast<double>(st.self_ns[i]) * 1e-9;
    if (s.parent < 0) {
      c.pass_unattributed_s.push_back(static_cast<double>(st.self_ns[i]) * 1e-9);
    }
  }
  return c;
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void WriteTraceFile(const std::string& path, const Workload& w, std::uint64_t seed,
                    const std::vector<Span>& spans, const Conservation& c,
                    const Layers& layers) {
  std::ofstream out(path);
  out << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed
      << ", \"conserved\": " << (c.ok ? "true" : "false") << ",\n \"self_times\": {";
  const char* sep = "";
  for (const auto& [name, ts] : c.by_name) {
    out << sep << "\n  \"" << name << "\": {\"total_s\": " << JsonNumber(ts.first)
        << ", \"self_s\": " << JsonNumber(ts.second) << "}";
    sep = ",";
  }
  out << "},\n \"pass_unattributed_s\": [";
  sep = "";
  for (const double u : c.pass_unattributed_s) {
    out << sep << JsonNumber(u);
    sep = ", ";
  }
  out << "],\n \"layers\": {";
  sep = "";
  for (const auto& [name, v] : layers) {
    out << sep << "\n  \"" << name << "\": " << JsonNumber(v);
    sep = ",";
  }
  out << "},\n \"spans\": [";
  sep = "";
  for (const Span& s : spans) {
    out << sep << "\n  {\"name\": \"" << s.name << "\", \"pass\": " << s.pass
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << "}";
    sep = ",";
  }
  out << "]}\n";
}

void PrintResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::ostringstream line;
  line << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << attempted << ", \"failed\": " << failed
       << ", \"metrics\": {";
  const char* sep = "";
  for (const auto& [def, v] : metrics) {
    line << sep << "\"" << def.name << "\": {\"value\": " << JsonNumber(v)
         << ", \"unit\": \"" << def.unit << "\"}";
    sep = ", ";
  }
  line << "}}";
  std::printf("%s\n", line.str().c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool list = false;
  std::string out_dir;
};

std::optional<Args> ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--list") {
      a.list = true;
      continue;
    }
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), nullptr);
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") return std::nullopt;
      a.trace = v == "1";
    } else if (flag == "--out-dir") {
      a.out_dir = v;
    } else {
      return std::nullopt;
    }
  }
  if (!a.list && (a.workload.empty() || a.out_dir.empty() || !(a.seconds > 0))) {
    return std::nullopt;
  }
  return a;
}

void ListNames() {
  for (const char* w : kWorkloadNames) std::printf("workload %s\n", w);
  for (const MetricDef& m : kEndToEnd) std::printf("end_to_end %s %s\n", m.name, m.unit);
  for (const MetricDef& m : kPerLayer) std::printf("per_layer %s %s\n", m.name, m.unit);
}

int Main(int argc, char** argv) {
  const std::optional<Args> args = ParseArgs(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: emisbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "--out-dir DIR [--smoke] | --list\n");
    return 2;
  }
  if (args->list) {
    ListNames();
    return 0;
  }
  if (!kMeasurableBuild) {
    std::fprintf(stderr, "emisbench: refusing to report from an unoptimized or "
                         "sanitizer build\n");
    return 2;
  }
  const std::optional<Workload> found =
      FindWorkload(args->workload, args->seed, args->smoke);
  if (!found) {
    std::fprintf(stderr, "emisbench: unknown workload '%s'\n", args->workload.c_str());
    return 2;
  }
  const Workload& w = *found;
  const auto budget_ns = static_cast<std::int64_t>(args->seconds * 1e9);
  constexpr int kMinPasses = 3;

  // Warm-up: first-touch faults and allocator growth land here, untimed.
  // Its statistics (a sweep's through a serial replay after its RunSweep
  // call) are the reference every later pass must reproduce.
  const Pass warm = RunPass(w, args->seed, true, nullptr, nullptr);
  std::fprintf(stderr, "warm-up: wall %.4fs setup %.4fs run %.4fs\n", warm.wall_s,
               warm.setup_s, warm.run_s);
  std::uint64_t failed = 0;
  const Reference ref = MakeReference(w, warm, &failed);
  const std::uint64_t trials = ref.trials.size();
  std::uint64_t attempted = trials;
  const std::string key = w.name + "-" + std::to_string(args->seed) +
                          (args->smoke ? "-smoke" : "");
  if (!MatchesEarlierRuns(args->out_dir, key, w, ref.trials)) failed = trials;

  std::vector<Pass> plain;
  std::vector<Pass> traced;
  std::vector<Layers> traced_layers;
  Tracer tracer;
  const std::int64_t start = NowNs();
  std::uint32_t pass_id = 0;
  while (true) {
    const bool done_time = NowNs() - start >= budget_ns;
    if (!args->trace && done_time && plain.size() >= kMinPasses) break;
    if (args->trace && done_time && !plain.empty() && !traced.empty()) break;
    const bool do_trace = args->trace && traced.size() < plain.size();
    tracer.SetPass(++pass_id);
    Layers layers;
    Pass p = RunPass(w, args->seed, do_trace, do_trace ? &tracer : nullptr, &layers);
    attempted += trials;
    failed += GatePass(p, ref, do_trace, w.sweep);
    std::fprintf(stderr, "pass %u%s: wall %.4fs setup %.4fs run %.4fs\n", pass_id,
                 do_trace ? " (traced)" : "", p.wall_s, p.setup_s, p.run_s);
    if (do_trace) {
      traced.push_back(std::move(p));
      traced_layers.push_back(std::move(layers));
    } else {
      plain.push_back(std::move(p));
    }
  }

  std::vector<std::pair<MetricDef, double>> out;
  const auto median_of = [](const std::vector<Pass>& ps, double Pass::*field) {
    std::vector<double> v;
    for (const Pass& p : ps) v.push_back(p.*field);
    return Median(v);
  };
  bool conserved = true;
  if (!args->trace) {
    double node_rounds = 0, energy = 0, rounds = 0;
    for (const RunFacts& f : ref.trials) {
      node_rounds += static_cast<double>(f.node_rounds);
      energy += static_cast<double>(f.energy_max);
      rounds += static_cast<double>(f.rounds);
    }
    const auto count = static_cast<double>(trials);
    const double wall = median_of(plain, &Pass::wall_s);
    const double values[] = {
        wall,
        median_of(plain, &Pass::setup_s),
        node_rounds / median_of(plain, &Pass::run_s),
        count / wall,
        static_cast<double>(PeakRssBytes()) / (1024.0 * 1024.0),
        1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
        energy / count,
        rounds / count,
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      out.emplace_back(kEndToEnd[i], values[i]);
    }
  } else {
    const std::vector<Span> spans = tracer.Spans();
    const Conservation cons = Conserve(spans);
    conserved = cons.ok;
    if (!conserved) std::fprintf(stderr, "trace: self times do not conserve\n");
    // Per traced pass: span totals by name, then the median over passes.
    std::map<std::string, std::vector<double>> per_pass;
    std::map<std::uint32_t, std::map<std::string, double>> by_pass;
    for (const Span& s : spans) {
      by_pass[s.pass][s.name] += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
    for (const auto& [pass, totals] : by_pass) {
      for (const char* name : {"graph.gen", "sched.init", "sched.spawn",
                               "sched.run", "check"}) {
        const auto it = totals.find(name);
        per_pass[name].push_back(it != totals.end() ? it->second : 0.0);
      }
    }
    std::map<std::string, std::vector<double>> layer_values;
    for (const Layers& l : traced_layers) {
      for (const auto& [k, v] : l) layer_values[k].push_back(v);
    }
    Layers m;
    for (const auto& [k, v] : layer_values) m[k] = Median(v);
    const Pass& last = traced.back();
    m["graph.gen_s"] = Median(per_pass["graph.gen"]);
    m["graph.adj_entries"] = static_cast<double>(last.adj_entries);
    m["graph.gen_entries_per_s"] = m["graph.adj_entries"] / m["graph.gen_s"];
    m["sched.init_s"] = Median(per_pass["sched.init"]);
    m["sched.spawn_s"] = Median(per_pass["sched.spawn"]);
    m["sched.run_s"] = Median(per_pass["sched.run"]);
    m["check.s"] = Median(per_pass["check"]);
    m["chan.edges_per_node_round"] =
        m["sched.node_rounds"] > 0 ? m["chan.edges_scanned"] / m["sched.node_rounds"] : 0;
    if (w.sweep) {
      const SweepOutcome& s = last.sweep;
      m["sweep.busy_ratio"] = s.busy_s / (s.jobs * s.wall_s);
      for (std::size_t i = 0; i < w.spec.sizes.size(); ++i) {
        m["sweep.size_s." + std::to_string(w.spec.sizes[i])] = s.size_s[i];
      }
      m["parallel.barrier_waits"] = static_cast<double>(s.barrier_waits);
    }
    m["pass.cold_wall_s"] = warm.wall_s;
    std::vector<double> minflt, majflt, csw;
    for (const Pass& p : plain) {
      minflt.push_back(p.usage.minflt);
      majflt.push_back(p.usage.majflt);
      csw.push_back(p.usage.invol_csw);
    }
    m["proc.minflt"] = Median(minflt);
    m["proc.majflt"] = Median(majflt);
    m["proc.invol_csw"] = Median(csw);
    // Pass::wall_s of a traced sweep pass is its RunSweep call alone, so the
    // serial replay after it does not count as tracing overhead.
    m["trace.overhead_ratio"] =
        median_of(traced, &Pass::wall_s) / median_of(plain, &Pass::wall_s);
    for (const MetricDef& d : kPerLayer) out.emplace_back(d, m[d.name]);
    WriteTraceFile(args->out_dir + "/trace-" + key + ".json", w, args->seed, spans,
                   cons, m);
  }
  if (!conserved) failed = std::max<std::uint64_t>(failed, 1);
  PrintResult(failed == 0, attempted, failed, out);
  return failed == 0 ? 0 : 1;
}

}  // namespace
}  // namespace emisbench

int main(int argc, char** argv) { return emisbench::Main(argc, argv); }
