#include "adapter.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <optional>
#include <utility>

#include "core/flat_mis.hpp"
#include "core/mis_cd.hpp"
#include "core/runner.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "radio/graph_io.hpp"
#include "radio/scheduler.hpp"
#include "verify/experiment.hpp"
#include "verify/mis_checker.hpp"
#include "verify/parallel.hpp"
#include "verify/stats.hpp"

namespace emisbench {
namespace {

constexpr emis::MisAlgorithm kAlgorithm = emis::MisAlgorithm::kCd;
constexpr emis::ChannelResolution kResolution = emis::ChannelResolution::kAuto;
constexpr emis::ParamPreset kPreset = emis::ParamPreset::kPractical;

emis::ExecutionEngine ToLib(Engine e) {
  return e == Engine::kFlat ? emis::ExecutionEngine::kFlat
                            : emis::ExecutionEngine::kCoroutine;
}

emis::MisRunConfig MakeRunConfig(const Knobs& k, std::uint64_t seed) {
  emis::MisRunConfig c;
  c.algorithm = kAlgorithm;
  c.preset = kPreset;
  c.seed = seed;
  c.engine = ToLib(k.engine);
  c.shards = k.shards;
  c.resolution = kResolution;
  c.compaction = k.compaction;
  return c;
}

std::uint64_t HashStatus(const std::vector<emis::MisStatus>& status) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const emis::MisStatus s : status) {
    h ^= static_cast<std::uint64_t>(s);
    h *= 0x100000001b3ULL;
  }
  return h;
}

RunFacts Facts(const emis::RunStats& stats, const emis::EnergyMeter& energy,
               const std::vector<emis::MisStatus>& status, bool valid) {
  RunFacts f;
  f.n = static_cast<std::uint32_t>(status.size());
  f.rounds = stats.rounds_used;
  f.energy_max = energy.MaxAwake();
  f.mis_size = static_cast<std::uint64_t>(
      std::count(status.begin(), status.end(), emis::MisStatus::kInMis));
  f.node_rounds = stats.node_rounds;
  f.status_hash = HashStatus(status);
  f.valid = valid;
  return f;
}

/// Adds a registry snapshot: counters summed, gauges last-set, timers as
/// seconds. Scheduler timer names map to the benchmark's `_s` names.
void AddRegistry(const emis::obs::MetricsRegistry& reg, Layers* layers) {
  if (layers == nullptr) return;
  for (const auto& [name, c] : reg.Counters()) {
    (*layers)[name] += static_cast<double>(c.Value());
  }
  for (const auto& [name, g] : reg.Gauges()) (*layers)[name] = g.Value();
  static const std::map<std::string, std::string, std::less<>> kTimerNames = {
      {"sched.execute_round", "sched.execute_round_s"},
      {"sched.resume", "sched.resume_s"},
      {"sched.wake_heap", "sched.wake_s"}};
  for (const auto& [name, t] : reg.Timers()) {
    const auto it = kTimerNames.find(name);
    const std::string key = it != kTimerNames.end() ? it->second : name + "_s";
    (*layers)[key] += static_cast<double>(t.TotalNs()) * 1e-9;
  }
}

/// RunMis's body through the public pieces, one span per call.
RunFacts Decomposed(const emis::Graph& g, const emis::MisRunConfig& cfg,
                    Tracer* tracer, int parent, Layers* layers) {
  emis::obs::MetricsRegistry registry;
  std::vector<emis::MisStatus> status(g.NumNodes(), emis::MisStatus::kUndecided);
  std::optional<emis::Scheduler> sched;
  {
    const SpanScope span(tracer, "sched.init", parent);
    sched.emplace(g,
                  emis::SchedulerConfig{
                      .model = emis::ModelFor(cfg.algorithm),
                      .max_rounds = cfg.max_rounds,
                      .resolution = cfg.resolution,
                      .compaction = cfg.compaction,
                      .metrics = &registry,
                      .engine = cfg.engine,
                      .shards = cfg.shards},
                  cfg.seed);
  }
  {
    const SpanScope span(tracer, "sched.spawn", parent);
    const emis::CdParams p = emis::DeriveCdParams(g, cfg);
    if (cfg.engine == emis::ExecutionEngine::kFlat) {
      sched->SpawnFlat(emis::FlatMisCdProtocol(p, &status, g.NumNodes()));
    } else {
      sched->Spawn(emis::MisCdProtocol(p, &status));
    }
  }
  emis::RunStats stats;
  {
    const SpanScope span(tracer, "sched.run", parent);
    stats = sched->Run();
  }
  bool valid = false;
  {
    const SpanScope span(tracer, "check", parent);
    valid = emis::CheckMis(g, status).IsValidMis();
  }
  AddRegistry(registry, layers);
  if (layers != nullptr) {
    (*layers)["sched.node_rounds"] += static_cast<double>(stats.node_rounds);
  }
  return Facts(stats, sched->Energy(), status, valid);
}

}  // namespace

struct SingleRun::Impl {
  std::uint32_t n;
  double avg_degree;
  Knobs knobs;
  std::uint64_t seed;
  std::optional<emis::Graph> graph;
};

SingleRun::SingleRun(std::uint32_t n, double avg_degree, Knobs knobs,
                     std::uint64_t seed)
    : impl_(std::make_unique<Impl>(Impl{n, avg_degree, knobs, seed, {}})) {}

SingleRun::~SingleRun() = default;

void SingleRun::Generate(Tracer* tracer, int parent) {
  impl_->graph.reset();
  char spec[96];
  std::snprintf(spec, sizeof spec, "er:n=%u,p=%.17g", impl_->n,
                impl_->avg_degree / impl_->n);
  emis::Rng rng(impl_->seed ^ 0x9e3779b97f4a7c15ULL);
  const SpanScope span(tracer, "graph.gen", parent);
  impl_->graph.emplace(emis::GraphFromSpec(spec, rng));
}

std::uint64_t SingleRun::AdjEntries() const {
  return impl_->graph ? 2 * impl_->graph->NumEdges() : 0;
}

RunFacts SingleRun::RunMis() {
  const emis::MisRunResult r =
      emis::RunMis(*impl_->graph, MakeRunConfig(impl_->knobs, impl_->seed));
  return Facts(r.stats, r.energy, r.status, r.Valid());
}

RunFacts SingleRun::RunDecomposed(Tracer* tracer, int parent, Layers* layers) {
  return Decomposed(*impl_->graph, MakeRunConfig(impl_->knobs, impl_->seed),
                    tracer, parent, layers);
}

namespace {

/// A traced trial as RunSweep ran it: the topology stream before the factory
/// drew from it, and the final run config (which carries the trial seed).
struct RecordedTrial {
  emis::NodeId n;
  emis::Rng topo_rng;
  emis::MisRunConfig config;
};

// Hands the factory's input stream to the tweak hook that RunSweep calls next
// on the same worker thread for the same trial.
thread_local std::optional<std::pair<emis::NodeId, emis::Rng>> tl_factory_input;

SummaryFacts ToFacts(const emis::Summary& s) {
  return {.count = s.count, .mean = s.mean, .m2 = s.m2, .min = s.min, .max = s.max};
}

}  // namespace

std::vector<PointFacts> AggregatePoints(const std::vector<RunFacts>& trials,
                                        const std::vector<std::uint32_t>& sizes,
                                        std::uint32_t seeds_per_size) {
  std::vector<PointFacts> points;
  if (trials.size() != sizes.size() * seeds_per_size) return points;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    PointFacts p;
    p.n = sizes[i];
    emis::Summary energy, rounds, mis_size;
    for (std::size_t s = 0; s < seeds_per_size; ++s) {
      const RunFacts& f = trials[i * seeds_per_size + s];
      ++p.runs;
      p.failures += f.valid ? 0 : 1;
      energy.Add(static_cast<double>(f.energy_max));
      rounds.Add(static_cast<double>(f.rounds));
      mis_size.Add(static_cast<double>(f.mis_size));
    }
    p.max_energy = ToFacts(energy);
    p.rounds = ToFacts(rounds);
    p.mis_size = ToFacts(mis_size);
    points.push_back(p);
  }
  return points;
}

SweepOutcome RunSweepPass(const SweepSpec& spec, bool replay, Tracer* tracer,
                          int parent, Layers* layers) {
  SweepOutcome out;
  const emis::GraphFactory real = emis::families::SparseErdosRenyi(spec.avg_degree);
  std::atomic<std::int64_t> factory_ns{0};
  std::mutex recorded_mu;
  std::vector<RecordedTrial> recorded;
  int sweep_span = -1;

  emis::SweepConfig cfg;
  cfg.algorithm = kAlgorithm;
  cfg.preset = kPreset;
  cfg.sizes.assign(spec.sizes.begin(), spec.sizes.end());
  cfg.seeds_per_size = spec.seeds_per_size;
  cfg.seed_base = spec.seed_base;
  cfg.resolution = kResolution;
  cfg.compaction = spec.knobs.compaction;
  cfg.engine = ToLib(spec.knobs.engine);
  cfg.shards = spec.knobs.shards;
  cfg.factory = [&](emis::NodeId n, emis::Rng& rng) {
    if (replay) tl_factory_input.emplace(n, rng);
    const std::int64_t begin = NowNs();
    const SpanScope span(tracer, "sweep.factory", sweep_span);
    emis::Graph g = real(n, rng);
    factory_ns.fetch_add(NowNs() - begin, std::memory_order_relaxed);
    return g;
  };
  if (replay) {
    cfg.tweak = [&](emis::MisRunConfig& c, const emis::Graph&) {
      const std::lock_guard<std::mutex> lock(recorded_mu);
      recorded.push_back({tl_factory_input->first, tl_factory_input->second, c});
    };
  }

  emis::SweepRunInfo info;
  std::vector<emis::SweepPoint> points;
  {
    const SpanScope span(tracer, "sweep.run", parent);
    sweep_span = span.id();
    const std::uint64_t waits_before = emis::par::BarrierWaits();
    const std::int64_t begin = NowNs();
    points = emis::RunSweep(cfg, spec.knobs.jobs, &info);
    out.wall_s = static_cast<double>(NowNs() - begin) * 1e-9;
    out.barrier_waits = emis::par::BarrierWaits() - waits_before;
  }
  for (const emis::SweepPoint& p : points) {
    out.points.push_back({.n = p.n,
                          .runs = p.runs,
                          .failures = p.failures,
                          .max_energy = ToFacts(p.max_energy),
                          .rounds = ToFacts(p.rounds),
                          .mis_size = ToFacts(p.mis_size)});
  }
  out.factory_s = static_cast<double>(factory_ns.load()) * 1e-9;
  out.size_s = info.point_wall_seconds;
  for (const double s : info.point_wall_seconds) out.busy_s += s;
  out.jobs = info.jobs;

  if (replay) {
    // RunSweep's trial order: sizes as given, seeds ascending within a size.
    const auto rank = [&spec](const RecordedTrial& t) {
      const auto at = std::find(spec.sizes.begin(), spec.sizes.end(), t.n);
      return std::pair(at - spec.sizes.begin(), t.config.seed);
    };
    std::sort(recorded.begin(), recorded.end(),
              [&rank](const RecordedTrial& a, const RecordedTrial& b) {
                return rank(a) < rank(b);
              });
    const SpanScope span(tracer, "replay", parent);
    for (RecordedTrial& t : recorded) {
      std::optional<emis::Graph> g;
      {
        const SpanScope gen(tracer, "graph.gen", span.id());
        g.emplace(real(t.n, t.topo_rng));
      }
      out.replay_adj_entries += 2 * g->NumEdges();
      out.replay.push_back(Decomposed(*g, t.config, tracer, span.id(), layers));
    }
  }
  return out;
}

std::uint64_t PeakRssBytes() { return emis::obs::PeakRssBytes(); }

}  // namespace emisbench
