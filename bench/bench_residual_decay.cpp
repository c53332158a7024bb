// E7 — residual-graph decay per Luby phase (Lemma 5 and Lemma 20).
//
// CD (Lemma 5):  E[|E_i|] <= |E_{i-1}| / 2, residual = undecided nodes.
// no-CD (Lemma 20): E[|E_i|] <= (63/64) |E_{i-1}|, residual = nodes with
// status != out-MIS (MIS nodes stay in the residual graph by Definition 18).
//
// We run the schedulers phase by phase (RunUntil at phase boundaries),
// snapshot statuses, and report the measured per-phase shrink factors. The
// residual edge count is read from node status alone, as the lemmas define
// it; channel scans always read the static CSR, so the decay is a property
// of the algorithm, not of the simulator's cost.
//
// A small timed CD sweep is recorded into the JSON artifact as well
// (EMIS_BENCH_JSON), so CI's BENCH_*.json series tracks its wall clock.
#include "bench_common.hpp"

#include "core/mis_cd.hpp"
#include "core/mis_nocd.hpp"
#include "core/runner.hpp"
#include "radio/scheduler.hpp"

namespace emis {
namespace {

std::uint64_t ResidualEdges(const Graph& g, const std::vector<MisStatus>& status,
                            bool exclude_in_mis) {
  std::uint64_t edges = 0;
  for (const Edge& e : g.EdgeList()) {
    const bool u_in = exclude_in_mis ? status[e.u] == MisStatus::kUndecided
                                     : status[e.u] != MisStatus::kOutMis;
    const bool v_in = exclude_in_mis ? status[e.v] == MisStatus::kUndecided
                                     : status[e.v] != MisStatus::kOutMis;
    edges += (u_in && v_in) ? 1 : 0;
  }
  return edges;
}

/// Runs one CD run phase-by-phase; returns the per-phase edge ratios.
std::vector<double> CdDecay(const Graph& g, std::uint64_t seed) {
  const CdParams params = CdParams::Practical(g.NumNodes());
  std::vector<MisStatus> status(g.NumNodes(), MisStatus::kUndecided);
  Scheduler sched(g, {.model = ChannelModel::kCd}, seed);
  sched.Spawn(MisCdProtocol(params, &status));
  std::vector<double> ratios;
  std::uint64_t prev = g.NumEdges();
  for (std::uint32_t phase = 1; phase <= params.luby_phases && prev > 0; ++phase) {
    sched.RunUntil(static_cast<Round>(phase) * params.PhaseRounds());
    const std::uint64_t cur = ResidualEdges(g, status, /*exclude_in_mis=*/true);
    ratios.push_back(static_cast<double>(cur) / static_cast<double>(prev));
    prev = cur;
  }
  return ratios;
}

std::vector<double> NoCdDecay(const Graph& g, std::uint64_t seed) {
  const NoCdParams params =
      NoCdParams::Practical(g.NumNodes(), std::max(1u, g.MaxDegree()));
  const NoCdSchedule sched_info = NoCdSchedule::Of(params);
  std::vector<MisStatus> status(g.NumNodes(), MisStatus::kUndecided);
  Scheduler sched(g, {.model = ChannelModel::kNoCd}, seed);
  sched.Spawn(MisNoCdProtocol(params, &status));
  std::vector<double> ratios;
  std::uint64_t prev = g.NumEdges();
  for (std::uint32_t phase = 1; phase <= params.luby_phases && prev > 0; ++phase) {
    sched.RunUntil(static_cast<Round>(phase) * sched_info.phase);
    const std::uint64_t cur = ResidualEdges(g, status, /*exclude_in_mis=*/false);
    ratios.push_back(static_cast<double>(cur) / static_cast<double>(prev));
    prev = cur;
  }
  return ratios;
}

void Report(const std::string& title, const std::vector<Summary>& by_phase,
            double bound, const std::string& bound_name) {
  Table table({"phase", "mean |E_i|/|E_{i-1}|", "max", "samples"});
  for (std::size_t i = 0; i < by_phase.size(); ++i) {
    if (by_phase[i].count == 0) continue;
    table.AddRow({std::to_string(i + 1), Fmt(by_phase[i].mean, 3),
                  Fmt(by_phase[i].max, 3), std::to_string(by_phase[i].count)});
  }
  std::printf("%s", table.Render(title).c_str());
  // The lemma bounds the expectation; verify the aggregate mean of phase-1
  // (all samples present, no survivor bias) against the bound with slack.
  bench::Verdict(!by_phase.empty() && by_phase[0].count > 0 &&
                     by_phase[0].mean <= bound,
                 title + ": mean first-phase shrink <= " + bound_name + " (" +
                     Fmt(by_phase.empty() ? 1.0 : by_phase[0].mean, 3) + ")");
  std::printf("\n");
}

void RecordTrajectory() {
  SweepConfig cfg;
  cfg.algorithm = MisAlgorithm::kCd;
  cfg.factory = families::SparseErdosRenyi(32.0);
  cfg.sizes = {1024, 4096};
  cfg.seeds_per_size = 3;
  const bench::TimedSweep sweep = bench::RunTimedSweep(cfg);
  bench::RecordSweep("cd / G(n, 32/n) timed sweep", sweep);
  bench::Verdict(bench::TotalFailures(sweep.points) == 0,
                 "trajectory sweep produced valid MIS outputs at every point");
}

}  // namespace
}  // namespace emis

int main() {
  using namespace emis;
  bench::Banner("E7  bench_residual_decay",
                "Lemma 5: CD residual edges halve per phase in expectation. "
                "Lemma 20: no-CD residual edges shrink by >= 1/64 per phase.");

  const std::uint32_t kSeeds = 10;
  for (const auto& [name, factory] :
       {std::pair<std::string, GraphFactory>{"G(n=512, 8/n)",
                                             families::SparseErdosRenyi(8.0)},
        {"cycle n=512", [](NodeId n, Rng&) { return gen::Cycle(n); }}}) {
    std::vector<Summary> cd_phases(64), nocd_phases(64);
    for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
      Rng rng(seed * 131 + 7);
      const Graph g = factory(512, rng);
      const auto cd = CdDecay(g, seed);
      for (std::size_t i = 0; i < cd.size() && i < cd_phases.size(); ++i) {
        cd_phases[i].Add(cd[i]);
      }
      const auto nocd = NoCdDecay(g, seed);
      for (std::size_t i = 0; i < nocd.size() && i < nocd_phases.size(); ++i) {
        nocd_phases[i].Add(nocd[i]);
      }
    }
    Report("CD / " + name, cd_phases, 0.5 + 0.08, "1/2 (+slack)");
    Report("no-CD / " + name, nocd_phases, 63.0 / 64.0, "63/64");
  }
  RecordTrajectory();
  bench::Footer();
  return 0;
}
