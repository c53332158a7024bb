#include "core/mis_cd.hpp"

#include "core/contracts.hpp"

namespace emis {
namespace {

/// Tracks the energy cap of the lower-bound experiments (CdParams::energy_cap).
/// When capped, the node decides with the rule the Theorem 1 argument forces
/// on any low-energy algorithm: join iff it never heard anything.
struct Budget {
  std::uint64_t cap;       // 0 = unlimited
  std::uint64_t spent = 0;
  bool Exhausted() const noexcept { return cap != 0 && spent >= cap; }
  void Charge() noexcept { ++spent; }
};

/// Transmits one logical round (= `reps` physical rounds). Returns false if
/// the budget ran out before completing.
proc::Task<bool> TransmitLogical(NodeApi api, std::uint32_t reps, Budget* budget) {
  for (std::uint32_t r = 0; r < reps; ++r) {
    if (budget->Exhausted()) co_return false;
    budget->Charge();
    co_await api.Transmit(1);
  }
  co_return true;
}

/// Listens through one logical round, ORing receptions into *busy. Returns
/// false if the budget ran out before completing.
proc::Task<bool> ListenLogical(NodeApi api, std::uint32_t reps, Budget* budget,
                               bool* busy) {
  *busy = false;
  for (std::uint32_t r = 0; r < reps; ++r) {
    if (budget->Exhausted()) co_return false;
    budget->Charge();
    const Reception rec = co_await api.Listen();
    *busy = *busy || rec.Busy();
  }
  co_return true;
}

}  // namespace

proc::Task<void> MisCdNode(NodeApi api, CdParams params, std::vector<MisStatus>* out) {
  (*out)[api.Id()] = MisStatus::kUndecided;
  co_await MisCdEpoch(api, params, &(*out)[api.Id()]);
  // Terminal decision (or phases exhausted): report it so the scheduler
  // retires this node — arming the acting-after-retirement invariant and
  // counting it as decided. The composable epoch above must NOT retire —
  // callers like the coloring/backbone apps keep acting after.
  api.Retire();
}

proc::Task<void> MisCdEpoch(NodeApi api, CdParams params, MisStatus* out_status) {
  MisStatus& status = *out_status;
  status = MisStatus::kUndecided;
  Budget budget{params.energy_cap};
  bool heard_anything = false;

  auto capped_decision = [&] {
    status = heard_anything ? MisStatus::kOutMis : MisStatus::kInMis;
  };

  // Repetition coding (lossy-channel extension): each logical round spans
  // `reps` physical rounds; transmitters send every copy, listeners OR what
  // they hear across copies.
  const std::uint32_t reps = std::max(1u, params.repetitions);

  for (std::uint32_t phase = 0; phase < params.luby_phases; ++phase) {
    api.Phase("luby-phase", phase);
    bool lost = false;
    // Competition: β log n Bitty phases, rank bits drawn lazily.
    for (std::uint32_t j = 0; j < params.rank_bits; ++j) {
      if (budget.Exhausted()) {
        capped_decision();
        co_return;
      }
      if (api.Rand().Bit()) {
        if (!co_await TransmitLogical(api, reps, &budget)) {
          capped_decision();
          co_return;
        }
      } else {
        bool busy = false;
        if (!co_await ListenLogical(api, reps, &budget, &busy)) {
          capped_decision();
          co_return;
        }
        if (busy) {
          heard_anything = true;
          lost = true;
          const std::uint32_t remaining = params.rank_bits - j - 1;
          if (params.losers_keep_listening) {
            // Naive-Luby baseline: stay awake to the end of the competition.
            for (std::uint32_t j2 = 0; j2 < remaining; ++j2) {
              bool ignored = false;
              if (!co_await ListenLogical(api, reps, &budget, &ignored)) {
                capped_decision();
                co_return;
              }
            }
          } else {
            co_await api.SleepFor(static_cast<Round>(remaining) * reps);
          }
          break;
        }
      }
    }

    if (budget.Exhausted()) {
      capped_decision();
      co_return;
    }
    if (!lost) {
      // Winner: confirm inclusion so neighbors terminate out of the MIS.
      if (!co_await TransmitLogical(api, reps, &budget)) {
        capped_decision();
        co_return;
      }
      status = MisStatus::kInMis;
      co_return;
    }
    // Loser: final check — did a neighbor win this phase?
    bool winner_nearby = false;
    if (!co_await ListenLogical(api, reps, &budget, &winner_nearby)) {
      capped_decision();
      co_return;
    }
    if (winner_nearby) {
      heard_anything = true;
      status = MisStatus::kOutMis;
      co_return;
    }
  }
  // Phases exhausted while still undecided (probability 1/poly(n)).
}

ProtocolFactory MisCdProtocol(CdParams params, std::vector<MisStatus>* out) {
  EMIS_EXPECTS(out != nullptr, "output vector required");
  return [params, out](NodeApi api) { return MisCdNode(api, params, out); };
}

}  // namespace emis
