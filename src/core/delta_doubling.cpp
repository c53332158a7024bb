#include "core/delta_doubling.hpp"

#include "core/backoff.hpp"
#include "core/mis_nocd.hpp"

namespace emis {
namespace {

NoCdParams EpochParams(const DeltaDoublingParams& p, std::uint32_t guess) {
  return p.theory_constants ? NoCdParams::Theory(p.n, guess)
                            : NoCdParams::Practical(p.n, guess);
}

Round VerifyRounds(const DeltaDoublingParams& p, std::uint32_t guess) {
  // verify_reps one-shot backoffs, each one window wide.
  return static_cast<Round>(p.verify_reps) * BackoffRounds(1, guess);
}

}  // namespace

std::vector<std::uint32_t> DeltaDoublingParams::Guesses() const {
  EMIS_REQUIRE(n >= 1, "need a size bound");
  std::vector<std::uint32_t> guesses;
  // 2^(2^i): 2, 4, 16, 256, 65536, ... capped at n.
  for (std::uint64_t exponent = 1;; exponent *= 2) {
    const std::uint64_t guess =
        exponent >= 63 ? n : std::min<std::uint64_t>(n, 1ULL << exponent);
    guesses.push_back(static_cast<std::uint32_t>(guess));
    if (guess >= n) break;
  }
  return guesses;
}

Round DeltaDoublingTotalRounds(const DeltaDoublingParams& params) {
  Round total = 0;
  for (std::uint32_t guess : params.Guesses()) {
    const NoCdParams epoch = EpochParams(params, guess);
    total += VerifyRounds(params, guess);
    total += static_cast<Round>(epoch.luby_phases) * NoCdSchedule::Of(epoch).phase;
  }
  return total;
}

proc::Task<void> DeltaDoublingMisNode(NodeApi api, DeltaDoublingParams params,
                                      std::vector<MisStatus>* out) {
  MisStatus& status = (*out)[api.Id()];
  status = MisStatus::kUndecided;
  bool in_mis = false;

  Round epoch_start = 0;
  const std::vector<std::uint32_t> guesses = params.Guesses();
  for (std::uint32_t guess : guesses) {
    // Spans the verification window; the nested epoch's "luby-phase"
    // annotations take over from there.
    api.Phase("delta-epoch", guess);
    // --- 1. Verification window -----------------------------------------
    // Only in-MIS nodes are awake; each iteration they either announce or
    // listen (fair coin). Hearing anything here means an MIS neighbor:
    // demote. A demoted node stops verifying (it no longer transmits, so it
    // cannot cause further demotions this window) and sleeps to the end.
    const Round verify_end = epoch_start + VerifyRounds(params, guess);
    if (in_mis) {
      for (std::uint32_t it = 0; it < params.verify_reps && in_mis; ++it) {
        if (api.Rand().Bit()) {
          co_await SndEBackoff(api, 1, guess);
        } else {
          const bool heard = co_await RecEBackoff(api, 1, guess, guess);
          if (heard) {
            in_mis = false;  // independence violation: retry from scratch
            status = MisStatus::kUndecided;
          }
        }
      }
    }
    co_await api.SleepUntil(verify_end);

    // --- 2. Algorithm 2 epoch with Δ = guess -----------------------------
    // Every non-MIS node re-enters as undecided: its dominator may just
    // have been demoted, and re-learning domination from a standing MIS
    // neighbor is cheap (a shallow/deep check away).
    if (!in_mis) status = MisStatus::kUndecided;
    const NoCdParams epoch = EpochParams(params, guess);
    const Round epoch_rounds =
        static_cast<Round>(epoch.luby_phases) * NoCdSchedule::Of(epoch).phase;
    co_await MisNoCdEpoch(api, epoch, verify_end, &in_mis, &status);
    epoch_start = verify_end + epoch_rounds;
    co_await api.SleepUntil(epoch_start);
  }
  // Only now is the decision terminal: earlier epochs may demote an MIS node
  // during verification and send everyone back to undecided, so no node may
  // retire before the last guess completes.
  api.Retire();
}

ProtocolFactory DeltaDoublingMisProtocol(DeltaDoublingParams params,
                                         std::vector<MisStatus>* out) {
  EMIS_REQUIRE(out != nullptr, "output vector required");
  return [params, out](NodeApi api) { return DeltaDoublingMisNode(api, params, out); };
}

}  // namespace emis
