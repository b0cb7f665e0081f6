// Rare-event estimation engine — RESTART importance splitting and
// balanced-failure-biasing importance sampling over regenerative cycles.
//
// The tutorial's high-availability targets (five to nine nines, 10^9-hour
// MTTFs) are exactly where plain Monte Carlo goes blind: observing even one
// failure needs ~1/U replications. Both estimators here work on the
// embedded jump chain of a CTMC view of the model and measure regenerative
// cycles that start and end in the all-up regeneration state:
//
//   unavailability  U    = E[down time per cycle] / E[cycle length]
//   mean time to failure = E[Z] / gamma,  Z = time to min(failure, cycle
//                          end), gamma = P(failure before cycle end)
//
// Both are ratio estimators; CIs come from the delta method on a
// BivariateStats accumulator. Three methods (RareEventOptions::method):
//
//   * kNaive    — plain cycles. Baseline; blind below ~1/cycles.
//   * kRestart  — importance splitting: when a trajectory's importance
//                 (e.g. number of failed components) up-crosses a
//                 threshold it splits into `splits` branches. A branch's
//                 weight is splits^-(thresholds below its current
//                 importance): divided by `splits` at each up-crossing
//                 and restored at each down-crossing, which is what makes
//                 killing a non-original branch when it falls back below
//                 its birth threshold unbiased for any additive path
//                 functional (Villén-Altamirano). Thresholds at or below
//                 the regeneration importance are ignored.
//   * kImportanceSampling — balanced failure biasing: in states with both
//                 failure and repair transitions enabled, move probability
//                 mass `bias` onto the failure transitions (uniformly) in
//                 the embedded chain; holding times are untouched. Each
//                 jump multiplies the likelihood ratio by p_orig/p_biased;
//                 contributions are weighted by the running LR, which
//                 makes the estimator exactly unbiased. Biasing switches
//                 off after the first system failure of the cycle so the
//                 LR stays bounded.
//
// Determinism contract (docs/parallelism.md): cycle r draws from the r-th
// split() of the master seed's stream (parallel::seeded_reduce), RESTART
// branch streams are split from the parent branch's stream in spawn (DFS)
// order, and per-chunk accumulators merge in chunk-index order with chunk
// boundaries that depend only on the cycle count — so the estimate is
// bit-identical for EVERY jobs value, including jobs == 1.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "markov/ctmc.hpp"
#include "sim/simulator.hpp"

namespace relkit::sim {

/// One transition of the explicit jump process.
struct RareTransition {
  std::uint64_t target = 0;
  double rate = 0.0;
  /// True when the transition moves the system toward failure; these are
  /// the transitions balanced failure biasing inflates.
  bool is_failure = false;
};

/// Abstract explicit-state view of the model the rare-event engine walks.
/// States are opaque 64-bit ids so adapters can be lazy (the component
/// adapter uses a bitmask of down components and never enumerates 2^n).
class RareEventModel {
 public:
  virtual ~RareEventModel() = default;

  /// The regeneration state (must satisfy up()). Cycles start here and end
  /// on the first return.
  virtual std::uint64_t initial_state() const = 0;
  /// Fills `out` with the transitions leaving `s` (out is cleared first).
  virtual void transitions(std::uint64_t s,
                           std::vector<RareTransition>& out) const = 0;
  /// System-up predicate.
  virtual bool up(std::uint64_t s) const = 0;
  /// Importance function for RESTART: larger = closer to system failure.
  /// Both shipped adapters return integers (failed-component count /
  /// BFS distance toward the down set).
  virtual double importance(std::uint64_t s) const = 0;
  /// Default RESTART thresholds when RareEventOptions::levels is empty.
  /// Base implementation: none (RESTART degenerates to kNaive).
  virtual std::vector<double> auto_levels() const { return {}; }
};

/// Adapter: a markov::Ctmc plus an up-state predicate. Failure transitions
/// and the importance function are auto-derived from a BFS distance toward
/// the down set (a transition is "failure" iff it decreases the distance);
/// auto levels split once per distance step after the first. Throws
/// ModelError when no down state is reachable from the regeneration state.
class CtmcRareModel final : public RareEventModel {
 public:
  CtmcRareModel(const markov::Ctmc& chain,
                std::function<bool(markov::StateId)> up_state,
                markov::StateId regeneration = 0);

  std::uint64_t initial_state() const override { return regeneration_; }
  void transitions(std::uint64_t s,
                   std::vector<RareTransition>& out) const override;
  bool up(std::uint64_t s) const override;
  double importance(std::uint64_t s) const override;
  std::vector<double> auto_levels() const override;

  /// BFS jump distance from `s` to the nearest down state.
  std::size_t distance_to_failure(markov::StateId s) const;

 private:
  std::uint64_t regeneration_;
  std::vector<bool> up_;
  std::vector<std::vector<RareTransition>> trans_;
  std::vector<std::size_t> dist_;  ///< jump distance to the down set
};

/// Steady-state unavailability of an explicit rare-event model.
Estimate rare_unavailability(const RareEventModel& model, std::uint64_t seed,
                             const RareEventOptions& opts = {});

/// Mean time to first entry into a down state, starting from (and
/// regenerating at) the initial state. Throws robust::ConvergenceError if
/// no failure was observed within the cycle budget.
Estimate rare_mttf(const RareEventModel& model, std::uint64_t seed,
                   const RareEventOptions& opts = {});

}  // namespace relkit::sim
