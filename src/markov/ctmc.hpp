// Continuous-time Markov chains (CTMC) and Markov reward models.
//
// The tutorial's state-space workhorse: dependencies that combinatorial
// models cannot express (shared repair, imperfect coverage, failover,
// rejuvenation) are modeled as a CTMC. Solvers:
//
//   * steady-state     — GTH elimination (dense, exact) below a size
//                        threshold, SOR sweeps on the sparse generator above
//   * transient        — pi(t) and cumulative time per state in [0, t]
//                        from one uniformization pass with stationarity
//                        detection
//   * absorbing chains — mean time to absorption (MTTF), per-state expected
//                        sojourns, absorption probabilities, reliability(t)
//   * reward models    — expected reward rate (instantaneous, steady-state),
//                        expected accumulated reward, interval availability
//   * sensitivity      — d(pi)/d(theta) for a parameterized generator
//
// States are created by name; transitions accumulate rates. The generator is
// assembled lazily on first solve.
#pragma once

#include <cstddef>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/linsolve.hpp"
#include "common/matrix.hpp"
#include "common/sparse.hpp"
#include "markov/uniformization.hpp"
#include "robust/budget.hpp"
#include "robust/report.hpp"
#include "robust/robust.hpp"

namespace relkit::markov {

using StateId = std::size_t;

/// Options controlling the stationary solver.
struct SteadyStateOptions {
  /// Use dense GTH when state count <= this, SOR otherwise.
  std::size_t dense_threshold = 512;
  SorOptions sor;
  /// Krylov tier knobs (tolerance, preconditioner, RCM) for the fallback
  /// chain's BiCGSTAB attempts and for `solver = kBicgstab`.
  BicgstabOptions bicgstab;
  /// NCD detection threshold + aggregation-disaggregation knobs.
  robust::AdOptions ncd;
  /// Force a single solver (verified) instead of the fallback chain.
  /// kAuto consults the thread/process ambient choice (CLI --solver,
  /// relkit_serve per-request "solver"). The *effective* choice is part of
  /// the solution-cache key.
  robust::SolverChoice solver = robust::SolverChoice::kAuto;
  /// Dense GTH is allowed as a *last resort* up to this size even when the
  /// chain is above dense_threshold (O(n^3) beats no answer).
  std::size_t gth_fallback_threshold = 2048;
  /// Wall-clock / sweep budget for the whole solve (default unlimited).
  robust::Budget budget;
  /// Parallelism degree for the state-space kernels (SOR residual
  /// evaluation, power-iteration matvec, verification residual).
  /// 0 = parallel::default_jobs(); 1 = force the bit-identical sequential
  /// path. Never part of the solution-cache key (results are
  /// jobs-independent by the determinism contract).
  unsigned jobs = 0;
  /// Consult/populate the process-wide markov::SolutionCache. The cache can
  /// also be disabled globally (CLI --no-solver-cache).
  bool use_cache = true;
};

/// Result of analyzing a CTMC with absorbing states.
struct AbsorbingAnalysis {
  /// Expected total time spent in each transient state before absorption
  /// (0 for absorbing states).
  std::vector<double> expected_sojourn;
  /// Mean time to absorption from the given initial distribution.
  double mean_time_to_absorption = 0.0;
  /// Probability of eventually being absorbed into each absorbing state
  /// (0 for transient states).
  std::vector<double> absorption_probability;
};

/// pi(t) and L(t) from one uniformization pass.
struct TransientSolution {
  std::vector<double> pi;          ///< state distribution at t
  std::vector<double> cumulative;  ///< expected time in each state in [0, t]
};

/// A finite CTMC with named states.
class Ctmc {
 public:
  /// Adds a state; names must be unique and non-empty.
  StateId add_state(std::string name);
  /// Adds `count` anonymous states named "s<k>".
  StateId add_states(std::size_t count);

  /// Accumulates a transition rate from -> to (rate > 0, from != to).
  void add_transition(StateId from, StateId to, double rate);

  std::size_t state_count() const { return names_.size(); }
  const std::string& state_name(StateId s) const;
  /// Index of a state by name; throws InvalidArgument if unknown.
  StateId state_index(const std::string& name) const;

  /// Total exit rate of a state.
  double exit_rate(StateId s) const;
  /// True if the state has no outgoing transitions.
  bool is_absorbing(StateId s) const;

  /// Stationary distribution (requires an irreducible chain). Solves via
  /// the verified fallback chain (see src/robust/); diagnostics of the
  /// solve are written to `report` when non-null and always recorded as
  /// robust::last_report().
  std::vector<double> steady_state(const SteadyStateOptions& opts = {},
                                   robust::SolveReport* report = nullptr)
      const;

  /// pi(t) and L(t) from initial distribution pi0 by one uniformization
  /// pass (markov/uniformization.hpp). eps is the Poisson truncation mass
  /// and the stationarity tolerance: the pass stops once its iterate is
  /// within eps (L1) of the chain's limit law, when a direct solve over at
  /// most SteadyStateOptions::dense_threshold unknowns gives one (GTH for
  /// an irreducible chain, dense LU when every recurrent state is
  /// absorbing); otherwise it runs the full window. `jobs` parallelizes
  /// the per-step product (0 = default_jobs(), 1 = sequential; every value
  /// gives the same bits). The report's error_bound bounds the L1 error
  /// of pi(t).
  TransientSolution transient_and_cumulative(const std::vector<double>& pi0,
                                             double t, double eps = 1e-12,
                                             unsigned jobs = 0) const;

  /// State distribution at time t: transient_and_cumulative().pi, from a
  /// pass that skips the L(t) sums. Memoized in the SolutionCache.
  std::vector<double> transient(const std::vector<double>& pi0, double t,
                                double eps = 1e-12, unsigned jobs = 0) const;

  /// Expected total time spent in each state during [0, t]:
  /// transient_and_cumulative().cumulative. The report's error_bound is
  /// t times that of pi(t).
  std::vector<double> cumulative_time(const std::vector<double>& pi0,
                                      double t, double eps = 1e-12,
                                      unsigned jobs = 0) const;

  /// Absorbing-chain analysis from initial distribution pi0. Throws
  /// ModelError if the chain has no absorbing state reachable or if a
  /// transient state cannot reach absorption.
  AbsorbingAnalysis absorbing_analysis(const std::vector<double>& pi0) const;

  /// P(not yet absorbed at time t): the reliability function when absorbing
  /// states model system failure.
  double survival(const std::vector<double>& pi0, double t,
                  double eps = 1e-12) const;

  /// Dense generator matrix (diagnostics, tests, small direct methods).
  Matrix dense_generator() const;

  /// Sparse generator (CSR) and its transpose; built on demand.
  SparseMatrix sparse_generator() const;

  /// Initial distribution concentrated on one state.
  std::vector<double> point_mass(StateId s) const;

 private:
  struct Transition {
    StateId from, to;
    double rate;
  };

  void check_distribution(const std::vector<double>& pi0) const;
  /// The uniformized chain P = I + Q/q the transient solvers step.
  Uniformized uniformized() const;
  /// The law pi0 P^n converges to, from a direct solve: GTH (forced,
  /// bypassing the SolutionCache) for an irreducible chain; the absorption
  /// probabilities from pi0 (dense LU) when every recurrent state is
  /// absorbing. Otherwise empty. The caller keeps the unknowns (the
  /// non-absorbing states) within SteadyStateOptions::dense_threshold.
  /// Throws what those solvers throw, e.g. ModelError when pi0 puts mass
  /// on an absorbing state.
  std::vector<double> limit_law(const std::vector<double>& pi0,
                                unsigned jobs) const;
  enum class Want { kPi, kCumulative, kBoth };
  /// The shared body of the transient solvers: pi(t), and L(t) unless
  /// `want` is kPi. For kCumulative the report is L(t)'s and a deadline
  /// stop's ConvergenceError carries L(t) so far; otherwise pi(t)'s.
  TransientSolution uniformized_solve(const std::vector<double>& pi0,
                                      double t, double eps, unsigned jobs,
                                      Want want) const;

  std::vector<std::string> names_;
  std::map<std::string, StateId> index_;
  std::vector<Transition> transitions_;
  std::vector<double> exit_rates_;
};

/// Expected instantaneous reward rate at time t: sum_s pi_s(t) r_s.
double reward_rate_at(const Ctmc& chain, const std::vector<double>& rewards,
                      const std::vector<double>& pi0, double t);

/// Steady-state expected reward rate: sum_s pi_s r_s.
double reward_rate_steady(const Ctmc& chain,
                          const std::vector<double>& rewards,
                          const SteadyStateOptions& opts = {});

/// Expected reward accumulated over [0, t]: sum_s L_s(t) r_s.
double accumulated_reward(const Ctmc& chain,
                          const std::vector<double>& rewards,
                          const std::vector<double>& pi0, double t);

/// Interval availability over [0, t] when rewards are the up-state
/// indicator: accumulated_reward / t.
double interval_availability(const Ctmc& chain,
                             const std::vector<double>& up_indicator,
                             const std::vector<double>& pi0, double t);

/// Derivative of the stationary distribution with respect to a scalar
/// parameter theta, given dQ/dtheta as a dense matrix (rows must sum to 0).
/// Solves (d pi) Q = -pi (dQ/dtheta) with sum(d pi) = 0. Dense; intended for
/// chains of up to a few thousand states.
std::vector<double> steady_state_sensitivity(const Ctmc& chain,
                                             const Matrix& dq);

/// Derivative of the mean time to absorption with respect to a scalar
/// parameter theta, given dQ/dtheta dense (rows over transient states must
/// sum to <= 0 consistently with Q's structure; absorbing rows ignored).
/// From tau Q_TT = -pi0_T: d(MTTA) = sum(d tau), d tau Q_TT = -tau dQ_TT.
double mtta_sensitivity(const Ctmc& chain, const Matrix& dq,
                        const std::vector<double>& pi0);

/// Derivative of the transient distribution pi(t) with respect to a scalar
/// parameter theta, given dQ/dtheta dense (rows summing to 0). Integrates
/// the forward sensitivity ODE s' = s Q + pi dQ jointly with pi' = pi Q by
/// a fixed-step RK4 scheme (steps chosen from the uniformization rate).
/// Intended for the moderate-size chains used in design studies.
std::vector<double> transient_sensitivity(const Ctmc& chain,
                                          const Matrix& dq,
                                          const std::vector<double>& pi0,
                                          double t);

/// Closed-form stationary distribution of a birth-death chain with birth
/// rates lambda[i] (i -> i+1) and death rates mu[i] (i+1 -> i). Used as an
/// oracle in tests and for M/M/1/K-style availability models.
std::vector<double> birth_death_steady_state(const std::vector<double>& birth,
                                             const std::vector<double>& death);

}  // namespace relkit::markov
