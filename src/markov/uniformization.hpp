// Uniformization: the one transient kernel of RelKit.
//
// For a generator Q and rate q >= max exit rate, P = I + Q/q is a DTMC and
//   pi(t) = sum_n w_n v_n,   L(t) = (1/q) sum_n (1 - F_n) v_n,
// where v_n = pi0 P^n, w_n is the Poisson(q t) pmf and F_n its CDF. One
// pass forms each iterate once, into one of two preallocated buffers, and
// accumulates both sums from it.
//
// Stationarity detection (Malhotra, Muppala & Trivedi 1994), made
// rigorous: a small ||v_{n+1} - v_n||_1 only *triggers* a check. On the
// first trigger, while the steps left in the window outnumber the steps
// taken, the pass asks its LimitLaw once for the law pi_inf the iterates
// converge to. Tested every 16th step, it stops at the first tested v_n
// with ||v_n - pi_inf||_1 <= eps:
// since pi_inf P = pi_inf and P is stochastic, ||v_m - pi_inf||_1 cannot
// grow for m >= n, so closing the rest of the window with pi_inf and
// scalar weight sums costs at most that distance. Without a limit law (or
// when it throws or is not a distribution) the pass runs the full window.
#pragma once

#include <cstddef>
#include <functional>
#include <vector>

#include "common/poisson_weights.hpp"
#include "common/sparse.hpp"
#include "robust/budget.hpp"
#include "robust/convergence_trace.hpp"

namespace relkit::markov {

/// The uniformized chain P = I + Q/q of a generator (or of a phase-type
/// sub-generator T, where P is substochastic).
struct Uniformized {
  SparseMatrix p;
  double q = 1.0;
};

/// Builds P for q = 1.02 * max_exit_rate (1 when the chain has no exits):
/// the margin keeps P's diagonal strictly positive (aperiodic P).
Uniformized uniformize(const SparseMatrix& generator, double max_exit_rate);

/// Supplies the law the iterates converge to, or an empty vector when the
/// chain has none. The stopping rule takes the law as exact, so it must
/// come from a direct solve (exact to rounding), never from an iterative
/// solver's tolerance. A pass calls it at most once; an exception it
/// throws is caught and the pass runs the full window.
using LimitLaw = std::function<std::vector<double>()>;

/// What one pass produced. `pi` and `cumulative` are the raw sums (no
/// renormalization: a substochastic P keeps its survival mass).
struct UniformizationResult {
  std::vector<double> pi;          ///< sum_n w_n v_n
  std::vector<double> cumulative;  ///< (1/q) sum_n (1 - F_n) v_n
  std::size_t steps = 0;       ///< iterates v_n the pass formed
  std::size_t window_end = 0;  ///< iterates a full pass forms
  double weight_mass = 0.0;    ///< sum of the window weights applied
  /// ||v_N - pi_inf||_1 at the early stop; 0 when the pass ran the window.
  double detection_error = 0.0;
  bool complete = true;  ///< false when the deadline stopped the pass
  /// Unprocessed Poisson mass per step (decays from 1 toward 0).
  robust::ConvergenceTrace trace;
};

/// One uniformization pass from pi0 over the window `pw`. `eps` is the
/// stationarity tolerance; `cumulative` asks for L(t) too. Without a pool
/// a step is the scatter v P, which skips the zero entries of v (a
/// concentrated iterate costs its support, not the state count). On a
/// pool of two or more workers it is the gather P^T v on a transposed
/// copy: each entry is summed by one chunk in the scatter's order, so
/// every worker count gives the same bits. `deadline` is polled every 16
/// steps; on expiry the pass returns the sums so far with complete =
/// false.
UniformizationResult uniformization_pass(const Uniformized& u,
                                         const std::vector<double>& pi0,
                                         const PoissonWeights& pw, double eps,
                                         bool cumulative,
                                         parallel::ThreadPool* pool,
                                         const LimitLaw& limit = nullptr,
                                         const robust::Deadline& deadline = {});

}  // namespace relkit::markov
