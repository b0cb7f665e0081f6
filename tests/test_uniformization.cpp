// Tests for the uniformization kernel: the stationarity-detection stopping
// rule against the full pass (the kernel with no limit law), the limit-law
// cases, worker-count determinism, the deadline stop of both transient
// solvers, and the Poisson tail bound behind the reported error_bound.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/poisson_weights.hpp"
#include "markov/ctmc.hpp"
#include "markov/solution_cache.hpp"
#include "markov/uniformization.hpp"
#include "robust/budget.hpp"
#include "robust/fault_injection.hpp"
#include "robust/report.hpp"
#include "robust/robust.hpp"

namespace relkit::markov {
namespace {

class CacheOffGuard {
 public:
  CacheOffGuard() {
    SolutionCache::instance().clear();
    SolutionCache::instance().set_enabled(false);
  }
  ~CacheOffGuard() {
    SolutionCache::instance().set_enabled(true);
    SolutionCache::instance().clear();
  }
};

double l1(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::abs(a[i] - b[i]);
  return d;
}

/// The uniformized chain the transient solvers step.
Uniformized uniformized(const Ctmc& c) {
  double qmax = 0.0;
  for (StateId s = 0; s < c.state_count(); ++s) {
    qmax = std::max(qmax, c.exit_rate(s));
  }
  return uniformize(c.sparse_generator(), qmax);
}

/// Two independent pools of n1 and n2 units, one repairer each; state
/// (i, j) = failed units per pool.
Ctmc pool_pair(int n1, int n2, double lambda1, double lambda2, double mu1,
               double mu2) {
  Ctmc c;
  c.add_states(static_cast<std::size_t>((n1 + 1) * (n2 + 1)));
  const auto id = [&](int i, int j) {
    return static_cast<StateId>(i * (n2 + 1) + j);
  };
  for (int i = 0; i <= n1; ++i) {
    for (int j = 0; j <= n2; ++j) {
      if (i < n1) c.add_transition(id(i, j), id(i + 1, j), (n1 - i) * lambda1);
      if (i > 0) c.add_transition(id(i, j), id(i - 1, j), mu1);
      if (j < n2) c.add_transition(id(i, j), id(i, j + 1), (n2 - j) * lambda2);
      if (j > 0) c.add_transition(id(i, j), id(i, j - 1), mu2);
    }
  }
  return c;
}

/// The slow {4, 79} pool pair, with the horizon that puts q*t at 10^4.
struct SlowPair {
  Ctmc chain = pool_pair(4, 79, 0.006, 0.019, 0.55, 1.4);
  double t = 1e4 / uniformized(chain).q;
};

/// The full pass: the kernel with no limit law.
UniformizationResult full_pass(const Ctmc& c, const std::vector<double>& pi0,
                               double t, double eps = 1e-12) {
  const Uniformized u = uniformized(c);
  return uniformization_pass(u, pi0, poisson_weights(u.q * t, eps), eps,
                             true, nullptr);
}

/// The rejuvenation study's subordinated chain (examples/rejuvenation.cpp):
/// every recurrent state is absorbing.
Ctmc rejuvenation_chain() {
  Ctmc sub;
  const auto robust = sub.add_state("robust");
  const auto fragile = sub.add_state("fragile");
  const auto crashed = sub.add_state("crashed");
  const auto rejuving = sub.add_state("rejuving");
  const auto rejuv_ok = sub.add_state("rejuv_ok");
  const auto fixing = sub.add_state("fixing");
  const auto fixed = sub.add_state("fixed");
  sub.add_transition(robust, fragile, 1.0 / 500.0);
  sub.add_transition(fragile, crashed, 1.0 / 250.0);
  sub.add_transition(rejuving, rejuv_ok, 10.0);
  sub.add_transition(fixing, fixed, 1.0 / 2.77);
  return sub;
}

/// 0 -> {1, 2} and 0 -> {3, 4}: two closed classes of two states.
Ctmc two_closed_classes() {
  Ctmc c;
  c.add_states(5);
  c.add_transition(0, 1, 0.7);
  c.add_transition(0, 3, 0.3);
  c.add_transition(1, 2, 2.0);
  c.add_transition(2, 1, 1.0);
  c.add_transition(3, 4, 0.5);
  c.add_transition(4, 3, 1.5);
  return c;
}

/// transient_and_cumulative ran the whole window and returned the full
/// pass's bits (after the same verification).
void expect_full_pass(const Ctmc& c, const std::vector<double>& pi0,
                      double t) {
  const TransientSolution sol = c.transient_and_cumulative(pi0, t);
  const robust::SolveReport report = robust::last_report();

  UniformizationResult full = full_pass(c, pi0, t);
  EXPECT_EQ(report.iterations, full.window_end);
  robust::SolveReport scratch;
  robust::repair_distribution(full.pi, scratch, "reference");
  for (std::size_t i = 0; i < c.state_count(); ++i) {
    ASSERT_EQ(sol.pi[i], full.pi[i]) << "state " << i;
    ASSERT_EQ(sol.cumulative[i], full.cumulative[i]) << "state " << i;
  }
}

// (a) A slow-mixing pair (about 3200 of 10672 steps): the pass stops only
// once its iterate is verified against pi_inf, and the reported bound
// stays at or above the true error against the full pass.
TEST(StationarityDetection, SlowPoolPairStopsWithinItsBound) {
  const CacheOffGuard guard;
  const SlowPair p;
  const auto pi0 = p.chain.point_mass(0);
  const TransientSolution early =
      p.chain.transient_and_cumulative(pi0, p.t, 1e-12, 1);
  const robust::SolveReport report = robust::last_report();
  const UniformizationResult full = full_pass(p.chain, pi0, p.t);

  EXPECT_LT(report.iterations, full.window_end / 2) << "no early stop";
  EXPECT_EQ(full.steps, full.window_end);
  EXPECT_GT(report.error_bound, 0.0);
  EXPECT_LE(l1(early.pi, full.pi), report.error_bound);
  EXPECT_LE(l1(early.cumulative, full.cumulative), p.t * report.error_bound);
}

// (b) At t = 1e7 (q*t ~ 1e8) detection stops the pass after far fewer
// than q*t steps, and the answer agrees with the absorbing analysis.
TEST(StationarityDetection, RejuvenationChainAtTenMillionHours) {
  const CacheOffGuard guard;
  const Ctmc c = rejuvenation_chain();
  const auto pi0 = c.point_mass(0);
  const double t = 1e7;
  const TransientSolution sol = c.transient_and_cumulative(pi0, t);
  const robust::SolveReport report = robust::last_report();
  EXPECT_LT(static_cast<double>(report.iterations),
            1e-2 * uniformized(c).q * t);

  const AbsorbingAnalysis a = c.absorbing_analysis(pi0);
  EXPECT_LE(l1(sol.pi, a.absorption_probability), report.error_bound);
  // Absorbed after ~750 h: L(t) is the expected sojourn in each transient
  // state, and the rest of t in the absorbing state.
  std::vector<double> sojourn = a.expected_sojourn;
  for (StateId s = 0; s < c.state_count(); ++s) {
    if (c.is_absorbing(s)) {
      sojourn[s] =
          a.absorption_probability[s] * (t - a.mean_time_to_absorption);
    }
  }
  EXPECT_LE(l1(sol.cumulative, sojourn), t * report.error_bound);
}

// (c) Two closed classes: no limit law, so the pass runs the full window
// and returns the full pass's bits (after the same verification).
TEST(StationarityDetection, ReducibleChainRunsTheFullWindow) {
  const CacheOffGuard guard;
  const Ctmc c = two_closed_classes();
  expect_full_pass(c, c.point_mass(0), 400.0);
}

// (d) The stop step and every bit are the same at jobs = 1 and jobs = 4.
TEST(StationarityDetection, Jobs1AndJobs4AreBitIdentical) {
  const CacheOffGuard guard;
  const SlowPair p;
  const auto pi0 = p.chain.point_mass(0);
  const TransientSolution one =
      p.chain.transient_and_cumulative(pi0, p.t, 1e-12, 1);
  const std::size_t steps_one = robust::last_report().iterations;
  const TransientSolution four =
      p.chain.transient_and_cumulative(pi0, p.t, 1e-12, 4);
  const std::size_t steps_four = robust::last_report().iterations;
  EXPECT_EQ(steps_one, steps_four);
  for (std::size_t i = 0; i < pi0.size(); ++i) {
    ASSERT_EQ(one.pi[i], four.pi[i]) << "state " << i;
    ASSERT_EQ(one.cumulative[i], four.cumulative[i]) << "state " << i;
  }
}

// Above dense_threshold an irreducible chain gets no limit law: only a
// direct solve is exact enough to stop on. This pair mixes fast enough
// that the trigger fires early (the kernel asks a probe law once), yet
// the chain's pass runs the full window.
TEST(LimitLaw, IrreducibleChainAboveDenseThresholdRunsTheFullWindow) {
  const CacheOffGuard guard;
  const Ctmc c = pool_pair(4, 120, 0.01, 0.001, 1.0, 2.0);
  ASSERT_GT(c.state_count(), SteadyStateOptions{}.dense_threshold);
  const auto pi0 = c.point_mass(0);
  const Uniformized u = uniformized(c);
  const double t = 1e4 / u.q;
  int asked = 0;
  const UniformizationResult probe = uniformization_pass(
      u, pi0, poisson_weights(u.q * t, 1e-12), 1e-12, false, nullptr,
      [&asked] {
        ++asked;
        return std::vector<double>{};
      });
  ASSERT_EQ(asked, 1) << "the trigger never fired";
  EXPECT_EQ(probe.steps, probe.window_end);
  expect_full_pass(c, pi0, t);
}

// A limit-law solve that fails (GTH forced to fail; it does not fall back
// to an iterative method) or throws (initial mass on an absorbing state,
// outside absorbing_analysis) leaves the pass to run the full window.
TEST(LimitLaw, FailedOrThrowingSolveRunsTheFullWindow) {
  const CacheOffGuard guard;
  {
    relkit::testing::FaultInjectionScope scope;
    scope->fail_method("gth");
    const Ctmc c = pool_pair(4, 20, 0.01, 0.001, 1.0, 2.0);
    expect_full_pass(c, c.point_mass(0), 1e4 / uniformized(c).q);
  }
  const Ctmc rejuv = rejuvenation_chain();
  expect_full_pass(rejuv, rejuv.point_mass(2), 1e4);
}

// Both transient solvers poll the ambient deadline and hand back a
// partial of the right size.
TEST(UniformizationDeadline, BothSolversStopOnAnExpiredAmbientDeadline) {
  const CacheOffGuard guard;
  const SlowPair p;
  const auto pi0 = p.chain.point_mass(0);
  const robust::ScopedDeadline scope(robust::Deadline::after_seconds(-1.0));
  try {
    p.chain.cumulative_time(pi0, p.t);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_EQ(e.partial_result().size(), pi0.size());
    EXPECT_NE(std::string(e.what()).find("cumulative_time"),
              std::string::npos);
  }
  try {
    p.chain.transient(pi0, p.t);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_EQ(e.partial_result(), pi0);
  }
}

TEST(UniformizationReport, ErrorBoundIsPrinted) {
  const CacheOffGuard guard;
  const Ctmc c = rejuvenation_chain();
  c.transient(c.point_mass(0), 100.0);
  const robust::SolveReport report = robust::last_report();
  EXPECT_GT(report.error_bound, 0.0);
  EXPECT_LT(report.error_bound, 1e-10);
  EXPECT_NE(report.summary().find("error bound:"), std::string::npos);
}

// The Poisson tail bound holds against the tail summed in log space.
TEST(PoissonWeights, TailMassBoundsTheDiscardedMass) {
  for (const double lambda : {0.5, 7.0, 100.0, 1e4}) {
    const PoissonWeights pw = poisson_weights(lambda, 1e-12);
    const std::size_t right = pw.left + pw.weights.size();
    double outside = 0.0;
    for (std::size_t n = 0; n < right + 2000; ++n) {
      if (n >= pw.left && n < right) continue;
      const double x = static_cast<double>(n);
      outside += std::exp(x * std::log(lambda) - lambda - std::lgamma(x + 1));
    }
    EXPECT_GE(pw.tail_mass, outside * (1.0 - 1e-6)) << "lambda " << lambda;
    EXPECT_LT(pw.tail_mass, 1e-10) << "lambda " << lambda;
  }
}

}  // namespace
}  // namespace relkit::markov
