// Tests for the solver resilience layer (src/robust/): fault-injection
// driven fallback chains, budgets, post-solve verification, fixed-point
// safeguards, and simulator budget stops. Every fallback edge of
// robust_steady_state is exercised here, and no solver path may return
// NaN/Inf silently.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/linsolve.hpp"
#include "common/sparse.hpp"
#include "core/hierarchy.hpp"
#include "markov/ctmc.hpp"
#include "markov/solution_cache.hpp"
#include "robust/budget.hpp"
#include "robust/fault_injection.hpp"
#include "robust/report.hpp"
#include "robust/robust.hpp"
#include "sim/simulator.hpp"

namespace relkit {
namespace {

using relkit::testing::FaultInjectionScope;

/// Birth-death chain: i -> i+1 at `lambda`, i+1 -> i at `mu`.
markov::Ctmc birth_death_chain(std::size_t n, double lambda, double mu) {
  markov::Ctmc chain;
  chain.add_states(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    chain.add_transition(i, i + 1, lambda);
    chain.add_transition(i + 1, i, mu);
  }
  return chain;
}

std::vector<double> birth_death_oracle(std::size_t n, double lambda,
                                       double mu) {
  return markov::birth_death_steady_state(
      std::vector<double>(n - 1, lambda), std::vector<double>(n - 1, mu));
}

/// Two fast 2-state clusters coupled by ~1e-9 rates: irreducible but so
/// close to reducible that plain SOR cannot redistribute the inter-cluster
/// mass within a small sweep budget.
markov::Ctmc stiff_near_reducible_chain() {
  markov::Ctmc chain;
  chain.add_states(4);
  chain.add_transition(0, 1, 1.0);
  chain.add_transition(1, 0, 2.0);
  chain.add_transition(2, 3, 1.0);
  chain.add_transition(3, 2, 2.0);
  chain.add_transition(1, 2, 3e-9);
  chain.add_transition(2, 1, 1e-9);
  return chain;
}

bool has_fallback(const robust::SolveReport& report,
                  const std::string& edge) {
  for (const auto& f : report.fallbacks) {
    if (f == edge) return true;
  }
  return false;
}

// ---- fallback chain edges ---------------------------------------------------

TEST(FallbackChain, SorFallsBackToPower) {
  FaultInjectionScope scope;
  scope->fail_method("sor");
  scope->fail_method("bicgstab");  // both preconditioner attempts

  const std::size_t n = 12;
  const auto chain = birth_death_chain(n, 1.0, 2.0);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;        // no primary GTH
  opts.gth_fallback_threshold = 0;  // no last-resort GTH
  opts.sor.omega = 1.0;
  opts.sor.adaptive_omega = false;  // no omega-reset retry => direct edge
  robust::SolveReport report;
  const auto pi = chain.steady_state(opts, &report);

  EXPECT_EQ(report.method, "power");
  EXPECT_TRUE(report.converged);
  // The Krylov tier sits between SOR and power now; with bicgstab forced
  // to fail, the chain walks sor -> bicgstab -> bicgstab(jacobi) -> power.
  EXPECT_TRUE(has_fallback(report, "sor->bicgstab")) << report.summary();
  EXPECT_TRUE(has_fallback(report, "bicgstab(jacobi)->power"))
      << report.summary();
  const auto oracle = birth_death_oracle(n, 1.0, 2.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(pi[i], oracle[i], 1e-6);
  }
}

TEST(FallbackChain, OmegaResetRetrySucceeds) {
  FaultInjectionScope scope;
  scope->fail_method("sor", 1);  // only the first SOR attempt fails

  const std::size_t n = 12;
  const auto chain = birth_death_chain(n, 1.0, 2.0);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  opts.gth_fallback_threshold = 0;
  robust::SolveReport report;
  const auto pi = chain.steady_state(opts, &report);

  EXPECT_EQ(report.method, "sor(omega-reset)");
  EXPECT_TRUE(has_fallback(report, "sor->sor(omega-reset)"))
      << report.summary();
  const auto oracle = birth_death_oracle(n, 1.0, 2.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(pi[i], oracle[i], 1e-8);
  }
}

TEST(FallbackChain, PowerFallsBackToGth) {
  FaultInjectionScope scope;
  scope->fail_method("sor");
  scope->fail_method("bicgstab");
  scope->fail_method("power");

  const std::size_t n = 8;
  const auto chain = birth_death_chain(n, 1.0, 3.0);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;         // GTH not primary ...
  opts.gth_fallback_threshold = 64;  // ... but allowed as last resort
  robust::SolveReport report;
  const auto pi = chain.steady_state(opts, &report);

  EXPECT_EQ(report.method, "gth");
  EXPECT_TRUE(has_fallback(report, "power->gth")) << report.summary();
  const auto oracle = birth_death_oracle(n, 1.0, 3.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(pi[i], oracle[i], 1e-12);
  }
}

TEST(FallbackChain, AllMethodsExhaustedThrowsWithPartialAndReport) {
  FaultInjectionScope scope;
  scope->fail_method("sor");
  scope->fail_method("bicgstab");
  scope->fail_method("ad");
  scope->fail_method("power");
  scope->fail_method("gth");

  const std::size_t n = 8;
  const auto chain = birth_death_chain(n, 1.0, 2.0);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  opts.gth_fallback_threshold = 64;
  try {
    chain.steady_state(opts);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_EQ(e.partial_result().size(), n);
    EXPECT_FALSE(e.report().converged);
    EXPECT_GE(e.report().attempts.size(), 3u);
    EXPECT_NE(std::string(e.what()).find("all methods failed"),
              std::string::npos);
  }
}

TEST(FallbackChain, ClampedSorBudgetTriggersFallback) {
  FaultInjectionScope scope;
  scope->clamp_iterations("sor.max_iters", 2);  // starve SOR of sweeps

  const std::size_t n = 20;
  const auto chain = birth_death_chain(n, 1.0, 1.5);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  opts.gth_fallback_threshold = 64;
  robust::SolveReport report;
  const auto pi = chain.steady_state(opts, &report);

  EXPECT_NE(report.method, "sor");
  EXPECT_FALSE(report.fallbacks.empty()) << report.summary();
  const auto oracle = birth_death_oracle(n, 1.0, 1.5);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(pi[i], oracle[i], 1e-6);
  }
}

TEST(FallbackChain, SorNanInjectionFallsBackToFiniteResult) {
  FaultInjectionScope scope;
  // Corrupt SOR's normalization mass on its second visit: the iterate goes
  // non-finite mid-solve and the chain must recover elsewhere.
  scope->inject_nan("sor.sweep-total", 1);

  const std::size_t n = 12;
  const auto chain = birth_death_chain(n, 1.0, 2.0);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  opts.gth_fallback_threshold = 64;
  robust::SolveReport report;
  const auto pi = chain.steady_state(opts, &report);

  EXPECT_TRUE(report.converged);
  EXPECT_FALSE(report.fallbacks.empty()) << report.summary();
  for (const double x : pi) EXPECT_TRUE(std::isfinite(x));
  const auto oracle = birth_death_oracle(n, 1.0, 2.0);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(pi[i], oracle[i], 1e-6);
  }
}

// ---- regression: stiff near-reducible chain --------------------------------

TEST(FallbackChain, StiffNearReducibleRegression) {
  const auto chain = stiff_near_reducible_chain();

  // Forced SOR alone gives up: 50 Gauss-Seidel sweeps cannot move mass
  // across a 1e-9 coupling.
  markov::SteadyStateOptions raw;
  raw.solver = robust::SolverChoice::kSor;
  raw.dense_threshold = 0;
  raw.sor.max_iters = 50;
  EXPECT_THROW(chain.steady_state(raw), robust::ConvergenceError);

  // The fallback chain now detects the 1e-9 coupling as an NCD split and
  // lands on aggregation-disaggregation, matching dense GTH exactly —
  // the textbook case for Courtois decomposition.
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  opts.gth_fallback_threshold = 64;
  opts.sor.max_iters = 50;
  robust::SolveReport report;
  const auto pi = chain.steady_state(opts, &report);

  EXPECT_EQ(report.method, "ad");
  EXPECT_TRUE(has_fallback(report, "sor(omega-reset)->ad"))
      << report.summary();
  const auto exact = gth_steady_state(chain.dense_generator());
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(pi[i], exact[i], 1e-10);
  }
}

// ---- uniformization guards --------------------------------------------------

TEST(Uniformization, OverflowGuardRejectsHugePoissonMean) {
  FaultInjectionScope scope;
  scope->inject_value("uniformize.qt", 1e18);

  const auto chain = birth_death_chain(4, 1.0, 2.0);
  const auto pi0 = chain.point_mass(0);
  try {
    chain.transient(pi0, 1.0);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_NE(std::string(e.what()).find("q*t"), std::string::npos);
    EXPECT_EQ(e.partial_result(), pi0);  // best available: the initial state
    EXPECT_FALSE(e.report().warnings.empty());
  }
}

TEST(Uniformization, WeightDriftIsRenormalizedAndReported) {
  const auto chain = birth_death_chain(4, 1.0, 2.0);
  const auto pi0 = chain.point_mass(0);
  const auto clean = chain.transient(pi0, 0.7);

  FaultInjectionScope scope;
  scope->scale("uniformize.weight", 1.05);  // inflate every Poisson weight
  const auto repaired = chain.transient(pi0, 0.7);

  double mass = 0.0;
  for (const double x : repaired) mass += x;
  EXPECT_NEAR(mass, 1.0, 1e-12);
  for (std::size_t i = 0; i < repaired.size(); ++i) {
    EXPECT_NEAR(repaired[i], clean[i], 1e-9);  // uniform scaling divides out
  }
  ASSERT_TRUE(robust::has_last_report());
  bool renorm_warned = false;
  for (const auto& w : robust::last_report().warnings) {
    renorm_warned |= w.find("renormalized") != std::string::npos;
  }
  EXPECT_TRUE(renorm_warned) << robust::last_report().summary();
}

TEST(Uniformization, InjectedNanNeverEscapesSilently) {
  FaultInjectionScope scope;
  scope->inject_nan("uniformize.weight", 2);

  const auto chain = birth_death_chain(4, 1.0, 2.0);
  const auto pi0 = chain.point_mass(0);
  EXPECT_THROW(chain.transient(pi0, 0.7), robust::ConvergenceError);
}

TEST(Uniformization, GeneratorNanDetectedAtSteadyState) {
  FaultInjectionScope scope;
  scope->inject_nan("ctmc.rate");

  const auto chain = birth_death_chain(6, 1.0, 2.0);
  try {
    chain.steady_state();
    FAIL() << "expected NumericalError";
  } catch (const NumericalError& e) {
    EXPECT_NE(std::string(e.what()).find("non-finite"), std::string::npos);
  }
}

// ---- budgets ----------------------------------------------------------------

TEST(Budgets, CapSemantics) {
  robust::Budget b;
  EXPECT_TRUE(b.unlimited());
  EXPECT_EQ(b.cap_iterations(100), 100u);
  b.max_iterations = 7;
  EXPECT_FALSE(b.unlimited());
  EXPECT_EQ(b.cap_iterations(100), 7u);
  EXPECT_EQ(b.cap_iterations(3), 3u);  // solver default still binds

  EXPECT_TRUE(robust::Deadline().unlimited());
  EXPECT_TRUE(robust::Deadline::after_seconds(-1.0).expired());
  EXPECT_FALSE(robust::Deadline::after_seconds(3600.0).expired());
}

TEST(Budgets, SorDeadlineCarriesPartialResult) {
  const std::size_t n = 10;
  const auto chain = birth_death_chain(n, 1.0, 2.0);
  markov::SteadyStateOptions opts;
  opts.solver = robust::SolverChoice::kSor;  // SOR only, no fallback chain
  opts.dense_threshold = 0;
  opts.sor.budget.deadline = robust::Deadline::after_seconds(-1.0);
  try {
    chain.steady_state(opts);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_EQ(e.partial_result().size(), n);
    EXPECT_FALSE(e.report().converged);
  }
}

// ---- fixed-point safeguards -------------------------------------------------

TEST(FixedPointSafeguards, OscillationTriggersDampingEscalation) {
  // x <- 2.2 - x oscillates forever under plain substitution; one damping
  // escalation (to 1/2) lands exactly on the fixed point x* = 1.1.
  core::Hierarchy h;
  h.set_parameter("x", 0.0);
  const auto res = h.solve_fixed_point(
      {{"x", [](const core::Hierarchy& hh) { return 2.2 - hh.value("x"); }}});
  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.damping_escalations, 1u);
  EXPECT_GT(res.final_damping, 0.0);
  EXPECT_NEAR(h.value("x"), 1.1, 1e-9);
  EXPECT_FALSE(res.report.fallbacks.empty());
}

TEST(FixedPointSafeguards, AdaptiveOffStillThrowsWithPartial) {
  core::Hierarchy h;
  h.set_parameter("x", 0.0);
  core::FixedPointOptions opts;
  opts.adaptive_damping = false;
  opts.max_iterations = 40;
  try {
    h.solve_fixed_point(
        {{"x",
          [](const core::Hierarchy& hh) { return 2.2 - hh.value("x"); }}},
        opts);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_EQ(e.partial_result().size(), 1u);
    EXPECT_FALSE(e.report().converged);
  }
}

TEST(FixedPointSafeguards, TrueDivergenceStillThrows) {
  // x <- 2x + 1 diverges at every damping < 1; escalation must not mask it.
  core::Hierarchy h;
  h.set_parameter("x", 1.0);
  core::FixedPointOptions opts;
  opts.max_iterations = 200;
  try {
    h.solve_fixed_point(
        {{"x",
          [](const core::Hierarchy& hh) {
            return 2.0 * hh.value("x") + 1.0;
          }}},
        opts);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_FALSE(e.report().converged);
    EXPECT_FALSE(e.report().fallbacks.empty());  // escalations were tried
  }
}

TEST(FixedPointSafeguards, InjectedNanIsRecovered) {
  FaultInjectionScope scope;
  scope->inject_nan("fixed_point.update", 3);

  core::Hierarchy h;
  h.set_parameter("x", 0.0);
  const auto res = h.solve_fixed_point(
      {{"x",
        [](const core::Hierarchy& hh) {
          return 0.5 * hh.value("x") + 1.0;
        }}});
  EXPECT_TRUE(res.converged);
  EXPECT_NEAR(h.value("x"), 2.0, 1e-8);
}

// ---- simulator budgets ------------------------------------------------------

TEST(SimulatorBudgets, ReplicationCapStopsEarlyWithValidEstimate) {
  sim::SystemSimulator simulator(
      {{exponential(0.1), exponential(1.0)}},
      [](const std::vector<bool>& s) { return s[0]; });
  robust::Budget budget;
  budget.max_iterations = 16;
  const auto est = simulator.availability_at(5.0, 1000, 7, budget);
  EXPECT_EQ(est.replications, 16u);
  EXPECT_TRUE(est.budget_stopped);
  EXPECT_GE(est.mean, 0.0);
  EXPECT_LE(est.mean, 1.0);
  ASSERT_TRUE(robust::has_last_report());
  EXPECT_EQ(robust::last_report().method, "monte-carlo");
}

TEST(SimulatorBudgets, ExpiredDeadlineThrowsConvergenceError) {
  sim::SystemSimulator simulator(
      {{exponential(0.1), exponential(1.0)}},
      [](const std::vector<bool>& s) { return s[0]; });
  robust::Budget budget;
  budget.deadline = robust::Deadline::after_seconds(-1.0);
  EXPECT_THROW(simulator.availability_at(5.0, 1000, 7, budget),
               robust::ConvergenceError);
}

// ---- diagnostics registry ---------------------------------------------------

TEST(Diagnostics, LastReportRecordedForSuccessfulSolve) {
  const auto chain = birth_death_chain(6, 1.0, 2.0);
  robust::SolveReport report;
  chain.steady_state({}, &report);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(report.method, "gth");  // small chain, dense primary
  ASSERT_TRUE(robust::has_last_report());
  EXPECT_EQ(robust::last_report().method, report.method);
  EXPECT_FALSE(robust::last_report().summary().empty());
}

// ---- solution cache under fault injection -----------------------------------
//
// The cache's contract with the injector: while any fault is armed the
// cache is bypassed in BOTH directions. A lookup must not mask the fault
// with a pre-fault result, and an insert must not launder a faulted (or
// failed, or partial) solve into a "clean" entry future solves replay.

TEST(CacheFaultInteraction, ArmedInjectorBypassesLookupAndInsert) {
  auto& cache = markov::SolutionCache::instance();
  cache.clear();
  // Rates unique to this test so no other test's entry can collide.
  const auto chain = birth_death_chain(10, 0.377, 1.913);

  robust::SolveReport clean;
  chain.steady_state({}, &clean);
  EXPECT_FALSE(clean.cache_hit);
  const std::size_t populated = cache.size();
  EXPECT_GE(populated, 1u);

  robust::SolveReport replay;
  chain.steady_state({}, &replay);
  EXPECT_TRUE(replay.cache_hit);  // idle injector: the entry is served

  {
    FaultInjectionScope scope;
    scope->scale("ctmc.rate", 1.0);  // arm a (numerically inert) fault
    robust::SolveReport armed;
    chain.steady_state({}, &armed);
    // Lookup bypassed: the solve ran instead of replaying the entry...
    EXPECT_FALSE(armed.cache_hit);
    // ...and insert bypassed: the armed solve left no new entry behind.
    EXPECT_EQ(cache.size(), populated);
  }

  robust::SolveReport after;
  chain.steady_state({}, &after);
  EXPECT_TRUE(after.cache_hit);  // the original clean entry survived intact
}

TEST(CacheFaultInteraction, FailedSolveNeverPopulatesCache) {
  auto& cache = markov::SolutionCache::instance();
  cache.clear();
  FaultInjectionScope scope;
  scope->fail_method("sor");
  scope->fail_method("bicgstab");
  scope->fail_method("power");
  scope->fail_method("gth");

  const auto chain = birth_death_chain(8, 0.731, 2.117);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  opts.gth_fallback_threshold = 64;
  try {
    chain.steady_state(opts);
    FAIL() << "expected ConvergenceError";
  } catch (const robust::ConvergenceError& e) {
    EXPECT_FALSE(e.partial_result().empty());
  }
  // The failure produced a partial result — and no cache entry.
  EXPECT_EQ(cache.size(), 0u);
}

TEST(CacheFaultInteraction, ExpiredDeadlinePartialIsNotCached) {
  auto& cache = markov::SolutionCache::instance();
  cache.clear();
  const auto chain = birth_death_chain(16, 0.593, 1.733);
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;         // force the deadline-checked SOR path
  opts.gth_fallback_threshold = 0;  // no dense last resort
  opts.budget.deadline = robust::Deadline::after_seconds(-1.0);
  EXPECT_THROW(chain.steady_state(opts), robust::ConvergenceError);
  // Deadline-degraded partials must re-run on retry, never be replayed.
  EXPECT_EQ(cache.size(), 0u);

  // With the deadline lifted the same model solves and caches normally.
  opts.budget.deadline = robust::Deadline();
  robust::SolveReport report;
  chain.steady_state(opts, &report);
  EXPECT_TRUE(report.converged);
  EXPECT_EQ(cache.size(), 1u);
}

}  // namespace
}  // namespace relkit
