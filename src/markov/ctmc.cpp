#include "markov/ctmc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/poisson_weights.hpp"
#include "markov/solution_cache.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "robust/fault_injection.hpp"

namespace relkit::markov {

namespace {

/// Uniformization refuses Poisson means beyond this: the number of vector-
/// matrix products grows linearly with q*t, so anything larger is hours of
/// compute and a sign the caller wants steady_state() instead. Stiff
/// shipped workloads legitimately reach ~1e8 (e.g. the rejuvenation study's
/// PH-expanded timer chain), so the guard only rejects clearly infeasible
/// means.
constexpr double kMaxPoissonMean = 1e9;

}  // namespace

StateId Ctmc::add_state(std::string name) {
  detail::require(!name.empty(), "Ctmc::add_state: empty name");
  detail::require(!index_.count(name),
                  "Ctmc::add_state: duplicate state '" + name + "'");
  const StateId id = names_.size();
  index_.emplace(name, id);
  names_.push_back(std::move(name));
  exit_rates_.push_back(0.0);
  return id;
}

StateId Ctmc::add_states(std::size_t count) {
  detail::require(count >= 1, "Ctmc::add_states: count must be >= 1");
  const StateId first = names_.size();
  for (std::size_t i = 0; i < count; ++i) {
    add_state("s" + std::to_string(first + i));
  }
  return first;
}

void Ctmc::add_transition(StateId from, StateId to, double rate) {
  detail::require(from < names_.size() && to < names_.size(),
                  "Ctmc::add_transition: state out of range");
  detail::require(from != to, "Ctmc::add_transition: self-loop");
  detail::require(rate > 0.0, "Ctmc::add_transition: rate must be > 0");
  transitions_.push_back({from, to, rate});
  exit_rates_[from] += rate;
}

const std::string& Ctmc::state_name(StateId s) const {
  detail::require(s < names_.size(), "Ctmc::state_name: out of range");
  return names_[s];
}

StateId Ctmc::state_index(const std::string& name) const {
  const auto it = index_.find(name);
  detail::require(it != index_.end(),
                  "Ctmc::state_index: unknown state '" + name + "'");
  return it->second;
}

double Ctmc::exit_rate(StateId s) const {
  detail::require(s < names_.size(), "Ctmc::exit_rate: out of range");
  return exit_rates_[s];
}

bool Ctmc::is_absorbing(StateId s) const { return exit_rate(s) == 0.0; }

Matrix Ctmc::dense_generator() const {
  const std::size_t n = state_count();
  auto& injector = testing::FaultInjector::instance();
  Matrix q(n, n);
  for (const auto& t : transitions_) {
    const double rate = injector.tap("ctmc.rate", t.rate);
    q(t.from, t.to) += rate;
    q(t.from, t.from) -= rate;
  }
  return q;
}

SparseMatrix Ctmc::sparse_generator() const {
  const std::size_t n = state_count();
  auto& injector = testing::FaultInjector::instance();
  SparseBuilder b(n, n);
  for (const auto& t : transitions_) {
    const double rate = injector.tap("ctmc.rate", t.rate);
    b.add(t.from, t.to, rate);
    b.add(t.from, t.from, -rate);
  }
  return b.build();
}

std::vector<double> Ctmc::point_mass(StateId s) const {
  detail::require(s < state_count(), "Ctmc::point_mass: out of range");
  std::vector<double> pi0(state_count(), 0.0);
  pi0[s] = 1.0;
  return pi0;
}

void Ctmc::check_distribution(const std::vector<double>& pi0) const {
  detail::require(pi0.size() == state_count(),
                  "Ctmc: distribution size mismatch");
  double s = 0.0;
  for (double x : pi0) {
    detail::require(x >= 0.0, "Ctmc: negative probability in distribution");
    s += x;
  }
  detail::require(std::abs(s - 1.0) < 1e-9,
                  "Ctmc: distribution does not sum to 1");
}

namespace {

/// Serializes the solver options that can change a steady-state answer.
/// Budgets and `jobs` are deliberately excluded (see solution_cache.hpp).
void key_steady_options(CacheKey& key, const SteadyStateOptions& opts) {
  key.add(opts.dense_threshold);
  key.add(opts.gth_fallback_threshold);
  key.add(opts.sor.omega);
  key.add(opts.sor.tol);
  key.add(opts.sor.max_iters);
  key.add(opts.sor.adaptive_omega);
  key.add(opts.bicgstab.tol);
  key.add(opts.bicgstab.max_iters);
  key.add(static_cast<std::size_t>(opts.bicgstab.precond));
  key.add(opts.bicgstab.use_rcm);
  key.add(opts.ncd.coupling_threshold);
  key.add(opts.ncd.tol);
  key.add(opts.ncd.max_sweeps);
  // The *effective* solver choice: a forced method must not collide with
  // an auto-chain entry for the same model (different method, possibly
  // different answer within tolerance).
  const robust::SolverChoice effective =
      opts.solver != robust::SolverChoice::kAuto ? opts.solver
                                                 : robust::ambient_solver();
  key.add(static_cast<std::size_t>(effective));
}

}  // namespace

std::vector<double> Ctmc::steady_state(const SteadyStateOptions& opts,
                                       robust::SolveReport* report) const {
  const std::size_t n = state_count();
  detail::require_model(n >= 1, "Ctmc::steady_state: no states");

  obs::Span span("markov.steady_state");
  span.set("states", n);
  span.set("transitions", static_cast<std::uint64_t>(transitions_.size()));

  // Memoization: exact-keyed on (generator structure, rates, options).
  // Bypassed while fault injection is armed — injected failures act inside
  // the solver, where the key cannot see them (and with the injector idle,
  // tapped rates equal the raw rates the key uses).
  auto& injector = testing::FaultInjector::instance();
  auto& cache = SolutionCache::instance();
  const bool use_cache =
      opts.use_cache && cache.enabled() && !injector.active();
  CacheKey key;
  if (use_cache) {
    key.add(SolutionCache::kSteadyTag);
    key.add(n);
    for (const auto& t : transitions_) {
      key.add(t.from);
      key.add(t.to);
      key.add(t.rate);
    }
    key_steady_options(key, opts);
    if (auto hit = cache.lookup(key)) {
      hit->report.cache_hit = true;
      span.set("cache", "hit");
      robust::record_last_report(hit->report);
      if (report) *report = std::move(hit->report);
      return std::move(hit->result);
    }
    span.set("cache", "miss");
  }

  // Transposed off-diagonal generator + diagonal, the form every method in
  // the fallback chain consumes.
  SparseBuilder bt(n, n);
  std::vector<double> diag(n, 0.0);
  for (const auto& t : transitions_) {
    const double rate = injector.tap("ctmc.rate", t.rate);
    bt.add(t.to, t.from, rate);
    diag[t.from] -= rate;
  }

  robust::RobustSteadyOptions robust_opts;
  robust_opts.dense_primary = opts.dense_threshold;
  robust_opts.dense_fallback =
      std::max(opts.dense_threshold, opts.gth_fallback_threshold);
  robust_opts.sor = opts.sor;
  robust_opts.bicgstab = opts.bicgstab;
  robust_opts.ncd = opts.ncd;
  robust_opts.solver = opts.solver;
  robust_opts.budget = opts.budget;
  // The thread's ambient deadline (CLI --timeout-ms, relkit_serve request
  // deadlines) binds every solve, including ones reached through paths that
  // carry no options — the earliest deadline wins. Never part of the cache
  // key: a hit trivially satisfies any deadline.
  robust_opts.budget.deadline = robust::Deadline::earliest(
      robust_opts.budget.deadline, robust::ambient_deadline());
  robust_opts.jobs = opts.jobs;
  robust::RobustResult r =
      robust::robust_steady_state(bt.build(), diag, robust_opts);
  if (use_cache) cache.insert(std::move(key), {r.pi, r.report});
  if (report) *report = r.report;
  return std::move(r.pi);
}

namespace {

/// Overflow guard of the uniformization solvers: rejects Poisson means
/// that are non-finite or large enough to make the step loop effectively
/// unbounded. Throws ConvergenceError carrying `partial`.
double guarded_poisson_mean(double q, double t, const char* context,
                            const std::vector<double>& partial) {
  double mean = testing::FaultInjector::instance().tap("uniformize.qt",
                                                       q * t);
  if (!std::isfinite(mean) || mean < 0.0 || mean > kMaxPoissonMean) {
    robust::SolveReport report;
    report.method = "uniformization";
    report.attempts = {"uniformization"};
    report.warn("q*t = " + std::to_string(mean) +
                " exceeds the uniformization guard (max " +
                std::to_string(kMaxPoissonMean) + ")");
    robust::record_last_report(report);
    throw robust::ConvergenceError(
        std::string(context) + ": uniformization infeasible, q*t = " +
            std::to_string(mean) +
            " (stiff chain x long horizon); use steady_state() or split "
            "the interval",
        partial, report);
  }
  return mean;
}

}  // namespace

Uniformized Ctmc::uniformized() const {
  double qmax = 0.0;
  for (const double r : exit_rates_) qmax = std::max(qmax, r);
  return uniformize(sparse_generator(), qmax);
}

std::vector<double> Ctmc::limit_law(const std::vector<double>& pi0,
                                    unsigned jobs) const {
  check_distribution(pi0);
  const std::size_t n = state_count();
  std::vector<std::vector<StateId>> succ(n), pred(n);
  for (const auto& tr : transitions_) {
    succ[tr.from].push_back(tr.to);
    pred[tr.to].push_back(tr.from);
  }
  // Number of states reachable from `stack` along `adj`.
  const auto reached = [n](const std::vector<std::vector<StateId>>& adj,
                           std::vector<StateId> stack) {
    std::vector<char> seen(n, 0);
    for (const StateId s : stack) seen[s] = 1;
    std::size_t count = stack.size();
    while (!stack.empty()) {
      const StateId s = stack.back();
      stack.pop_back();
      for (const StateId next : adj[s]) {
        if (!seen[next]) {
          seen[next] = 1;
          ++count;
          stack.push_back(next);
        }
      }
    }
    return count;
  };

  std::vector<StateId> absorbing;
  for (StateId s = 0; s < n; ++s) {
    if (exit_rates_[s] == 0.0) absorbing.push_back(s);
  }
  if (absorbing.empty()) {
    if (reached(succ, {0}) != n || reached(pred, {0}) != n) return {};
    // Not through the SolutionCache: its key holds every transition (36 KB
    // for a 400-state pool pair, 11x the answer), and a transient solve
    // would leave one such entry per chain it meets. GTH is forced so that
    // a failed GTH throws instead of falling back to an iterative method.
    SteadyStateOptions opts;
    opts.solver = robust::SolverChoice::kGth;
    opts.jobs = jobs;
    opts.use_cache = false;
    return steady_state(opts);
  }
  // Every recurrent state is absorbing iff every state reaches one. The
  // absorbing analysis is a dense LU over the transient states.
  if (reached(pred, absorbing) != n) return {};
  return absorbing_analysis(pi0).absorption_probability;
}

TransientSolution Ctmc::uniformized_solve(const std::vector<double>& pi0,
                                          double t, double eps, unsigned jobs,
                                          Want want) const {
  check_distribution(pi0);
  detail::require(t >= 0.0, "Ctmc: transient horizon t must be >= 0");
  const std::size_t n = state_count();
  if (t == 0.0) return {pi0, std::vector<double>(n, 0.0)};

  obs::Span span("markov.uniformization");
  span.set("states", n);
  span.set("t", t);
  robust::SolveReport report;
  // Only pi(t) alone is memoized; L(t) is recomputed on every call.
  const bool cumulative = want != Want::kPi;
  auto& injector = testing::FaultInjector::instance();
  auto& cache = SolutionCache::instance();
  const bool use_cache = !cumulative && cache.enabled() && !injector.active();
  CacheKey key;
  if (use_cache) {
    key.add(SolutionCache::kTransientTag);
    key.add(n);
    for (const auto& tr : transitions_) {
      key.add(tr.from);
      key.add(tr.to);
      key.add(tr.rate);
    }
    key.add(t);
    key.add(eps);
    for (const double x : pi0) key.add(x);
    if (auto hit = cache.lookup(key)) {
      span.set("cache", "hit");
      hit->report.cache_hit = true;
      robust::record_last_report(hit->report);
      return {std::move(hit->result), {}};
    }
    span.set("cache", "miss");
  }

  const bool cumulative_partial = want == Want::kCumulative;
  const char* context =
      cumulative_partial ? "Ctmc::cumulative_time" : "Ctmc::transient";
  const parallel::PoolLease lease(jobs);
  span.set("jobs", static_cast<std::uint64_t>(lease.jobs()));
  const Uniformized u = uniformized();
  const double mean = guarded_poisson_mean(
      u.q, t, context,
      cumulative_partial ? std::vector<double>(n, 0.0) : pi0);
  const PoissonWeights pw = poisson_weights(mean, eps);
  // The stopping rule takes the limit law as exact, and only a direct solve
  // (GTH, dense LU) gives one exact to rounding: an iterative answer
  // verified at a 1e-6 residual can sit within eps of the iterates along
  // the chain's slow mode and still be far from the true law. So a chain
  // with more than dense_threshold unknowns (non-absorbing states) gets no
  // limit law, and its pass runs no stationarity test.
  const auto unknowns = static_cast<std::size_t>(
      std::count_if(exit_rates_.begin(), exit_rates_.end(),
                    [](double rate) { return rate > 0.0; }));
  LimitLaw limit;
  if (unknowns <= SteadyStateOptions{}.dense_threshold) {
    limit = [&] { return limit_law(pi0, jobs); };
  }
  UniformizationResult r =
      uniformization_pass(u, pi0, pw, eps, cumulative, lease.get(), limit,
                          robust::ambient_deadline());
  span.set("steps", r.steps);
  span.set("window", r.window_end);
  span.set("q", u.q);

  report.method = "uniformization";
  report.attempts = {"uniformization"};
  report.iterations = r.steps;
  report.convergence = std::move(r.trace);
  if (!r.complete) {
    // Ambient deadline (CLI --timeout-ms / serve request budget): hand back
    // the best partial — L(t) so far, or the window accumulated so far
    // renormalized when it carries any mass, else the initial state.
    const std::string progress = std::to_string(r.steps) + " of " +
                                 std::to_string(r.window_end) +
                                 " uniformization steps";
    report.warn("deadline expired after " + progress);
    std::vector<double> partial = std::move(r.cumulative);
    if (!cumulative_partial) {
      partial = r.weight_mass > 0.0 ? std::move(r.pi) : pi0;
      if (r.weight_mass > 0.0) {
        for (double& x : partial) x /= r.weight_mass;
      }
    }
    robust::record_last_report(report);
    throw robust::ConvergenceError(
        std::string(context) + ": deadline expired after " + progress,
        std::move(partial), report);
  }
  // The renormalized window is off by at most twice its discarded mass;
  // L(t) by t times the bound of pi(t).
  report.error_bound = 2.0 * pw.tail_mass + r.detection_error;
  if (cumulative_partial) report.error_bound *= t;

  // Post-solve verification: pi(t) must be a finite probability vector
  // (small drift is renormalized), and the sojourns must be finite and
  // sum to t (small drift is rescaled); NaN/Inf is never returned.
  TransientSolution out{std::move(r.pi), std::move(r.cumulative)};
  double mass = 0.0;
  for (const double x : out.pi) mass += x;
  report.residual = std::abs(mass - 1.0);
  robust::repair_distribution(out.pi, report, "Ctmc::transient");
  if (cumulative) {
    if (!robust::all_finite(out.cumulative)) {
      report.warn("cumulative_time: non-finite entries in result");
      robust::record_last_report(report);
      throw robust::ConvergenceError(
          "Ctmc::cumulative_time: result contains NaN/Inf — refusing to "
          "return it silently",
          out.cumulative, report);
    }
    double total = 0.0;
    for (double& x : out.cumulative) {
      if (x < 0.0) x = 0.0;
      total += x;
    }
    const double time_residual = std::abs(total - t) / t;
    if (total > 0.0 && time_residual > 1e-9) {
      report.warn("cumulative_time: rescaled (sum of sojourns drifted to " +
                  std::to_string(total) + " over horizon " +
                  std::to_string(t) + ")");
      for (double& x : out.cumulative) x *= t / total;
    }
    report.residual = std::max(report.residual, time_residual);
  }
  report.converged = true;
  robust::record_last_report(report);
  if (use_cache) cache.insert(std::move(key), {out.pi, report, {}});
  return out;
}

TransientSolution Ctmc::transient_and_cumulative(
    const std::vector<double>& pi0, double t, double eps,
    unsigned jobs) const {
  return uniformized_solve(pi0, t, eps, jobs, Want::kBoth);
}

std::vector<double> Ctmc::transient(const std::vector<double>& pi0, double t,
                                    double eps, unsigned jobs) const {
  return uniformized_solve(pi0, t, eps, jobs, Want::kPi).pi;
}

std::vector<double> Ctmc::cumulative_time(const std::vector<double>& pi0,
                                          double t, double eps,
                                          unsigned jobs) const {
  return uniformized_solve(pi0, t, eps, jobs, Want::kCumulative).cumulative;
}

AbsorbingAnalysis Ctmc::absorbing_analysis(
    const std::vector<double>& pi0) const {
  check_distribution(pi0);
  const std::size_t n = state_count();

  std::vector<StateId> transient_states;
  std::vector<StateId> absorbing_states;
  std::vector<std::size_t> tindex(n, SIZE_MAX);
  for (StateId s = 0; s < n; ++s) {
    if (is_absorbing(s)) {
      absorbing_states.push_back(s);
    } else {
      tindex[s] = transient_states.size();
      transient_states.push_back(s);
    }
  }
  detail::require_model(!absorbing_states.empty(),
                        "absorbing_analysis: chain has no absorbing state");
  for (StateId s : absorbing_states) {
    detail::require_model(pi0[s] == 0.0,
                          "absorbing_analysis: initial mass on absorbing "
                          "state '" + names_[s] + "'");
  }

  // Solve tau^T Q_TT = -pi0_T  (expected sojourn times).
  const std::size_t m = transient_states.size();
  Matrix qtt(m, m);
  for (const auto& tr : transitions_) {
    if (tindex[tr.from] == SIZE_MAX) continue;
    qtt(tindex[tr.from], tindex[tr.from]) -= tr.rate;
    if (tindex[tr.to] != SIZE_MAX) {
      qtt(tindex[tr.from], tindex[tr.to]) += tr.rate;
    }
  }
  std::vector<double> rhs(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) rhs[i] = -pi0[transient_states[i]];
  std::vector<double> tau;
  try {
    tau = lu_solve_transposed(qtt, rhs);
  } catch (const NumericalError&) {
    throw ModelError(
        "absorbing_analysis: some transient state cannot reach an absorbing "
        "state (Q_TT singular)");
  }

  AbsorbingAnalysis out;
  out.expected_sojourn.assign(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    detail::require_model(tau[i] > -1e-9,
                          "absorbing_analysis: negative sojourn time "
                          "(reducibility or numerical issue)");
    out.expected_sojourn[transient_states[i]] = std::max(0.0, tau[i]);
    out.mean_time_to_absorption += std::max(0.0, tau[i]);
  }

  // Absorption probabilities: p_a = pi0_a + sum_i tau_i q_{i,a}.
  out.absorption_probability.assign(n, 0.0);
  for (const auto& tr : transitions_) {
    if (tindex[tr.from] == SIZE_MAX || tindex[tr.to] != SIZE_MAX) continue;
    out.absorption_probability[tr.to] +=
        out.expected_sojourn[tr.from] * tr.rate;
  }
  return out;
}

double Ctmc::survival(const std::vector<double>& pi0, double t,
                      double eps) const {
  const std::vector<double> pi = transient(pi0, t, eps);
  double absorbed = 0.0;
  for (StateId s = 0; s < state_count(); ++s) {
    if (is_absorbing(s)) absorbed += pi[s];
  }
  return std::clamp(1.0 - absorbed, 0.0, 1.0);
}

double reward_rate_at(const Ctmc& chain, const std::vector<double>& rewards,
                      const std::vector<double>& pi0, double t) {
  detail::require(rewards.size() == chain.state_count(),
                  "reward_rate_at: reward vector size mismatch");
  const std::vector<double> pi = chain.transient(pi0, t);
  return dot(pi, rewards);
}

double reward_rate_steady(const Ctmc& chain,
                          const std::vector<double>& rewards,
                          const SteadyStateOptions& opts) {
  detail::require(rewards.size() == chain.state_count(),
                  "reward_rate_steady: reward vector size mismatch");
  return dot(chain.steady_state(opts), rewards);
}

double accumulated_reward(const Ctmc& chain,
                          const std::vector<double>& rewards,
                          const std::vector<double>& pi0, double t) {
  detail::require(rewards.size() == chain.state_count(),
                  "accumulated_reward: reward vector size mismatch");
  return dot(chain.cumulative_time(pi0, t), rewards);
}

double interval_availability(const Ctmc& chain,
                             const std::vector<double>& up_indicator,
                             const std::vector<double>& pi0, double t) {
  detail::require(t > 0.0, "interval_availability: t must be > 0");
  return accumulated_reward(chain, up_indicator, pi0, t) / t;
}

std::vector<double> steady_state_sensitivity(const Ctmc& chain,
                                             const Matrix& dq) {
  const std::size_t n = chain.state_count();
  detail::require(dq.rows() == n && dq.cols() == n,
                  "steady_state_sensitivity: dQ shape mismatch");
  for (std::size_t r = 0; r < n; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < n; ++c) s += dq(r, c);
    detail::require(std::abs(s) < 1e-9,
                    "steady_state_sensitivity: dQ rows must sum to 0");
  }
  const std::vector<double> pi = chain.steady_state();

  // Solve s Q = -pi dQ subject to sum(s) = 0. Write as Q^T s^T = -(pi dQ)^T
  // and replace the last equation by the normalization sum(s) = 0 (Q is rank
  // n-1 for an irreducible chain).
  Matrix qt = chain.dense_generator().transposed();
  std::vector<double> rhs(n, 0.0);
  for (std::size_t c = 0; c < n; ++c) {
    double acc = 0.0;
    for (std::size_t r = 0; r < n; ++r) acc += pi[r] * dq(r, c);
    rhs[c] = -acc;
  }
  for (std::size_t c = 0; c < n; ++c) qt(n - 1, c) = 1.0;
  rhs[n - 1] = 0.0;
  return lu_solve(std::move(qt), std::move(rhs));
}

double mtta_sensitivity(const Ctmc& chain, const Matrix& dq,
                        const std::vector<double>& pi0) {
  const std::size_t n = chain.state_count();
  detail::require(dq.rows() == n && dq.cols() == n,
                  "mtta_sensitivity: dQ shape mismatch");
  detail::require(pi0.size() == n, "mtta_sensitivity: pi0 size mismatch");

  std::vector<std::size_t> tstates, tindex(n, SIZE_MAX);
  for (StateId s = 0; s < n; ++s) {
    if (!chain.is_absorbing(s)) {
      tindex[s] = tstates.size();
      tstates.push_back(s);
    }
  }
  detail::require_model(tstates.size() < n,
                        "mtta_sensitivity: chain has no absorbing state");
  const std::size_t m = tstates.size();

  const Matrix q = chain.dense_generator();
  Matrix qtt(m, m);
  Matrix dqtt(m, m);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      qtt(i, j) = q(tstates[i], tstates[j]);
      dqtt(i, j) = dq(tstates[i], tstates[j]);
    }
  }
  std::vector<double> rhs(m);
  for (std::size_t i = 0; i < m; ++i) rhs[i] = -pi0[tstates[i]];
  std::vector<double> tau;
  try {
    tau = lu_solve_transposed(qtt, rhs);
  } catch (const NumericalError&) {
    throw ModelError(
        "mtta_sensitivity: some transient state cannot reach absorption");
  }
  // d tau Q_TT = -tau dQ_TT  =>  Q_TT^T (d tau)^T = -(tau dQ_TT)^T.
  std::vector<double> rhs2(m, 0.0);
  for (std::size_t j = 0; j < m; ++j) {
    double acc = 0.0;
    for (std::size_t i = 0; i < m; ++i) acc += tau[i] * dqtt(i, j);
    rhs2[j] = -acc;
  }
  const std::vector<double> dtau = lu_solve_transposed(qtt, rhs2);
  return sum(dtau);
}

std::vector<double> transient_sensitivity(const Ctmc& chain, const Matrix& dq,
                                          const std::vector<double>& pi0,
                                          double t) {
  const std::size_t n = chain.state_count();
  detail::require(dq.rows() == n && dq.cols() == n,
                  "transient_sensitivity: dQ shape mismatch");
  detail::require(pi0.size() == n, "transient_sensitivity: pi0 size mismatch");
  detail::require(t >= 0.0, "transient_sensitivity: t must be >= 0");
  for (std::size_t r = 0; r < n; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < n; ++c) s += dq(r, c);
    detail::require(std::abs(s) < 1e-9,
                    "transient_sensitivity: dQ rows must sum to 0");
  }
  if (t == 0.0) return std::vector<double>(n, 0.0);

  const SparseMatrix q = chain.sparse_generator();
  // Step size from the uniformization rate: h ~ 0.1 / q_max keeps RK4 well
  // inside its stability region for this linear system.
  double qmax = 1.0;
  for (StateId s = 0; s < n; ++s) qmax = std::max(qmax, chain.exit_rate(s));
  const auto steps = static_cast<std::size_t>(
      std::ceil(t * qmax / 0.1));
  const std::size_t nsteps = std::min<std::size_t>(
      std::max<std::size_t>(steps, 16), 4000000);
  const double h = t / static_cast<double>(nsteps);

  std::vector<double> pi = pi0;
  std::vector<double> sens(n, 0.0);

  // d/dt [pi, s] = [pi Q, s Q + pi dQ]; RK4 on the coupled pair.
  const auto deriv = [&](const std::vector<double>& p,
                         const std::vector<double>& s,
                         std::vector<double>& dp, std::vector<double>& ds) {
    q.multiply_left(p, dp);
    q.multiply_left(s, ds);
    for (std::size_t c = 0; c < n; ++c) {
      double acc = 0.0;
      for (std::size_t r = 0; r < n; ++r) acc += p[r] * dq(r, c);
      ds[c] += acc;
    }
  };

  std::vector<double> k1p(n), k1s(n), k2p(n), k2s(n), k3p(n), k3s(n),
      k4p(n), k4s(n), tp(n), ts(n);
  for (std::size_t step = 0; step < nsteps; ++step) {
    deriv(pi, sens, k1p, k1s);
    for (std::size_t i = 0; i < n; ++i) {
      tp[i] = pi[i] + 0.5 * h * k1p[i];
      ts[i] = sens[i] + 0.5 * h * k1s[i];
    }
    deriv(tp, ts, k2p, k2s);
    for (std::size_t i = 0; i < n; ++i) {
      tp[i] = pi[i] + 0.5 * h * k2p[i];
      ts[i] = sens[i] + 0.5 * h * k2s[i];
    }
    deriv(tp, ts, k3p, k3s);
    for (std::size_t i = 0; i < n; ++i) {
      tp[i] = pi[i] + h * k3p[i];
      ts[i] = sens[i] + h * k3s[i];
    }
    deriv(tp, ts, k4p, k4s);
    for (std::size_t i = 0; i < n; ++i) {
      pi[i] += h / 6.0 * (k1p[i] + 2 * k2p[i] + 2 * k3p[i] + k4p[i]);
      sens[i] += h / 6.0 * (k1s[i] + 2 * k2s[i] + 2 * k3s[i] + k4s[i]);
    }
  }
  return sens;
}

std::vector<double> birth_death_steady_state(const std::vector<double>& birth,
                                             const std::vector<double>& death) {
  detail::require(birth.size() == death.size(),
                  "birth_death_steady_state: size mismatch");
  const std::size_t k = birth.size();
  std::vector<double> pi(k + 1, 0.0);
  pi[0] = 1.0;
  double total = 1.0;
  double prod = 1.0;
  for (std::size_t i = 0; i < k; ++i) {
    detail::require(birth[i] > 0.0 && death[i] > 0.0,
                    "birth_death_steady_state: rates must be > 0");
    prod *= birth[i] / death[i];
    pi[i + 1] = prod;
    total += prod;
  }
  for (double& x : pi) x /= total;
  return pi;
}

}  // namespace relkit::markov
