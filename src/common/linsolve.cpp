#include "common/linsolve.hpp"

#include <chrono>
#include <cmath>
#include <limits>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "robust/fault_injection.hpp"

namespace relkit {

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// max_i |(pi Q)_i| from the transposed generator, row-chunked when a pool
/// is given. Each row's accumulation stays in sequential order and the
/// chunk maxima fold in chunk-index order, so the value is independent of
/// the worker count.
double steady_residual(const SparseMatrix& qt, const std::vector<double>& diag,
                       const std::vector<double>& v,
                       parallel::ThreadPool* pool) {
  const std::size_t n = qt.rows();
  auto worst_in = [&](std::size_t begin, std::size_t end) {
    double worst = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      double acc = diag[i] * v[i];
      for (std::size_t k = qt.row_begin(i); k < qt.row_end(i); ++k) {
        acc += qt.value(k) * v[qt.col(k)];
      }
      worst = std::max(worst, std::abs(acc));
    }
    return worst;
  };
  if (pool == nullptr || pool->jobs() <= 1) return worst_in(0, n);
  return parallel::reduce_chunks<double>(
      *pool, n, parallel::default_chunk(n), 0.0, worst_in,
      [](double& acc, double part) { acc = std::max(acc, part); });
}

}  // namespace

std::vector<double> gth_steady_state(Matrix q) {
  const std::size_t n = q.rows();
  detail::require(n == q.cols(), "gth_steady_state: Q must be square");
  detail::require(n >= 1, "gth_steady_state: empty generator");
  obs::Span span("solver.gth");
  span.set("n", n);
  static obs::Counter& solves = obs::counter("markov.gth_solves");
  solves.add();

  // Forward elimination: fold state k into states 0..k-1. GTH uses the row
  // sum of remaining off-diagonals as the pivot (never the possibly
  // cancellation-damaged diagonal) and performs no subtractions.
  for (std::size_t k = n; k-- > 1;) {
    double s = 0.0;
    for (std::size_t j = 0; j < k; ++j) s += q(k, j);
    if (s <= 0.0) {
      throw NumericalError(
          "gth_steady_state: chain is reducible (state " + std::to_string(k) +
          " cannot reach lower-numbered states)");
    }
    for (std::size_t i = 0; i < k; ++i) q(i, k) /= s;
    for (std::size_t i = 0; i < k; ++i) {
      const double qik = q(i, k);
      if (qik == 0.0) continue;
      for (std::size_t j = 0; j < k; ++j) {
        if (i == j) continue;
        q(i, j) += qik * q(k, j);
      }
    }
  }

  // Back substitution: pi_k = sum_{i<k} pi_i q(i,k) on the folded matrix.
  std::vector<double> pi(n, 0.0);
  pi[0] = 1.0;
  for (std::size_t k = 1; k < n; ++k) {
    double acc = 0.0;
    for (std::size_t i = 0; i < k; ++i) acc += pi[i] * q(i, k);
    pi[k] = acc;
  }

  double total = 0.0;
  for (double x : pi) total += x;
  for (double& x : pi) x /= total;
  return pi;
}

std::vector<double> gth_steady_state_dtmc(const Matrix& p) {
  const std::size_t n = p.rows();
  detail::require(n == p.cols(), "gth_steady_state_dtmc: P must be square");
  Matrix q = p;
  for (std::size_t i = 0; i < n; ++i) q(i, i) -= 1.0;
  return gth_steady_state(std::move(q));
}

SorResult sor_steady_state(const SparseMatrix& qt,
                           const std::vector<double>& diag,
                           const SorOptions& opts) {
  const std::size_t n = qt.rows();
  detail::require(qt.cols() == n, "sor_steady_state: Q^T must be square");
  detail::require(diag.size() == n, "sor_steady_state: diag size mismatch");
  for (std::size_t i = 0; i < n; ++i) {
    detail::require(diag[i] < 0.0,
                    "sor_steady_state: diagonal must be negative (no "
                    "absorbing states in an irreducible chain)");
  }

  auto& injector = testing::FaultInjector::instance();
  const auto start = std::chrono::steady_clock::now();
  const std::size_t max_iters =
      injector.cap("sor.max_iters", opts.budget.cap_iterations(opts.max_iters));

  const parallel::PoolLease lease(opts.jobs);
  obs::Span span("solver.sor");
  span.set("n", n);
  span.set("jobs", static_cast<std::uint64_t>(lease.jobs()));
  static obs::Counter& sweeps_counter = obs::counter("markov.sor_sweeps");
  static obs::Histogram& residual_hist =
      obs::histogram("markov.sor_residual");

  robust::SolveReport report;
  report.note_attempt("sor");

  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  double omega = opts.omega;
  double omega_cap = 1.6;  // halves toward 1.0 whenever SOR diverges

  // r_i = sum_j v_j Q_ji = (Q^T v)_i ; includes the diagonal term. The
  // sweep mutates pi in place (Gauss-Seidel), but the residual reads a
  // fixed vector — a Jacobi-style pass — so it chunks across the pool.
  auto residual_of = [&](const std::vector<double>& v) {
    return steady_residual(qt, diag, v, lease.get());
  };

  // Best (lowest-residual) iterate so far, so non-convergence can still hand
  // back the most trustworthy partial result.
  std::vector<double> best = pi;
  double best_res = residual_of(pi);
  double prev_res = best_res;

  auto give_up = [&](const std::string& why) -> robust::ConvergenceError {
    report.residual = best_res;
    report.wall_seconds = seconds_since(start);
    report.note_attempt_result("sor", report.iterations, best_res, false);
    span.set("iterations", report.iterations);
    span.set("residual", best_res);
    span.set("converged", false);
    robust::record_last_report(report);
    return robust::ConvergenceError(why, best, report);
  };

  SorResult out;
  for (std::size_t it = 1; it <= max_iters; ++it) {
    sweeps_counter.add();
    // One SOR sweep: pi_i <- (1-w) pi_i + w * (sum_{j != i} pi_j Q_ji)/(-Q_ii).
    // Alternate sweep direction so information propagates both ways along
    // chain-structured models (symmetric Gauss-Seidel), which otherwise
    // need O(n) sweeps on birth-death chains.
    const bool forward = (it % 2) == 1;
    for (std::size_t step = 0; step < n; ++step) {
      const std::size_t i = forward ? step : n - 1 - step;
      double acc = 0.0;
      for (std::size_t k = qt.row_begin(i); k < qt.row_end(i); ++k) {
        const std::size_t j = qt.col(k);
        if (j == i) continue;  // diagonal handled via diag[]
        acc += qt.value(k) * pi[j];
      }
      const double gs = acc / (-diag[i]);
      pi[i] = (1.0 - omega) * pi[i] + omega * gs;
      if (pi[i] < 0.0) pi[i] = 0.0;
    }
    // Normalize every sweep; the homogeneous system is defined up to scale.
    double total = 0.0;
    for (double x : pi) total += x;
    total = injector.tap("sor.sweep-total", total);
    if (!std::isfinite(total) || total <= 0.0) {
      report.iterations = it;
      report.warn("sweep " + std::to_string(it) +
                  " produced a non-finite or collapsed iterate");
      throw give_up("sor_steady_state: iterate became non-finite or "
                    "collapsed at sweep " +
                    std::to_string(it));
    }
    for (double& x : pi) x /= total;

    if (it % 8 == 0 || it <= 4) {
      if (opts.budget.deadline.expired()) {
        report.iterations = it;
        report.warn("deadline expired after " + std::to_string(it) +
                    " sweeps");
        throw give_up("sor_steady_state: deadline expired after " +
                      std::to_string(it) + " sweeps (best residual " +
                      std::to_string(best_res) + ")");
      }
      const double res = residual_of(pi);
      residual_hist.observe(res);
      report.convergence.record(it, res);
      if (std::isfinite(res) && res < best_res) {
        best = pi;
        best_res = res;
      }
      if (res < opts.tol) {
        out.pi = std::move(pi);
        out.iterations = it;
        out.residual = res;
        report.method = "sor";
        report.iterations = it;
        report.residual = res;
        report.converged = true;
        report.wall_seconds = seconds_since(start);
        report.note_attempt_result("sor", it, res, true);
        span.set("iterations", it);
        span.set("residual", res);
        span.set("omega", omega);
        span.set("converged", true);
        out.report = report;
        robust::record_last_report(out.report);
        return out;
      }
      // Crude adaptive relaxation: push omega up while the residual keeps
      // shrinking (over-relaxation usually pays on availability chains).
      // Divergence resets to plain Gauss-Seidel AND lowers the ceiling, so
      // chains that tolerate no over-relaxation settle at omega = 1.
      if (opts.adaptive_omega) {
        if (res <= prev_res) {
          omega = std::min(omega_cap, omega + 0.1);
        } else if (res > 3.0 * prev_res) {
          // Violent divergence: halve the over-relaxation headroom
          // permanently and restart from plain Gauss-Seidel. Chains that
          // tolerate no over-relaxation settle at omega = 1; tolerant
          // chains never get here and climb to the cap.
          omega_cap = 1.0 + 0.5 * (std::min(omega, omega_cap) - 1.0);
          omega = 1.0;
        } else {
          // Mild wobble: ease off without burning the ceiling.
          omega = std::max(1.0, omega - 0.1);
        }
      }
      prev_res = res;
    }
  }
  report.iterations = max_iters;
  report.warn("sweep budget exhausted");
  throw give_up("sor_steady_state: no convergence after " +
                std::to_string(max_iters) + " sweeps (best residual " +
                std::to_string(best_res) + ")");
}

PowerResult power_steady_state(const SparseMatrix& p,
                               const PowerOptions& opts) {
  const std::size_t n = p.rows();
  detail::require(p.cols() == n, "power_steady_state: P must be square");
  detail::require(opts.theta > 0.0 && opts.theta <= 1.0,
                  "power_steady_state: theta in (0,1]");

  auto& injector = testing::FaultInjector::instance();
  const auto start = std::chrono::steady_clock::now();
  const std::size_t max_iters = injector.cap(
      "power.max_iters", opts.budget.cap_iterations(opts.max_iters));

  const parallel::PoolLease lease(opts.jobs);
  obs::Span span("solver.power");
  span.set("n", n);
  span.set("jobs", static_cast<std::uint64_t>(lease.jobs()));
  static obs::Counter& steps_counter = obs::counter("markov.power_steps");

  robust::SolveReport report;
  report.note_attempt("power");

  std::vector<double> pi(n, 1.0 / static_cast<double>(n));
  std::vector<double> next;
  std::vector<double> best = pi;
  double best_delta = std::numeric_limits<double>::infinity();

  auto give_up = [&](const std::string& why,
                     std::size_t it) -> robust::ConvergenceError {
    report.iterations = it;
    report.residual = best_delta;
    report.wall_seconds = seconds_since(start);
    report.note_attempt_result("power", it, best_delta, false);
    span.set("iterations", it);
    span.set("delta", best_delta);
    span.set("converged", false);
    robust::record_last_report(report);
    return robust::ConvergenceError(why, best, report);
  };

  for (std::size_t it = 0; it < max_iters; ++it) {
    steps_counter.add();
    p.multiply_left(pi, next, lease.get());
    double delta = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      next[i] = (1.0 - opts.theta) * pi[i] + opts.theta * next[i];
      delta = std::max(delta, std::abs(next[i] - pi[i]));
    }
    delta = injector.tap("power.delta", delta);
    report.convergence.record(it + 1, delta);
    double total = 0.0;
    for (double x : next) total += x;
    if (!std::isfinite(total) || total <= 0.0 || !std::isfinite(delta)) {
      report.warn("iterate became non-finite at step " + std::to_string(it));
      throw give_up("power_steady_state: iterate became non-finite at step " +
                        std::to_string(it),
                    it);
    }
    for (double& x : next) x /= total;
    pi.swap(next);
    if (delta < best_delta) {
      best = pi;
      best_delta = delta;
    }
    if (delta < opts.tol) {
      PowerResult out;
      out.pi = std::move(pi);
      out.iterations = it + 1;
      out.delta = delta;
      report.method = "power";
      report.iterations = it + 1;
      report.residual = delta;
      report.converged = true;
      report.wall_seconds = seconds_since(start);
      report.note_attempt_result("power", it + 1, delta, true);
      span.set("iterations", it + 1);
      span.set("delta", delta);
      span.set("converged", true);
      out.report = report;
      robust::record_last_report(out.report);
      return out;
    }
    if ((it & 63u) == 0 && opts.budget.deadline.expired()) {
      report.warn("deadline expired after " + std::to_string(it) + " steps");
      throw give_up("power_steady_state: deadline expired after " +
                        std::to_string(it) + " steps",
                    it);
    }
  }
  report.warn("iteration budget exhausted");
  throw give_up("power_steady_state: no convergence after " +
                    std::to_string(max_iters) + " steps (best delta " +
                    std::to_string(best_delta) + ")",
                max_iters);
}

std::vector<double> power_steady_state(const SparseMatrix& p, double tol,
                                       std::size_t max_iters, double theta) {
  PowerOptions opts;
  opts.tol = tol;
  opts.max_iters = max_iters;
  opts.theta = theta;
  return power_steady_state(p, opts).pi;
}

}  // namespace relkit
