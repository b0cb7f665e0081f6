#include "markov/uniformization.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "robust/fault_injection.hpp"

namespace relkit::markov {

Uniformized uniformize(const SparseMatrix& generator, double max_exit_rate) {
  const double q = max_exit_rate > 0.0 ? max_exit_rate * 1.02 : 1.0;
  const std::size_t n = generator.rows();
  SparseBuilder b(n, n);
  for (std::size_t r = 0; r < n; ++r) {
    double diag = 1.0;
    for (std::size_t k = generator.row_begin(r); k < generator.row_end(r);
         ++k) {
      const std::size_t c = generator.col(k);
      const double v = generator.value(k);
      if (c == r) {
        diag += v / q;
      } else {
        b.add(r, c, v / q);
      }
    }
    b.add(r, r, diag);
  }
  return {b.build(), q};
}

namespace {

double l1_distance(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) d += std::abs(a[i] - b[i]);
  return d;
}

/// The limit law, or empty when the provider has none, throws, or returns
/// something that is not a probability vector of size n.
std::vector<double> checked_limit_law(const LimitLaw& limit, std::size_t n) {
  std::vector<double> law;
  try {
    law = limit();
  } catch (const Error&) {
    return {};
  }
  if (law.size() != n) return {};
  double mass = 0.0;
  for (const double x : law) {
    if (!std::isfinite(x) || x < 0.0) return {};
    mass += x;
  }
  if (std::abs(mass - 1.0) > 1e-9) return {};
  return law;
}

}  // namespace

UniformizationResult uniformization_pass(const Uniformized& u,
                                         const std::vector<double>& pi0,
                                         const PoissonWeights& pw, double eps,
                                         bool cumulative,
                                         parallel::ThreadPool* pool,
                                         const LimitLaw& limit,
                                         const robust::Deadline& deadline) {
  const std::size_t n = pi0.size();
  detail::require(u.p.rows() == n && u.p.cols() == n,
                  "uniformization_pass: chain / pi0 size mismatch");
  const bool parallel = pool != nullptr && pool->jobs() > 1;
  const SparseMatrix pt = parallel ? u.p.transposed() : SparseMatrix();
  static obs::Counter& steps_counter =
      obs::counter("markov.uniformization_steps");
  auto& injector = testing::FaultInjector::instance();

  UniformizationResult out;
  out.window_end = pw.left + pw.weights.size();
  out.pi.assign(n, 0.0);
  if (cumulative) out.cumulative.assign(n, 0.0);

  std::vector<double> v = pi0;  // v_k = pi0 P^k
  std::vector<double> next(n, 0.0);
  std::vector<double> law;         // pi_inf, once obtained
  bool watching = limit != nullptr;  // still waiting for the first trigger
  double cdf = 0.0;                  // F_k: window weights applied so far
  for (std::size_t k = 0;; ++k) {
    const bool in_window = k >= pw.left;
    double w = 0.0;
    if (in_window) {
      w = injector.tap("uniformize.weight", pw.weights[k - pw.left]);
      cdf += w;
    }
    out.trace.record(k + 1, std::max(0.0, 1.0 - cdf));
    if (in_window) {
      for (std::size_t i = 0; i < n; ++i) out.pi[i] += w * v[i];
    }
    const double factor = (1.0 - cdf) / u.q;
    if (cumulative && factor > 0.0) {
      for (std::size_t i = 0; i < n; ++i) out.cumulative[i] += factor * v[i];
    }
    out.steps = k + 1;
    if (k + 1 == out.window_end) break;
    if ((k & 15u) == 0 && deadline.expired()) {
      out.complete = false;
      break;
    }
    if (parallel) {
      pt.multiply(v, next, pool);
    } else {
      u.p.multiply_left(v, next);
    }

    // The stationarity test is one more pass over n entries, so it runs
    // on the deadline's cadence, every 16th step. A limit law is asked for
    // only while the steps left outnumber the steps taken (k + 2 iterates
    // so far); past that point the trigger is no longer evaluated.
    if (watching && out.window_end - (k + 2) <= k + 2) watching = false;
    if ((k & 15u) != 0 || (!watching && law.empty())) {
      v.swap(next);
      continue;
    }
    double dist = l1_distance(next, law.empty() ? v : law);
    if (watching && dist <= eps) {
      // First trigger: ask for the limit law once.
      watching = false;
      law = checked_limit_law(limit, n);
      if (!law.empty()) dist = l1_distance(next, law);
    }
    if (!law.empty() && dist <= eps) {
      // v_{k+1} is within dist of pi_inf, and so is every later iterate:
      // close the window with pi_inf. Steps before `left` carry weight 0
      // and cumulative factor 1/q each, so they are counted, not walked.
      double rest_w = 0.0;
      double rest_f = 0.0;
      std::size_t m = k + 1;
      if (m < pw.left) {
        rest_f = static_cast<double>(pw.left - m);
        m = pw.left;
      }
      for (; m < out.window_end; ++m) {
        const double wm =
            injector.tap("uniformize.weight", pw.weights[m - pw.left]);
        cdf += wm;
        rest_w += wm;
        rest_f += std::max(0.0, 1.0 - cdf);
      }
      for (std::size_t i = 0; i < n; ++i) out.pi[i] += rest_w * law[i];
      if (cumulative) {
        const double scale = rest_f / u.q;
        for (std::size_t i = 0; i < n; ++i) {
          out.cumulative[i] += scale * law[i];
        }
      }
      out.trace.record(out.window_end, std::max(0.0, 1.0 - cdf));
      out.steps = k + 2;
      out.detection_error = dist;
      break;
    }
    v.swap(next);
  }
  out.weight_mass = cdf;
  steps_counter.add(out.steps);
  return out;
}

}  // namespace relkit::markov
