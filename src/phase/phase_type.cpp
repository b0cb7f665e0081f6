#include "phase/phase_type.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.hpp"
#include "common/poisson_weights.hpp"
#include "common/sparse.hpp"
#include "markov/uniformization.hpp"

namespace relkit::phase {

PhaseType::PhaseType(std::vector<double> alpha, Matrix t)
    : alpha_(std::move(alpha)), t_(std::move(t)) {
  const std::size_t n = alpha_.size();
  detail::require(n >= 1, "PhaseType: empty representation");
  detail::require(t_.rows() == n && t_.cols() == n,
                  "PhaseType: T shape mismatch");
  double asum = 0.0;
  for (double a : alpha_) {
    detail::require(a >= -1e-12, "PhaseType: negative alpha entry");
    asum += a;
  }
  detail::require(asum <= 1.0 + 1e-9, "PhaseType: alpha sums to > 1");
  for (std::size_t i = 0; i < n; ++i) {
    detail::require(t_(i, i) < 0.0, "PhaseType: diagonal of T must be < 0");
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j) {
        detail::require(t_(i, j) >= 0.0,
                        "PhaseType: negative off-diagonal in T");
      }
      row += t_(i, j);
    }
    detail::require(row <= 1e-9, "PhaseType: T row sums must be <= 0");
  }
  mean_ = moment(1);
  const double m2 = moment(2);
  sd_ = std::sqrt(std::max(0.0, m2 - mean_ * mean_));
}

std::vector<double> PhaseType::exit_rates() const {
  const std::size_t n = order();
  std::vector<double> t0(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    double row = 0.0;
    for (std::size_t j = 0; j < n; ++j) row += t_(i, j);
    t0[i] = -row;
  }
  return t0;
}

namespace {

// pi(t) = alpha exp(T t) by one uniformization pass over the substochastic
// A = I + T/q. No limit law and no renormalization: the sum of pi(t) is
// the survival probability.
std::vector<double> ph_transient(const std::vector<double>& alpha,
                                 const Matrix& t, double x) {
  const std::size_t n = alpha.size();
  SparseBuilder b(n, n);
  double qmax = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    qmax = std::max(qmax, -t(i, i));
    for (std::size_t j = 0; j < n; ++j) b.add(i, j, t(i, j));
  }
  const markov::Uniformized u = markov::uniformize(b.build(), qmax);
  return markov::uniformization_pass(u, alpha,
                                     poisson_weights(u.q * x, 1e-13), 1e-13,
                                     false, nullptr)
      .pi;
}

}  // namespace

double PhaseType::cdf(double x) const {
  if (x > mean_ + 60.0 * sd_ + 1.0 / -t_(0, 0)) return 1.0;
  if (x <= 0.0) {
    // Atom at zero when alpha sums to < 1.
    double asum = 0.0;
    for (double a : alpha_) asum += a;
    return x < 0.0 ? 0.0 : std::max(0.0, 1.0 - asum);
  }
  const std::vector<double> pi = ph_transient(alpha_, t_, x);
  double surv = 0.0;
  for (double p : pi) surv += p;
  return std::clamp(1.0 - surv, 0.0, 1.0);
}

double PhaseType::pdf(double x) const {
  if (x < 0.0) return 0.0;
  if (x > mean_ + 60.0 * sd_ + 1.0 / -t_(0, 0)) return 0.0;
  const std::vector<double> pi = ph_transient(alpha_, t_, x);
  const std::vector<double> t0 = exit_rates();
  double f = 0.0;
  for (std::size_t i = 0; i < pi.size(); ++i) f += pi[i] * t0[i];
  return std::max(0.0, f);
}

double PhaseType::moment(unsigned k) const {
  detail::require(k >= 1, "PhaseType::moment: k must be >= 1");
  // E[X^k] = k! alpha (-T)^{-k} 1 ; iterate y <- (-T)^{-1} y starting at 1.
  const std::size_t n = order();
  Matrix neg_t = t_;
  neg_t *= -1.0;
  std::vector<double> y(n, 1.0);
  double factorial = 1.0;
  for (unsigned i = 1; i <= k; ++i) {
    y = lu_solve(neg_t, y);
    factorial *= static_cast<double>(i);
  }
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) acc += alpha_[i] * y[i];
  return factorial * acc;
}

double PhaseType::sample(Rng& rng) const {
  // Play the CTMC token game over the transient states.
  const std::size_t n = order();
  const std::vector<double> t0 = exit_rates();
  // Choose initial state (or immediate absorption on the alpha deficit).
  double u = rng.uniform();
  std::size_t state = n;
  for (std::size_t i = 0; i < n; ++i) {
    if (u < alpha_[i]) {
      state = i;
      break;
    }
    u -= alpha_[i];
  }
  double time = 0.0;
  while (state < n) {
    const double exit = -t_(state, state);
    time += -std::log(rng.uniform_pos()) / exit;
    double pick = rng.uniform() * exit;
    std::size_t next = n;  // default: absorb
    for (std::size_t j = 0; j < n; ++j) {
      if (j == state) continue;
      if (pick < t_(state, j)) {
        next = j;
        break;
      }
      pick -= t_(state, j);
    }
    if (next == n && pick >= t0[state]) {
      // Numerical leftovers: absorb.
      next = n;
    }
    state = next;
  }
  return time;
}

std::string PhaseType::describe() const {
  std::ostringstream os;
  os << "phase_type(order=" << order() << ")";
  return os.str();
}

PhaseType PhaseType::exponential(double rate) {
  detail::require(rate > 0.0, "PhaseType::exponential: rate must be > 0");
  Matrix t(1, 1);
  t(0, 0) = -rate;
  return PhaseType({1.0}, t);
}

PhaseType PhaseType::erlang(unsigned k, double rate) {
  detail::require(k >= 1, "PhaseType::erlang: k must be >= 1");
  detail::require(rate > 0.0, "PhaseType::erlang: rate must be > 0");
  Matrix t(k, k);
  for (unsigned i = 0; i < k; ++i) {
    t(i, i) = -rate;
    if (i + 1 < k) t(i, i + 1) = rate;
  }
  std::vector<double> alpha(k, 0.0);
  alpha[0] = 1.0;
  return PhaseType(alpha, t);
}

PhaseType PhaseType::hypoexponential(const std::vector<double>& rates) {
  const std::size_t k = rates.size();
  detail::require(k >= 1, "PhaseType::hypoexponential: need stages");
  Matrix t(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    detail::require(rates[i] > 0.0,
                    "PhaseType::hypoexponential: rates must be > 0");
    t(i, i) = -rates[i];
    if (i + 1 < k) t(i, i + 1) = rates[i];
  }
  std::vector<double> alpha(k, 0.0);
  alpha[0] = 1.0;
  return PhaseType(alpha, t);
}

PhaseType PhaseType::hyperexponential(const std::vector<double>& probs,
                                      const std::vector<double>& rates) {
  detail::require(probs.size() == rates.size() && !probs.empty(),
                  "PhaseType::hyperexponential: size mismatch");
  const std::size_t k = probs.size();
  Matrix t(k, k);
  for (std::size_t i = 0; i < k; ++i) {
    detail::require(rates[i] > 0.0,
                    "PhaseType::hyperexponential: rates must be > 0");
    t(i, i) = -rates[i];
  }
  return PhaseType(probs, t);
}

PhaseType PhaseType::convolve(const PhaseType& x, const PhaseType& y) {
  const std::size_t nx = x.order();
  const std::size_t ny = y.order();
  const std::vector<double> x0 = x.exit_rates();
  Matrix t(nx + ny, nx + ny);
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < nx; ++j) t(i, j) = x.t()(i, j);
    for (std::size_t j = 0; j < ny; ++j) {
      t(i, nx + j) = x0[i] * y.alpha()[j];
    }
  }
  for (std::size_t i = 0; i < ny; ++i) {
    for (std::size_t j = 0; j < ny; ++j) t(nx + i, nx + j) = y.t()(i, j);
  }
  double y_deficit = 1.0;
  for (double a : y.alpha()) y_deficit -= a;
  std::vector<double> alpha(nx + ny, 0.0);
  for (std::size_t i = 0; i < nx; ++i) alpha[i] = x.alpha()[i];
  // Mass of X's atom at 0 starts directly in Y.
  double x_deficit = 1.0;
  for (double a : x.alpha()) x_deficit -= a;
  for (std::size_t j = 0; j < ny; ++j) {
    alpha[nx + j] = x_deficit * y.alpha()[j];
  }
  (void)y_deficit;  // absorbed mass handled implicitly by substochastic rows
  return PhaseType(alpha, t);
}

PhaseType PhaseType::mixture(double p, const PhaseType& x,
                             const PhaseType& y) {
  detail::require(p >= 0.0 && p <= 1.0, "PhaseType::mixture: p in [0,1]");
  const std::size_t nx = x.order();
  const std::size_t ny = y.order();
  Matrix t(nx + ny, nx + ny);
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < nx; ++j) t(i, j) = x.t()(i, j);
  }
  for (std::size_t i = 0; i < ny; ++i) {
    for (std::size_t j = 0; j < ny; ++j) t(nx + i, nx + j) = y.t()(i, j);
  }
  std::vector<double> alpha(nx + ny, 0.0);
  for (std::size_t i = 0; i < nx; ++i) alpha[i] = p * x.alpha()[i];
  for (std::size_t j = 0; j < ny; ++j) alpha[nx + j] = (1.0 - p) * y.alpha()[j];
  return PhaseType(alpha, t);
}

namespace {

// Kronecker helpers over dense matrices.
Matrix kron_sum(const Matrix& a, const Matrix& b) {
  const std::size_t na = a.rows();
  const std::size_t nb = b.rows();
  Matrix out(na * nb, na * nb);
  for (std::size_t i = 0; i < na; ++i) {
    for (std::size_t j = 0; j < na; ++j) {
      if (a(i, j) == 0.0) continue;
      for (std::size_t k = 0; k < nb; ++k) {
        out(i * nb + k, j * nb + k) += a(i, j);
      }
    }
  }
  for (std::size_t i = 0; i < na; ++i) {
    for (std::size_t k = 0; k < nb; ++k) {
      for (std::size_t l = 0; l < nb; ++l) {
        out(i * nb + k, i * nb + l) += b(k, l);
      }
    }
  }
  return out;
}

std::vector<double> kron_vec(const std::vector<double>& a,
                             const std::vector<double>& b) {
  std::vector<double> out(a.size() * b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      out[i * b.size() + j] = a[i] * b[j];
    }
  }
  return out;
}

}  // namespace

PhaseType PhaseType::minimum(const PhaseType& x, const PhaseType& y) {
  // min is absorbed when either chain absorbs: transient space is the
  // product of both transient spaces with the Kronecker sum generator.
  return PhaseType(kron_vec(x.alpha(), y.alpha()), kron_sum(x.t(), y.t()));
}

PhaseType PhaseType::maximum(const PhaseType& x, const PhaseType& y) {
  // max: product space while both run, then the survivor runs alone.
  const std::size_t nx = x.order();
  const std::size_t ny = y.order();
  const std::size_t n = nx * ny + nx + ny;
  const std::vector<double> x0 = x.exit_rates();
  const std::vector<double> y0 = y.exit_rates();
  Matrix t(n, n);
  // Block 1: both alive (nx*ny states, Kronecker sum), with absorption of
  // one side moving into the survivor blocks.
  const Matrix ks = kron_sum(x.t(), y.t());
  for (std::size_t i = 0; i < nx * ny; ++i) {
    for (std::size_t j = 0; j < nx * ny; ++j) t(i, j) = ks(i, j);
  }
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t k = 0; k < ny; ++k) {
      const std::size_t from = i * ny + k;
      // y absorbs -> x continues alone in block 2 (offset nx*ny).
      t(from, nx * ny + i) += y0[k];
      // x absorbs -> y continues alone in block 3 (offset nx*ny + nx).
      t(from, nx * ny + nx + k) += x0[i];
    }
  }
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < nx; ++j) {
      t(nx * ny + i, nx * ny + j) = x.t()(i, j);
    }
  }
  for (std::size_t k = 0; k < ny; ++k) {
    for (std::size_t l = 0; l < ny; ++l) {
      t(nx * ny + nx + k, nx * ny + nx + l) = y.t()(k, l);
    }
  }
  std::vector<double> alpha(n, 0.0);
  const std::vector<double> both = kron_vec(x.alpha(), y.alpha());
  double x_deficit = 1.0, y_deficit = 1.0;
  for (double a : x.alpha()) x_deficit -= a;
  for (double a : y.alpha()) y_deficit -= a;
  for (std::size_t i = 0; i < nx * ny; ++i) alpha[i] = both[i];
  // If one starts absorbed, the other runs alone.
  for (std::size_t i = 0; i < nx; ++i) {
    alpha[nx * ny + i] += y_deficit * x.alpha()[i];
  }
  for (std::size_t k = 0; k < ny; ++k) {
    alpha[nx * ny + nx + k] += x_deficit * y.alpha()[k];
  }
  return PhaseType(alpha, t);
}

PhaseType fit_moments(double mean, double cv) {
  detail::require(mean > 0.0, "fit_moments: mean must be > 0");
  detail::require(cv > 0.0, "fit_moments: cv must be > 0");
  const double cv2 = cv * cv;
  if (std::abs(cv2 - 1.0) < 1e-9) {
    return PhaseType::exponential(1.0 / mean);
  }
  if (cv2 < 1.0) {
    // Tijms' mixed Erlang E_{k-1,k}: k = smallest integer with cv2 >= 1/k.
    const auto k = static_cast<unsigned>(std::ceil(1.0 / cv2));
    if (k < 2) return PhaseType::exponential(1.0 / mean);
    const double kk = static_cast<double>(k);
    const double p =
        (kk * cv2 - std::sqrt(kk * (1.0 + cv2) - kk * kk * cv2)) /
        (1.0 + cv2);
    const double mu = (kk - p) / mean;
    // With prob p: Erlang(k-1, mu); else Erlang(k, mu). Build as one chain
    // of k stages where stage 1 is skipped with probability p.
    Matrix t(k, k);
    for (unsigned i = 0; i < k; ++i) {
      t(i, i) = -mu;
      if (i + 1 < k) t(i, i + 1) = mu;
    }
    std::vector<double> alpha(k, 0.0);
    alpha[0] = 1.0 - p;
    alpha[1] = p;
    return PhaseType(alpha, t);
  }
  // cv2 > 1: balanced-means 2-phase hyperexponential.
  const double p1 = 0.5 * (1.0 + std::sqrt((cv2 - 1.0) / (cv2 + 1.0)));
  const double l1 = 2.0 * p1 / mean;
  const double l2 = 2.0 * (1.0 - p1) / mean;
  return PhaseType::hyperexponential({p1, 1.0 - p1}, {l1, l2});
}

PhaseType fit_distribution(const Distribution& d) {
  return fit_moments(d.mean(), d.cv());
}

double cdf_distance(const Distribution& d, const PhaseType& ph,
                    unsigned points) {
  detail::require(points >= 2, "cdf_distance: need at least 2 points");
  double worst = 0.0;
  for (unsigned i = 1; i < points; ++i) {
    const double p = static_cast<double>(i) / points;
    const double x = d.quantile(p);
    worst = std::max(worst, std::abs(d.cdf(x) - ph.cdf(x)));
  }
  return worst;
}

}  // namespace relkit::phase
