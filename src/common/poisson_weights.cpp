#include "common/poisson_weights.hpp"

#include <cmath>
#include <deque>

#include "common/error.hpp"

namespace relkit {

PoissonWeights poisson_weights(double lambda, double eps) {
  detail::require(lambda >= 0.0, "poisson_weights: lambda must be >= 0");
  detail::require(eps > 0.0 && eps < 1.0, "poisson_weights: eps in (0,1)");

  PoissonWeights out;
  if (lambda == 0.0) {
    out.left = 0;
    out.weights = {1.0};
    return out;
  }

  const std::size_t mode = static_cast<std::size_t>(std::floor(lambda));

  // Unnormalized weights relative to the mode (w_mode = 1). Extend down and
  // up until the running term is negligible relative to the accumulated sum.
  std::deque<double> w{1.0};
  std::size_t left = mode;
  double total = 1.0;
  double dropped = 0.0;  // bound on the discarded terms, same scale as w

  // Downward: w_{n-1} = w_n * n / lambda.
  {
    double term = 1.0;
    std::size_t n = mode;
    while (n > 0) {
      term *= static_cast<double>(n) / lambda;
      if (term < eps * total && n < mode) {
        // term = w_{n-1}; the terms below it shrink by <= (n-1)/lambda < 1.
        dropped += term / (1.0 - (static_cast<double>(n) - 1.0) / lambda);
        break;
      }
      w.push_front(term);
      total += term;
      --n;
      left = n;
    }
  }
  // Upward: w_{n+1} = w_n * lambda / (n+1).
  {
    double term = 1.0;
    std::size_t n = mode;
    // Hard cap well beyond mode + 10 sqrt(lambda) as a safety net.
    const std::size_t cap =
        mode + 20 + static_cast<std::size_t>(12.0 * std::sqrt(lambda));
    bool capped = true;
    while (n < cap) {
      term *= lambda / static_cast<double>(n + 1);
      if (term < eps * total) {
        capped = false;
        break;
      }
      w.push_back(term);
      total += term;
      ++n;
    }
    // The first dropped term is w_{n+1}; the terms above it shrink by
    // <= lambda / (n + 2) < 1, since n >= floor(lambda).
    if (capped) term *= lambda / static_cast<double>(n + 1);
    dropped += term / (1.0 - lambda / static_cast<double>(n + 2));
  }

  out.left = left;
  out.weights.assign(w.begin(), w.end());
  out.tail_mass = dropped / (total + dropped);
  const double inv = 1.0 / total;
  for (double& x : out.weights) x *= inv;
  return out;
}

}  // namespace relkit
