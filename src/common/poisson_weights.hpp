// Stable Poisson probability weights for uniformization.
//
// Transient CTMC analysis by uniformization needs the Poisson pmf
// p_n = e^{-qt} (qt)^n / n! for n in a window around the mode, where qt can
// reach 10^6 and e^{-qt} underflows catastrophically. Following the idea of
// Fox & Glynn (CACM 1988), weights are accumulated outward from the mode in
// relative terms and normalized at the end, so no intermediate quantity
// under- or overflows.
#pragma once

#include <cstddef>
#include <vector>

namespace relkit {

/// Normalized Poisson weights covering at least mass 1 - eps.
struct PoissonWeights {
  /// Smallest n with a retained weight.
  std::size_t left = 0;
  /// weights[i] ~= Poisson(lambda) pmf at n = left + i, normalized so the
  /// retained window sums to exactly 1 (the discarded tail mass is
  /// redistributed proportionally — standard for uniformization, which needs
  /// a convex combination).
  std::vector<double> weights;
  /// Upper bound on the Poisson mass outside the window: each discarded
  /// tail is bounded by a geometric series from its first dropped term.
  /// Near eps, but not capped by it.
  double tail_mass = 0.0;
};

/// Computes the weight window for Poisson(lambda), lambda >= 0.
/// eps is the total tail mass allowed outside the window.
PoissonWeights poisson_weights(double lambda, double eps = 1e-12);

}  // namespace relkit
