#include "uncertainty/uncertainty.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"

namespace relkit::uncertainty {

double UncertaintyResult::percentile(double p) const {
  return relkit::percentile(samples, p);
}

std::pair<double, double> UncertaintyResult::interval(double level) const {
  detail::require(level > 0.0 && level < 1.0,
                  "UncertaintyResult::interval: level in (0,1)");
  const double tail = 0.5 * (1.0 - level);
  return {percentile(tail), percentile(1.0 - tail)};
}

UncertaintyResult propagate(const std::vector<ParamSpec>& params,
                            const ModelFn& model, std::size_t n, Rng& rng,
                            Sampling sampling, std::size_t jobs) {
  detail::require(!params.empty(), "propagate: no parameters");
  detail::require(model != nullptr, "propagate: null model");
  detail::require(n >= 2, "propagate: need at least 2 samples");
  for (const auto& p : params) {
    detail::require(p.dist != nullptr,
                    "propagate: null distribution for '" + p.name + "'");
    detail::require(!p.name.empty(), "propagate: empty parameter name");
  }
  const std::size_t k = params.size();

  // For LHS: per-parameter random permutation of strata.
  std::vector<std::vector<std::size_t>> strata;
  if (sampling == Sampling::kLatinHypercube) {
    strata.assign(k, {});
    for (std::size_t j = 0; j < k; ++j) {
      strata[j].resize(n);
      for (std::size_t i = 0; i < n; ++i) strata[j][i] = i;
      // Fisher-Yates.
      for (std::size_t i = n; i-- > 1;) {
        std::swap(strata[j][i], strata[j][rng.below(i + 1)]);
      }
    }
  }

  // Sample i draws from the i-th split() of `rng`, so its parameter values
  // depend only on the seed and i — never on the worker count. Sample
  // outputs land at their index, and per-chunk moment accumulators merge
  // in chunk order (see docs/parallelism.md for the determinism contract).
  const parallel::PoolLease lease(static_cast<unsigned>(jobs));
  obs::Span span("uncertainty.propagate");
  span.set("samples", n);
  span.set("jobs", static_cast<std::uint64_t>(lease.jobs()));
  UncertaintyResult out;
  out.samples.assign(n, 0.0);
  const OnlineStats stats = parallel::seeded_reduce<OnlineStats>(
      lease, rng, n, OnlineStats{},
      [&](std::size_t begin, std::size_t end, Rng& streams) {
        OnlineStats local;
        std::map<std::string, double> assignment;
        for (std::size_t i = begin; i < end; ++i) {
          Rng stream = streams.split();
          for (std::size_t j = 0; j < k; ++j) {
            double draw;
            if (sampling == Sampling::kLatinHypercube) {
              // Uniform within the assigned stratum, inverse-cdf transform.
              const double u =
                  (static_cast<double>(strata[j][i]) + stream.uniform()) /
                  static_cast<double>(n);
              const double clamped = std::min(std::max(u, 1e-12), 1.0 - 1e-12);
              draw = params[j].dist->quantile(clamped);
            } else {
              draw = params[j].dist->sample(stream);
            }
            assignment[params[j].name] = draw;
          }
          const double y = model(assignment);
          detail::require(std::isfinite(y),
                          "propagate: model returned a non-finite value");
          out.samples[i] = y;
          local.add(y);
        }
        return local;
      },
      [](OnlineStats& acc, const OnlineStats& chunk) { acc.merge(chunk); });
  out.mean = stats.mean();
  out.stddev = stats.stddev();
  return out;
}

DistPtr rate_posterior(double failures, double total_time, double prior_shape,
                       double prior_rate) {
  detail::require(failures >= 0.0, "rate_posterior: failures must be >= 0");
  detail::require(total_time > 0.0, "rate_posterior: total_time must be > 0");
  detail::require(prior_shape > 0.0 && prior_rate >= 0.0,
                  "rate_posterior: bad prior");
  return gamma_dist(prior_shape + failures, prior_rate + total_time);
}

DistPtr probability_posterior(double successes, double trials, double prior_a,
                              double prior_b) {
  detail::require(successes >= 0.0 && trials >= successes,
                  "probability_posterior: need 0 <= successes <= trials");
  detail::require(prior_a > 0.0 && prior_b > 0.0,
                  "probability_posterior: bad prior");
  return beta_dist(prior_a + successes, prior_b + trials - successes);
}

}  // namespace relkit::uncertainty
