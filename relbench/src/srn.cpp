// srn_cluster layer pass (traced runs only; not a gated workload): seeded
// multi-tier unit pools with failure and repair, expressed as stochastic
// reward nets of exactly 10^4 tangible markings. Even nets are product-form
// (one repairer per tier), odd nets share one repair facility across tiers.
// Each operation is Srn::generate, then Ctmc::steady_state through the auto
// chain, then a reward. Every net is distinct, so the solution cache can
// only cost here.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "harness.hpp"
#include "markov/ctmc.hpp"
#include "markov/solution_cache.hpp"
#include "oracle.hpp"
#include "spn/srn.hpp"

namespace relbench {
namespace {

constexpr int kSharedCrews = 2;

/// Tier sizes whose marking count prod(n_i + 1) is exactly 10^4.
constexpr int kShapes[][4] = {{9, 9, 9, 9},  {4, 19, 9, 9}, {3, 24, 9, 9},
                              {7, 4, 24, 9}, {4, 4, 19, 19}, {3, 4, 24, 19},
                              {4, 4, 15, 24}, {7, 9, 4, 24}};

struct NetSpec {
  std::vector<int> units;
  std::vector<double> lambda, mu;
  std::vector<int> need;  ///< units a tier needs up
  bool shared = false;    ///< one repair facility for all tiers
};

NetSpec make_spec(std::uint64_t seed, std::size_t block) {
  InputRng rng(seed * 0x100000001b3ULL + block);
  NetSpec s;
  const auto& shape = kShapes[rng.range(0, 7)];
  s.shared = block % 2 == 1;
  for (const int n : shape) {
    s.units.push_back(n);
    s.lambda.push_back(rng.log_uniform(0.02, 0.08));
    s.mu.push_back(rng.uniform(0.4, 1.0));
    s.need.push_back((n + 1) / 2);
  }
  return s;
}

struct Net {
  relkit::spn::Srn srn;
  std::vector<relkit::spn::PlaceId> up, down;
};

Net build_net(const NetSpec& s) {
  Net net;
  for (std::size_t i = 0; i < s.units.size(); ++i) {
    net.up.push_back(net.srn.add_place("up" + std::to_string(i),
                                       static_cast<std::uint32_t>(s.units[i])));
    net.down.push_back(net.srn.add_place("down" + std::to_string(i), 0));
  }
  const std::vector<relkit::spn::PlaceId> downs = net.down;
  for (std::size_t i = 0; i < s.units.size(); ++i) {
    const relkit::spn::PlaceId u = net.up[i], d = net.down[i];
    const double lambda = s.lambda[i], mu = s.mu[i];
    const auto fail = net.srn.add_timed(
        "fail" + std::to_string(i),
        [u, lambda](const relkit::spn::Marking& m) { return lambda * m[u]; });
    net.srn.add_input_arc(fail, u);
    net.srn.add_output_arc(fail, d);
    relkit::spn::TransId repair;
    if (!s.shared) {
      repair = net.srn.add_timed("repair" + std::to_string(i), mu);
    } else {
      // Processor-shared facility: kSharedCrews crews split evenly over
      // every failed unit of every tier.
      repair = net.srn.add_timed(
          "repair" + std::to_string(i),
          [downs, d, mu](const relkit::spn::Marking& m) {
            double failed = 0.0;
            for (const auto p : downs) failed += m[p];
            return mu * m[d] * std::min(1.0, kSharedCrews / failed);
          });
    }
    net.srn.add_input_arc(repair, d);
    net.srn.add_output_arc(repair, u);
  }
  return net;
}

/// Rates of the net's transitions out of marking `m`, recomputed from the
/// spec (not from the library's generator).
template <typename Visit>
void successors(const NetSpec& s, const Net& net,
                const relkit::spn::Marking& m, Visit visit) {
  double failed = 0.0;
  for (const auto p : net.down) failed += m[p];
  for (std::size_t i = 0; i < s.units.size(); ++i) {
    const auto u = net.up[i], d = net.down[i];
    if (m[u] > 0) {
      relkit::spn::Marking next = m;
      --next[u];
      ++next[d];
      visit(next, s.lambda[i] * m[u]);
    }
    if (m[d] > 0) {
      relkit::spn::Marking next = m;
      ++next[u];
      --next[d];
      visit(next, s.shared ? s.mu[i] * m[d] * std::min(1.0, kSharedCrews / failed)
                           : s.mu[i]);
    }
  }
}

struct OpResult {
  relkit::spn::GeneratedChain chain;
  std::vector<double> pi;
  double reward = 0.0;
  relkit::robust::SolveReport report;
};

/// Steady-state P(every tier has at least `need` units up).
double reward_of(const NetSpec& s, const Net& net, const OpResult& r) {
  double total = 0.0;
  for (std::size_t k = 0; k < r.pi.size(); ++k) {
    bool up = true;
    for (std::size_t i = 0; i < s.units.size(); ++i) {
      up = up && r.chain.markings[k][net.up[i]] >=
                     static_cast<std::uint32_t>(s.need[i]);
    }
    if (up) total += r.pi[k];
  }
  return total;
}

OpResult run_op(const NetSpec& s, const Net& net, Tracer* tracer) {
  OpResult r;
  {
    Span span(tracer, "spn.generate");
    r.chain = net.srn.generate();
  }
  {
    Span span(tracer, "markov.steady");
    r.pi = r.chain.ctmc.steady_state({}, &r.report);
  }
  r.reward = reward_of(s, net, r);
  return r;
}

/// max |pi Q| over states, with Q rebuilt from the spec, relative to the
/// largest probability flow out of one state; or |sum pi - 1| if larger.
/// Returns infinity when a successor marking is missing from the chain.
double residual(const NetSpec& s, const Net& net,
                const std::vector<relkit::spn::Marking>& markings,
                const std::vector<double>& pi) {
  // Markings are indexed by their failed-unit counts in mixed radix.
  auto key = [&](const relkit::spn::Marking& m) {
    std::size_t k = 0;
    for (std::size_t i = 0; i < s.units.size(); ++i) {
      k = k * static_cast<std::size_t>(s.units[i] + 1) + m[net.down[i]];
    }
    return k;
  };
  std::vector<std::size_t> index(10000, markings.size());
  for (std::size_t i = 0; i < markings.size(); ++i) {
    const std::size_t k = key(markings[i]);
    if (k >= index.size()) return INFINITY;
    index[k] = i;
  }
  std::vector<double> flow(pi.size(), 0.0);
  bool complete = true;
  double sum = 0.0, largest_out = 0.0;
  for (std::size_t i = 0; i < markings.size(); ++i) {
    sum += pi[i];
    const double before = flow[i];
    successors(s, net, markings[i], [&](const relkit::spn::Marking& next,
                                        double rate) {
      const std::size_t k = key(next);
      if (k >= index.size() || index[k] == markings.size()) {
        complete = false;
        return;
      }
      flow[i] -= pi[i] * rate;
      flow[index[k]] += pi[i] * rate;
    });
    largest_out = std::max(largest_out, before - flow[i]);
  }
  if (!complete) return INFINITY;
  double worst = 0.0;
  for (const double f : flow) worst = std::max(worst, std::fabs(f));
  return std::max(std::fabs(sum - 1.0), worst / largest_out);
}

/// Product of the tiers' closed-form birth-death distributions.
std::vector<double> product_form(const NetSpec& s, const Net& net,
                                 const std::vector<relkit::spn::Marking>& ms) {
  std::vector<std::vector<double>> tiers;
  for (std::size_t i = 0; i < s.units.size(); ++i) {
    tiers.push_back(oracle::pool_distribution(s.units[i], s.lambda[i], s.mu[i]));
  }
  std::vector<double> out;
  for (const auto& m : ms) {
    double p = 1.0;
    for (std::size_t i = 0; i < s.units.size(); ++i) p *= tiers[i][m[net.down[i]]];
    out.push_back(p);
  }
  return out;
}

double product_form_reward(const NetSpec& s) {
  double p = 1.0;
  for (std::size_t i = 0; i < s.units.size(); ++i) {
    p *= oracle::pool_availability(s.units[i], s.need[i], s.lambda[i], s.mu[i]);
  }
  return p;
}

constexpr double kResidualTol = 1e-8;  // relative to the largest outflow
constexpr double kProductTol = 5e-10; // absolute, per marking
constexpr double kRewardTol = 1e-7;   // relative

bool markings_ok(std::size_t count) { return count == 10000; }

bool product_ok(const std::vector<double>& pi, const std::vector<double>& want) {
  if (pi.size() != want.size()) return false;
  for (std::size_t i = 0; i < pi.size(); ++i) {
    if (!close(pi[i], want[i], 0.0, kProductTol)) return false;
  }
  return true;
}

/// Checks one operation; returns false on a wrong answer.
bool check_op(const NetSpec& s, const Net& net, const OpResult& r,
              Checks& checks) {
  bool ok = checks.expect("srn.markings_10k", markings_ok(r.chain.markings.size()),
                          std::to_string(r.chain.markings.size()) + " markings");
  ok &= checks.expect(
      "srn.residual_from_spec",
      residual(s, net, r.chain.markings, r.pi) <= kResidualTol, "residual");
  if (!s.shared) {
    ok &= checks.expect("srn.product_form",
                        product_ok(r.pi, product_form(s, net, r.chain.markings)),
                        "pi vs product of tier distributions");
    ok &= checks.expect("srn.reward_product_form",
                        close(r.reward, product_form_reward(s), kRewardTol, 1e-13),
                        "reward " + std::to_string(r.reward));
  }
  return ok;
}

/// Negative cases: the largest probability scaled by 1 + 1e-6.
void negative_cases(const NetSpec& s, const Net& net, const OpResult& r,
                    Checks& checks) {
  std::vector<double> bad = r.pi;
  const std::size_t top = static_cast<std::size_t>(
      std::max_element(bad.begin(), bad.end()) - bad.begin());
  bad[top] *= 1.0 + 1e-6;
  checks.negative("srn.residual_from_spec",
                  residual(s, net, r.chain.markings, bad) > kResidualTol,
                  "largest pi x(1+1e-6)");
  checks.negative("srn.markings_10k", !markings_ok(9999), "9999 markings");
  if (!s.shared) {
    checks.negative("srn.product_form",
                    !product_ok(bad, product_form(s, net, r.chain.markings)),
                    "largest pi x(1+1e-6)");
    const double want = product_form_reward(s);
    checks.negative("srn.reward_product_form",
                    !close(want * (1.0 + 1e-6), want, kRewardTol, 1e-13),
                    "reward x(1+1e-6)");
  }
}

}  // namespace

void layers_srn_cluster(const RunConfig& config, Tracer& tracer,
                        Checks& checks, LayerMetrics& out) {
  using relkit::robust::SolverChoice;
  auto& cache = relkit::markov::SolutionCache::instance();
  std::vector<double> attempts, iterations, bytes, markings, cache_tax;
  for (std::size_t b = 0; b < 6; ++b) {
    const NetSpec spec = make_spec(config.seed, b);
    const Net net = build_net(spec);
    const OpResult r = run_op(spec, net, &tracer);
    check_op(spec, net, r, checks);
    if (b == 0) negative_cases(spec, net, r, checks);
    attempts.push_back(static_cast<double>(r.report.attempts.size()));
    iterations.push_back(static_cast<double>(r.report.iterations));
    markings.push_back(static_cast<double>(r.chain.markings.size()));
    // Computed traffic of one SOR-style sweep over the CSR generator
    // (8-byte values and indices, row pointers and the iterate).
    const double nnz =
        static_cast<double>(r.chain.ctmc.sparse_generator().nnz());
    const double n = static_cast<double>(r.pi.size());
    bytes.push_back(static_cast<double>(r.report.iterations) *
                    (nnz * 16.0 + n * 24.0));

    // Cache tax: the same solve as a cache miss (key built, result
    // inserted) minus the solve with the cache bypassed.
    for (int rep = 0; rep < 2; ++rep) {
      relkit::markov::SteadyStateOptions off;
      off.use_cache = false;
      cache.clear();
      const Clock::time_point t0 = Clock::now();
      const std::vector<double> with_cache = r.chain.ctmc.steady_state();
      const double on_s = seconds_since(t0);
      const Clock::time_point t1 = Clock::now();
      const std::vector<double> without = r.chain.ctmc.steady_state(off);
      cache_tax.push_back(on_s - seconds_since(t1));
      checks.expect("srn.residual_from_spec",
                    residual(spec, net, r.chain.markings, without) <=
                        kResidualTol,
                    "cache off");
    }
    for (const auto& [choice, name] :
         {std::pair{SolverChoice::kSor, "solver.sor"},
          std::pair{SolverChoice::kBicgstab, "solver.bicgstab"}}) {
      relkit::markov::SteadyStateOptions forced;
      forced.use_cache = false;
      forced.solver = choice;
      std::vector<double> pi;
      {
        Span span(&tracer, name);
        pi = r.chain.ctmc.steady_state(forced);
      }
      checks.expect("srn.residual_from_spec",
                    residual(spec, net, r.chain.markings, pi) <= kResidualTol,
                    name);
    }
  }
  cache.clear();
  const std::vector<double> gen = tracer.durations("spn.generate");
  const std::vector<double> steady = tracer.durations("markov.steady");
  const std::vector<double> sor = tracer.durations("solver.sor");
  const std::vector<double> bicg = tracer.durations("solver.bicgstab");
  out.push_back({"spn.generate_ms", mean(gen) * 1e3, "ms", gen.size()});
  out.push_back({"spn.markings", mean(markings), "count", markings.size()});
  out.push_back({"markov.steady_ms", mean(steady) * 1e3, "ms", steady.size()});
  out.push_back({"markov.cache_tax_ms", quantile(cache_tax, 0.5) * 1e3, "ms",
                 cache_tax.size()});
  out.push_back({"solver.sor_ms", mean(sor) * 1e3, "ms", sor.size()});
  out.push_back({"solver.bicgstab_ms", mean(bicg) * 1e3, "ms", bicg.size()});
  out.push_back({"robust.attempts", mean(attempts), "count", attempts.size()});
  out.push_back(
      {"solver.iterations", mean(iterations), "count", iterations.size()});
  out.push_back({"common.bytes_per_solve", mean(bytes), "bytes", bytes.size()});
}

}  // namespace relbench
