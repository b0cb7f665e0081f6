// monte_carlo: uncertainty::propagate over a repairable RBD,
// SystemSimulator replications with Weibull lifetimes, and rare-event
// importance sampling on the sip_cluster availability CTMC. Every estimator
// runs with jobs = 1 and a seed derived from --seed and the block, and a
// fixed amount of work (samples, replications, cycles), so counts repeat.
#include <cmath>
#include <cstdio>
#include <map>

#include "common/distributions.hpp"
#include "common/rng.hpp"
#include "harness.hpp"
#include "markov/ctmc.hpp"
#include "oracle.hpp"
#include "rbd/rbd.hpp"
#include "sim/rare_event.hpp"
#include "sim/simulator.hpp"
#include "uncertainty/uncertainty.hpp"

namespace relbench {
namespace {

constexpr double kBlocksPerSecond = 13.0;
constexpr std::size_t kSamples = 6000;        // propagate
constexpr std::size_t kReplications = 120000; // SystemSimulator
constexpr std::size_t kCycles = 80000;        // rare-event IS
constexpr std::size_t kOpsPerBlock = 3;
/// Statistical checks accept |estimate - exact| up to this many 95%
/// half-widths (about 8 standard errors), so that a correct change of
/// random streams cannot fail them.
constexpr double kWide = 4.0;

struct BlockSpec {
  std::uint64_t stream = 0;
  // propagate: three parallel pairs in series, lambda_j ~ U(lo_j, hi_j).
  double lo[3] = {}, hi[3] = {}, mu[3] = {};
  // Weibull: 2-of-3 units in series with a fourth, evaluated at t.
  double shape = 0.0, scale = 0.0, t = 0.0;
};

BlockSpec make_spec(std::uint64_t seed, std::size_t block) {
  InputRng rng(seed * 0xd1342543de82ef95ULL + block + 29);
  BlockSpec s;
  s.stream = rng.next();
  for (int j = 0; j < 3; ++j) {
    s.lo[j] = rng.log_uniform(1e-4, 1e-3);
    s.hi[j] = s.lo[j] * rng.uniform(2.0, 10.0);
    s.mu[j] = rng.uniform(0.02, 0.2);
  }
  s.shape = rng.uniform(1.2, 3.0);
  s.scale = rng.uniform(5000.0, 20000.0);
  s.t = s.scale * rng.uniform(0.3, 0.8);
  return s;
}

// ---- propagate ------------------------------------------------------------------

constexpr const char* kUnitA[] = {"a0", "a1", "a2"};
constexpr const char* kUnitB[] = {"b0", "b1", "b2"};
constexpr const char* kRate[] = {"l0", "l1", "l2"};

struct PairedRbd {
  relkit::rbd::Rbd rbd;
  PairedRbd()
      : rbd(make_root(), {{"a0", relkit::ComponentModel::fixed(1.0)},
                          {"b0", relkit::ComponentModel::fixed(1.0)},
                          {"a1", relkit::ComponentModel::fixed(1.0)},
                          {"b1", relkit::ComponentModel::fixed(1.0)},
                          {"a2", relkit::ComponentModel::fixed(1.0)},
                          {"b2", relkit::ComponentModel::fixed(1.0)}}) {}
  static relkit::rbd::BlockPtr make_root() {
    using relkit::rbd::Block;
    std::vector<relkit::rbd::BlockPtr> pairs;
    for (int j = 0; j < 3; ++j) {
      pairs.push_back(Block::parallel(
          {Block::component(kUnitA[j]), Block::component(kUnitB[j])}));
    }
    return Block::series(std::move(pairs));
  }
};

relkit::uncertainty::UncertaintyResult propagate(const BlockSpec& s,
                                                 const PairedRbd& model) {
  std::vector<relkit::uncertainty::ParamSpec> params;
  for (int j = 0; j < 3; ++j) {
    params.push_back({kRate[j], relkit::uniform(s.lo[j], s.hi[j])});
  }
  const double mu[3] = {s.mu[0], s.mu[1], s.mu[2]};
  const relkit::uncertainty::ModelFn fn =
      [&model, mu](const std::map<std::string, double>& p) {
        std::map<std::string, double> up;
        for (int j = 0; j < 3; ++j) {
          const double a = mu[j] / (p.at(kRate[j]) + mu[j]);
          up[kUnitA[j]] = a;
          up[kUnitB[j]] = a;
        }
        return model.rbd.prob_up(up);
      };
  relkit::Rng rng(s.stream);
  return relkit::uncertainty::propagate(
      params, fn, kSamples, rng,
      relkit::uncertainty::Sampling::kLatinHypercube, 1);
}

/// E[A] = prod_j (1 - E[(l_j / (l_j + mu_j))^2]), independent pairs.
double propagate_exact(const BlockSpec& s) {
  double a = 1.0;
  for (int j = 0; j < 3; ++j) {
    a *= 1.0 - oracle::mean_square_ratio_uniform(s.lo[j], s.hi[j], s.mu[j]);
  }
  return a;
}

// ---- Weibull replications -----------------------------------------------------

relkit::sim::Estimate weibull_replications(const BlockSpec& s) {
  std::vector<relkit::sim::SimComponent> units;
  for (int i = 0; i < 4; ++i) {
    units.push_back({relkit::weibull(s.shape, s.scale), nullptr});
  }
  const relkit::sim::SystemSimulator sim(
      std::move(units), [](const std::vector<bool>& up) {
        const int pool = up[0] + up[1] + up[2];
        return pool >= 2 && up[3];
      });
  return sim.availability_at(s.t, kReplications, s.stream ^ 0x5bd1e995ULL);
}

double weibull_exact(const BlockSpec& s) {
  const double r = std::exp(-std::pow(s.t / s.scale, s.shape));
  return (3.0 * r * r - 2.0 * r * r * r) * r;
}

// ---- rare event on sip_cluster ------------------------------------------------

/// sip_cluster.rbd: proxies 1-of-2 (lambda 1e-4, mu 1), apps 4-of-6
/// (lambda 1e-4, mu 2), one repairer per component; state = failed mask.
struct SipCluster {
  relkit::markov::Ctmc chain;
  static constexpr double kLambda = 1e-4, kMuProxy = 1.0, kMuApp = 2.0;
  static bool up(std::size_t mask) {
    const int proxies_up = !(mask & 1) + !(mask & 2);
    int apps_up = 0;
    for (int i = 2; i < 8; ++i) apps_up += !(mask & (1u << i));
    return proxies_up >= 1 && apps_up >= 4;
  }
  SipCluster() {
    chain.add_states(256);
    for (std::size_t m = 0; m < 256; ++m) {
      for (int i = 0; i < 8; ++i) {
        const std::size_t bit = std::size_t{1} << i;
        const double mu = i < 2 ? kMuProxy : kMuApp;
        if (m & bit) {
          chain.add_transition(m, m & ~bit, mu);
        } else {
          chain.add_transition(m, m | bit, kLambda);
        }
      }
    }
  }
  static double exact_unavailability() {
    const double qp = kLambda / (kLambda + kMuProxy);
    const double qa = kLambda / (kLambda + kMuApp);
    const double proxies = 1.0 - qp * qp;
    const std::vector<double> apps(6, 1.0 - qa);
    return 1.0 - proxies * oracle::at_least_k(apps, 4);
  }
};

relkit::sim::Estimate rare(const SipCluster& sip, std::uint64_t seed,
                           Tracer* tracer) {
  const relkit::sim::CtmcRareModel model(
      sip.chain, [](relkit::markov::StateId s) { return SipCluster::up(s); });
  relkit::sim::RareEventOptions opts;
  opts.method = relkit::sim::RareMethod::kImportanceSampling;
  opts.relative_error = 1e-9;  // never met: every run makes kCycles cycles
  opts.max_cycles = kCycles;
  opts.batch = kCycles;
  opts.jobs = 1;
  Span span(tracer, "sim.rare");
  return relkit::sim::rare_unavailability(model, seed, opts);
}

std::uint64_t rare_seed(const BlockSpec& s) {
  return s.stream ^ 0x2545f4914f6cdd1dULL;
}

struct BlockResult {
  relkit::uncertainty::UncertaintyResult propagated;
  relkit::sim::Estimate weibull, rare;
};

/// One block: propagate, Weibull replications, rare event. Raw
/// per-operation latencies go to `timer` when it is given.
BlockResult run_block(const BlockSpec& s, const PairedRbd& model,
                      const SipCluster& sip, Tracer* tracer, BlockTimer* timer) {
  BlockResult r;
  Clock::time_point t0 = Clock::now();
  const auto done = [&]() {
    if (timer != nullptr) timer->add_op(seconds_since(t0));
    t0 = Clock::now();
  };
  {
    Span span(tracer, "uncertainty.propagate");
    r.propagated = propagate(s, model);
  }
  done();
  {
    Span span(tracer, "sim.replications");
    r.weibull = weibull_replications(s);
  }
  done();
  r.rare = rare(sip, rare_seed(s), tracer);
  done();
  return r;
}

/// |estimate - exact| within kWide 95% half-widths.
bool covers(double estimate, double half_width, double exact) {
  return std::fabs(estimate - exact) <= kWide * half_width;
}

double propagate_half_width(const BlockResult& r) {
  return 1.96 * r.propagated.stddev /
         std::sqrt(static_cast<double>(r.propagated.samples.size()));
}

bool check_block(const BlockSpec& s, const BlockResult& r, Checks& checks) {
  bool ok = checks.expect(
      "mc.propagate_mean",
      covers(r.propagated.mean, propagate_half_width(r), propagate_exact(s)),
      "mean " + std::to_string(r.propagated.mean));
  ok &= checks.expect("mc.weibull_replications",
                      covers(r.weibull.mean, r.weibull.half_width, weibull_exact(s)),
                      "estimate " + std::to_string(r.weibull.mean));
  ok &= checks.expect(
      "mc.rare_is_sip_cluster",
      r.rare.replications == kCycles &&
          covers(r.rare.mean, r.rare.half_width,
                 SipCluster::exact_unavailability()),
      "estimate " + std::to_string(r.rare.mean) + " +- " +
          std::to_string(r.rare.half_width));
  return ok;
}

/// Negative cases: each estimate moved by (kWide + 1) half-widths; and the
/// same seed must reproduce an estimate bit for bit, which a relative
/// 1e-6 change breaks.
void negative_cases(const BlockSpec& s, const BlockResult& r,
                    const PairedRbd& model, const SipCluster& sip,
                    Checks& checks) {
  const double exact = propagate_exact(s);
  const double hw = propagate_half_width(r);
  checks.negative("mc.propagate_mean",
                  !covers(exact + (kWide + 1.0) * hw, hw, exact),
                  "mean + 5 half-widths");
  checks.negative("mc.weibull_replications",
                  !covers(weibull_exact(s) + (kWide + 1.0) * r.weibull.half_width,
                          r.weibull.half_width, weibull_exact(s)),
                  "estimate + 5 half-widths");
  const double u = SipCluster::exact_unavailability();
  checks.negative("mc.rare_is_sip_cluster",
                  !covers(u + (kWide + 1.0) * r.rare.half_width,
                          r.rare.half_width, u),
                  "estimate + 5 half-widths");
  const BlockResult again = run_block(s, model, sip, nullptr, nullptr);
  const auto same = [](double a, double b) { return a == b; };
  checks.expect("mc.same_seed_same_estimates",
                same(again.propagated.mean, r.propagated.mean) &&
                    same(again.weibull.mean, r.weibull.mean) &&
                    same(again.rare.mean, r.rare.mean),
                "re-run of block 0");
  checks.negative("mc.same_seed_same_estimates",
                  !same(r.rare.mean * (1.0 + 1e-6), r.rare.mean),
                  "rare estimate x(1+1e-6)");
}

}  // namespace

Outcome run_monte_carlo(const RunConfig& config) {
  Outcome out;
  Checks checks;
  // Cold set-up: from the process's start to the workload's first result,
  // the propagation of block 0.
  double setup_s = 0.0;
  {
    const BlockSpec spec = make_spec(config.seed, 0);
    const PairedRbd first_model;
    const relkit::uncertainty::UncertaintyResult r = propagate(spec, first_model);
    setup_s = seconds_since(config.start);
    const double hw = 1.96 * r.stddev / std::sqrt(static_cast<double>(r.samples.size()));
    checks.expect("mc.propagate_mean", covers(r.mean, hw, propagate_exact(spec)),
                  "cold set-up");
  }
  std::printf("pinned to cpu %d\n", pin_to_fastest_cpu());
  const PairedRbd model;
  const SipCluster sip;
  const std::size_t blocks = block_count(config.seconds, kBlocksPerSecond);
  BlockTimer timer;
  for (std::size_t b = 0; b < blocks; ++b) {
    const BlockSpec spec = make_spec(config.seed, b);
    const Clock::time_point t0 = Clock::now();
    const BlockResult r = run_block(spec, model, sip, nullptr, &timer);
    timer.add_block(seconds_since(t0));
    out.attempted += kOpsPerBlock;
    if (!check_block(spec, r, checks)) out.correct = false;
    if (b == 0) negative_cases(spec, r, model, sip, checks);
  }
  print_latency_reference("monte_carlo", timer.op_seconds());
  std::printf("reference chunk median %.4f ms\n", timer.reference_ms());
  checks.print();
  out.correct = out.correct && checks.all_ok();
  out.metrics = {{"op_ms", timer.op_ms(kOpsPerBlock), "ms", blocks},
                 {"setup_s", setup_s, "s", 1},
                 {"peak_rss_mb", peak_rss_mb(0), "MB", 1}};
  return out;
}

void layers_monte_carlo(const RunConfig& config, Tracer& tracer,
                        Checks& checks, LayerMetrics& out, OwnPass* own) {
  const PairedRbd model;
  const SipCluster sip;
  const std::size_t blocks =
      own != nullptr ? block_count(config.seconds, kBlocksPerSecond) : 6;
  std::vector<double> plain, traced, cycles;
  BlockTimer timer;
  for (std::size_t b = 0; b < blocks; ++b) {
    const BlockSpec spec = make_spec(config.seed, b);
    const bool with_spans = own == nullptr || b % 2 == 1;
    const Clock::time_point t0 = Clock::now();
    const BlockResult r = run_block(spec, model, sip, with_spans ? &tracer : nullptr, nullptr);
    (with_spans ? traced : plain).push_back(timer.add_block(seconds_since(t0)));
    check_block(spec, r, checks);
    if (b == 0) negative_cases(spec, r, model, sip, checks);
    cycles.push_back(static_cast<double>(r.rare.replications));
  }
  if (own != nullptr) {
    own->overhead = quantile(traced, 0.5) / quantile(plain, 0.5);
    own->attempted = blocks * kOpsPerBlock;
  }
  const std::vector<double> reps = tracer.durations("sim.replications");
  const std::vector<double> rare_s = tracer.durations("sim.rare");
  const std::vector<double> prop = tracer.durations("uncertainty.propagate");
  out.push_back({"sim.replications_per_s", kReplications / mean(reps), "1/s",
                 reps.size()});
  out.push_back({"sim.rare.cycles", mean(cycles), "count", cycles.size()});
  out.push_back({"sim.rare_ms", mean(rare_s) * 1e3, "ms", rare_s.size()});
  out.push_back({"uncertainty.samples_per_s", kSamples / mean(prop), "1/s",
                 prop.size()});
}

}  // namespace relbench
