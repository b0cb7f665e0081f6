// long_horizon: the rejuvenation MRGP of examples/rejuvenation.cpp swept
// over deterministic intervals from 10^2 h to 2*10^4 h, plus
// Ctmc::transient and Ctmc::cumulative_time on a 400-state availability
// chain at q*t = 10^4. Uniformization is nearly all of the time.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/distributions.hpp"
#include "harness.hpp"
#include "markov/ctmc.hpp"
#include "oracle.hpp"
#include "robust/report.hpp"
#include "semimarkov/mrgp.hpp"

namespace relbench {
namespace {

constexpr double kBlocksPerSecond = 12.0;
constexpr double kIntervals[] = {1e2, 1e3, 1e4, 2e4};
constexpr double kQt = 1e4;           // uniformization mean of the chain ops
constexpr int kStates = 400;          // (n1 + 1) (n2 + 1)
constexpr int kPairs[][2] = {{19, 19}, {9, 39}, {7, 49}, {4, 79},
                             {15, 24}, {24, 15}, {39, 9}, {49, 7}};
constexpr double kRejuvRate = 10.0;   // 6-minute restart
constexpr std::size_t kOpsPerBlock = std::size(kIntervals) + 2;

struct BlockSpec {
  double aging = 0.0, crash = 0.0, repair_mean = 0.0;
  int n1 = 0, n2 = 0;
  double lambda1 = 0.0, lambda2 = 0.0, mu1 = 0.0, mu2 = 0.0;
  double t = 0.0;  ///< horizon giving q*t = kQt
};

BlockSpec make_spec(std::uint64_t seed, std::size_t block) {
  InputRng rng(seed * 0x9e3779b97f4a7c15ULL + block + 17);
  BlockSpec s;
  s.aging = 1.0 / rng.log_uniform(300.0, 800.0);
  s.crash = 1.0 / rng.log_uniform(150.0, 400.0);
  s.repair_mean = rng.uniform(2.0, 4.0);
  const auto& pair = kPairs[rng.range(0, 7)];
  s.n1 = pair[0];
  s.n2 = pair[1];
  s.lambda1 = rng.log_uniform(0.005, 0.02);
  s.lambda2 = rng.log_uniform(0.005, 0.02);
  s.mu1 = rng.uniform(0.5, 1.5);
  s.mu2 = rng.uniform(0.5, 1.5);
  // Largest exit rate: every unit up and both repairers busy is an upper
  // bound the chain attains at no state, so take the true maximum.
  double qmax = 0.0;
  for (int i = 0; i <= s.n1; ++i) {
    for (int j = 0; j <= s.n2; ++j) {
      const double out = (s.n1 - i) * s.lambda1 + (s.n2 - j) * s.lambda2 +
                         (i > 0 ? s.mu1 : 0.0) + (j > 0 ? s.mu2 : 0.0);
      qmax = std::max(qmax, out);
    }
  }
  s.t = kQt / (1.02 * qmax);
  return s;
}

double mrgp_availability(const BlockSpec& s, double interval) {
  relkit::markov::Ctmc sub;
  const auto robust = sub.add_state("robust");
  const auto fragile = sub.add_state("fragile");
  const auto crashed = sub.add_state("crashed");
  const auto rejuving = sub.add_state("rejuving");
  const auto rejuv_ok = sub.add_state("rejuv_ok");
  const auto fixing = sub.add_state("fixing");
  const auto fixed = sub.add_state("fixed");
  sub.add_transition(robust, fragile, s.aging);
  sub.add_transition(fragile, crashed, s.crash);
  sub.add_transition(rejuving, rejuv_ok, kRejuvRate);
  sub.add_transition(fixing, fixed, 1.0 / s.repair_mean);
  relkit::semimarkov::Mrgp mrgp(std::move(sub));
  relkit::semimarkov::RegenerationRule live;
  live.timer = relkit::deterministic(interval);
  live.timer_branch.assign(7, 1);  // timer -> rejuvenation cycle
  const auto reg_live = mrgp.add_regeneration(robust, live);
  mrgp.add_regeneration(rejuving, {});
  const auto reg_fix = mrgp.add_regeneration(fixing, {});
  mrgp.set_exit_branch(crashed, reg_fix);
  mrgp.set_exit_branch(rejuv_ok, reg_live);
  mrgp.set_exit_branch(fixed, reg_live);
  return mrgp.steady_state_reward({1, 1, 0, 0, 0, 0, 0});
}

/// Two independent k-of-n style pools, one repairer each; state
/// (i, j) = failed units per pool, index i * (n2 + 1) + j.
relkit::markov::Ctmc pool_pair(const BlockSpec& s) {
  relkit::markov::Ctmc c;
  c.add_states(kStates);
  const auto id = [&](int i, int j) {
    return static_cast<std::size_t>(i * (s.n2 + 1) + j);
  };
  for (int i = 0; i <= s.n1; ++i) {
    for (int j = 0; j <= s.n2; ++j) {
      if (i < s.n1) c.add_transition(id(i, j), id(i + 1, j), (s.n1 - i) * s.lambda1);
      if (i > 0) c.add_transition(id(i, j), id(i - 1, j), s.mu1);
      if (j < s.n2) c.add_transition(id(i, j), id(i, j + 1), (s.n2 - j) * s.lambda2);
      if (j > 0) c.add_transition(id(i, j), id(i, j - 1), s.mu2);
    }
  }
  return c;
}

struct BlockResult {
  std::vector<double> availability;  ///< per interval
  std::vector<double> pi_t, sojourn;
  double poisson_terms = 0.0;  ///< uniformization steps the two solves took
};

/// One block: the MRGP at each interval, then the transient and the
/// cumulative time of the pool pair. Raw per-operation latencies go to
/// `timer` when it is given.
BlockResult run_block(const BlockSpec& s, const relkit::markov::Ctmc& chain,
                      Tracer* tracer, BlockTimer* timer) {
  BlockResult r;
  Clock::time_point t0 = Clock::now();
  const auto done = [&]() {
    if (timer != nullptr) timer->add_op(seconds_since(t0));
    t0 = Clock::now();
  };
  for (const double d : kIntervals) {
    {
      Span span(tracer, "semimarkov.mrgp");
      r.availability.push_back(mrgp_availability(s, d));
    }
    done();
  }
  const std::vector<double> start = chain.point_mass(0);
  t0 = Clock::now();
  {
    Span span(tracer, "markov.transient");
    r.pi_t = chain.transient(start, s.t, 1e-12, 1);
  }
  r.poisson_terms += static_cast<double>(relkit::robust::last_report().iterations);
  done();
  {
    Span span(tracer, "markov.cumulative");
    r.sojourn = chain.cumulative_time(start, s.t, 1e-12, 1);
  }
  r.poisson_terms += static_cast<double>(relkit::robust::last_report().iterations);
  done();
  return r;
}

constexpr double kMrgpTol = 1e-9;    // relative, vs the renewal formula
constexpr double kMassTol = 1e-10;   // |sum pi(t) - 1|
constexpr double kTimeTol = 1e-9;    // |sum L(t) - t| / t
constexpr double kLawTol = 5e-11;    // max |pi(t) - oracle| per state
constexpr double kSojournTol = 1e-10;  // max |L(t) - oracle| / t per state
constexpr double kStationaryTol = 1e-9;  // steady_state vs closed form
/// An intermediate horizon, q*t = 10, where pi(t) is still far from the
/// stationary law; checked with two extra (untimed) solves on the first
/// kMidBlocks blocks of a run.
constexpr double kMidQt = 10.0;
constexpr std::size_t kMidBlocks = 8;

double mass_error(const std::vector<double>& pi) {
  double sum = 0.0;
  for (const double p : pi) sum += p;
  return std::fabs(sum - 1.0);
}

double time_error(const std::vector<double>& sojourn, double t) {
  double sum = 0.0;
  for (const double l : sojourn) sum += l;
  return std::fabs(sum - t) / t;
}

double max_abs_diff(const std::vector<double>& got, const std::vector<double>& want) {
  if (got.size() != want.size()) return HUGE_VAL;
  double worst = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    worst = std::max(worst, std::fabs(got[i] - want[i]));
  }
  return worst;
}

/// Stationary law of the pool pair in closed form: product of the two
/// birth-death distributions.
std::vector<double> stationary(const BlockSpec& s) {
  const std::vector<double> a = oracle::pool_distribution(s.n1, s.lambda1, s.mu1);
  const std::vector<double> b = oracle::pool_distribution(s.n2, s.lambda2, s.mu2);
  std::vector<double> pi;
  for (const double x : a) {
    for (const double y : b) pi.push_back(x * y);
  }
  return pi;
}

/// The oracle's pi(t) and L(t) of the pool pair at the block's horizon
/// and (when asked) at the intermediate one.
struct PairLaw {
  double t_mid = 0.0;
  std::vector<double> pi_t, sojourn, pi_mid, sojourn_mid;
};

std::vector<double> product(const std::vector<double>& a,
                            const std::vector<double>& b) {
  std::vector<double> out;
  for (const double x : a) {
    for (const double y : b) out.push_back(x * y);
  }
  return out;
}

PairLaw pair_law(const BlockSpec& s, bool with_mid) {
  const auto at = [&s](double t, std::vector<double>& pi, std::vector<double>& l) {
    pi = product(oracle::pool_transient(s.n1, s.lambda1, s.mu1, t),
                 oracle::pool_transient(s.n2, s.lambda2, s.mu2, t));
    l = oracle::pair_cumulative(s.n1, s.lambda1, s.mu1, s.n2, s.lambda2,
                                s.mu2, pi, t);
  };
  PairLaw law;
  at(s.t, law.pi_t, law.sojourn);
  law.t_mid = s.t * kMidQt / kQt;
  if (with_mid) at(law.t_mid, law.pi_mid, law.sojourn_mid);
  return law;
}

bool check_block(const BlockSpec& s, const relkit::markov::Ctmc& chain,
                 const BlockResult& r, Checks& checks, std::size_t block) {
  bool ok = true;
  for (std::size_t i = 0; i < std::size(kIntervals); ++i) {
    const double want = oracle::rejuvenation_availability(
        kIntervals[i], s.aging, s.crash, s.repair_mean, 1.0 / kRejuvRate);
    ok &= checks.expect("horizon.mrgp_vs_renewal",
                        close(r.availability[i], want, kMrgpTol),
                        "interval " + std::to_string(kIntervals[i]) + ": got " +
                            std::to_string(r.availability[i]) + " want " +
                            std::to_string(want));
  }
  const bool with_mid = block < kMidBlocks;
  const PairLaw law = pair_law(s, with_mid);
  ok &= checks.expect("horizon.transient_vs_oracle",
                      max_abs_diff(r.pi_t, law.pi_t) <= kLawTol,
                      "pi(t) per state at q*t = 1e4, block " + std::to_string(block));
  ok &= checks.expect("horizon.cumulative_vs_oracle",
                      max_abs_diff(r.sojourn, law.sojourn) <= kSojournTol * s.t,
                      "L(t) per state at q*t = 1e4, block " + std::to_string(block));
  if (with_mid) {
    const std::vector<double> start = chain.point_mass(0);
    ok &= checks.expect(
        "horizon.transient_vs_oracle",
        max_abs_diff(chain.transient(start, law.t_mid, 1e-12, 1), law.pi_mid) <=
            kLawTol,
        "pi(t) per state at q*t = 10, block " + std::to_string(block));
    ok &= checks.expect(
        "horizon.cumulative_vs_oracle",
        max_abs_diff(chain.cumulative_time(start, law.t_mid, 1e-12, 1),
                     law.sojourn_mid) <= kSojournTol * law.t_mid,
        "L(t) per state at q*t = 10, block " + std::to_string(block));
  }
  ok &= checks.expect("horizon.transient_mass", mass_error(r.pi_t) <= kMassTol,
                      "sum pi(t)");
  ok &= checks.expect("horizon.cumulative_time",
                      time_error(r.sojourn, s.t) <= kTimeTol, "sum L(t)");
  if (block < 4) {
    // The library's own steady state must agree with the closed form.
    ok &= checks.expect(
        "horizon.steady_state_vs_closed_form",
        max_abs_diff(chain.steady_state(), stationary(s)) <= kStationaryTol,
        "steady_state vs closed form");
  }
  return ok;
}

/// `v` with its largest entry scaled by 1 + 1e-6.
std::vector<double> bump_largest(std::vector<double> v) {
  *std::max_element(v.begin(), v.end()) *= 1.0 + 1e-6;
  return v;
}

void negative_cases(const BlockSpec& s, const relkit::markov::Ctmc& chain,
                    const BlockResult& r, Checks& checks) {
  const double want = oracle::rejuvenation_availability(
      kIntervals[0], s.aging, s.crash, s.repair_mean, 1.0 / kRejuvRate);
  checks.negative("horizon.mrgp_vs_renewal",
                  !close(r.availability[0] * (1.0 + 1e-6), want, kMrgpTol),
                  "availability x(1+1e-6)");
  const PairLaw law = pair_law(s, false);
  checks.negative("horizon.transient_vs_oracle",
                  max_abs_diff(bump_largest(r.pi_t), law.pi_t) > kLawTol,
                  "largest pi(t) x(1+1e-6)");
  checks.negative(
      "horizon.cumulative_vs_oracle",
      max_abs_diff(bump_largest(r.sojourn), law.sojourn) > kSojournTol * s.t,
      "largest L(t) x(1+1e-6)");
  checks.negative("horizon.transient_mass",
                  mass_error(bump_largest(r.pi_t)) > kMassTol,
                  "largest pi(t) x(1+1e-6)");
  checks.negative("horizon.cumulative_time",
                  time_error(bump_largest(r.sojourn), s.t) > kTimeTol,
                  "largest L(t) x(1+1e-6)");
  checks.negative("horizon.steady_state_vs_closed_form",
                  max_abs_diff(bump_largest(chain.steady_state()),
                               stationary(s)) > kStationaryTol,
                  "largest pi x(1+1e-6)");
}

}  // namespace

Outcome run_long_horizon(const RunConfig& config) {
  Outcome out;
  Checks checks;
  // Cold set-up: from the process's start to the workload's first result,
  // the MRGP at the first interval of block 0.
  double setup_s = 0.0;
  {
    const BlockSpec spec = make_spec(config.seed, 0);
    const double availability = mrgp_availability(spec, kIntervals[0]);
    setup_s = seconds_since(config.start);
    checks.expect("horizon.mrgp_vs_renewal",
                  close(availability,
                        oracle::rejuvenation_availability(
                            kIntervals[0], spec.aging, spec.crash,
                            spec.repair_mean, 1.0 / kRejuvRate),
                        kMrgpTol),
                  "cold set-up");
  }
  std::printf("pinned to cpu %d\n", pin_to_fastest_cpu());
  const std::size_t blocks = block_count(config.seconds, kBlocksPerSecond);
  BlockTimer timer;
  for (std::size_t b = 0; b < blocks; ++b) {
    const BlockSpec spec = make_spec(config.seed, b);
    const relkit::markov::Ctmc chain = pool_pair(spec);
    const Clock::time_point t0 = Clock::now();
    const BlockResult r = run_block(spec, chain, nullptr, &timer);
    timer.add_block(seconds_since(t0));
    out.attempted += kOpsPerBlock;
    if (!check_block(spec, chain, r, checks, b)) out.correct = false;
    if (b == 0) negative_cases(spec, chain, r, checks);
  }
  print_latency_reference("long_horizon", timer.op_seconds());
  std::printf("reference chunk median %.4f ms\n", timer.reference_ms());
  checks.print();
  out.correct = out.correct && checks.all_ok();
  out.metrics = {{"op_ms", timer.op_ms(kOpsPerBlock), "ms", blocks},
                 {"setup_s", setup_s, "s", 1},
                 {"peak_rss_mb", peak_rss_mb(0), "MB", 1}};
  return out;
}

void layers_long_horizon(const RunConfig& config, Tracer& tracer,
                         Checks& checks, LayerMetrics& out, OwnPass* own) {
  const std::size_t blocks =
      own != nullptr ? block_count(config.seconds, kBlocksPerSecond) : 8;
  std::vector<double> plain, traced, terms;
  BlockTimer timer;
  for (std::size_t b = 0; b < blocks; ++b) {
    const BlockSpec spec = make_spec(config.seed, b);
    const relkit::markov::Ctmc chain = pool_pair(spec);
    const bool with_spans = own == nullptr || b % 2 == 1;
    const Clock::time_point t0 = Clock::now();
    const BlockResult r = run_block(spec, chain, with_spans ? &tracer : nullptr, nullptr);
    (with_spans ? traced : plain).push_back(timer.add_block(seconds_since(t0)));
    check_block(spec, chain, r, checks, b);
    if (b == 0) negative_cases(spec, chain, r, checks);
    terms.push_back(r.poisson_terms / 2.0);
  }
  if (own != nullptr) {
    own->overhead = quantile(traced, 0.5) / quantile(plain, 0.5);
    own->attempted = blocks * kOpsPerBlock;
  }
  const std::vector<double> tr = tracer.durations("markov.transient");
  const std::vector<double> cu = tracer.durations("markov.cumulative");
  const std::vector<double> mr = tracer.durations("semimarkov.mrgp");
  out.push_back({"markov.transient_ms", mean(tr) * 1e3, "ms", tr.size()});
  out.push_back({"markov.cumulative_ms", mean(cu) * 1e3, "ms", cu.size()});
  out.push_back({"common.poisson_terms", mean(terms), "count", terms.size()});
  out.push_back({"semimarkov.mrgp_ms", mean(mr) * 1e3, "ms", mr.size()});
}

}  // namespace relbench
