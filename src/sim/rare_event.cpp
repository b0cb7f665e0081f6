#include "sim/rare_event.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <limits>
#include <string>

#include "common/error.hpp"
#include "common/statistics.hpp"
#include "obs/hw_counters.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "robust/fault_injection.hpp"

namespace relkit::sim {

namespace {

constexpr std::size_t kNoDistance = std::numeric_limits<std::size_t>::max();

const char* method_name(RareMethod m) {
  switch (m) {
    case RareMethod::kNaive:
      return "naive";
    case RareMethod::kRestart:
      return "restart";
    case RareMethod::kImportanceSampling:
      return "importance-sampling";
  }
  return "unknown";
}

/// Lazy adapter over SystemSimulator's component space: the state is a
/// bitmask of DOWN components (bit i set = component i down), so state 0 is
/// the all-up regeneration point and importance = popcount. Requires every
/// component to be exponential/exponential so the state process is a CTMC.
class ComponentRareModel final : public RareEventModel {
 public:
  ComponentRareModel(const std::vector<SimComponent>& components,
                     const StructureFn& up, const char* what) : up_(up) {
    detail::require(components.size() <= 64,
                    std::string(what) +
                        ": rare-event estimators support at most 64 "
                        "components");
    for (const auto& c : components) {
      const auto* life = dynamic_cast<const Exponential*>(c.lifetime.get());
      const auto* rep = dynamic_cast<const Exponential*>(c.repair.get());
      detail::require(life != nullptr && rep != nullptr,
                      std::string(what) +
                          ": rare-event estimators require exponential "
                          "lifetime AND exponential repair on every "
                          "component (the state process must be a CTMC)");
      lambda_.push_back(life->rate());
      mu_.push_back(rep->rate());
    }
  }

  std::uint64_t initial_state() const override { return 0; }

  void transitions(std::uint64_t s,
                   std::vector<RareTransition>& out) const override {
    out.clear();
    for (std::size_t i = 0; i < lambda_.size(); ++i) {
      const std::uint64_t bit = std::uint64_t{1} << i;
      if (s & bit) {
        out.push_back({s & ~bit, mu_[i], false});
      } else {
        out.push_back({s | bit, lambda_[i], true});
      }
    }
  }

  bool up(std::uint64_t s) const override {
    thread_local std::vector<bool> scratch;
    scratch.assign(lambda_.size(), true);
    for (std::size_t i = 0; i < lambda_.size(); ++i) {
      if (s >> i & 1) scratch[i] = false;
    }
    return up_(scratch);
  }

  double importance(std::uint64_t s) const override {
    return static_cast<double>(std::popcount(s));
  }

  /// Thresholds {0.5, 1.5, ..., d - 1.5} where d is the size of the
  /// smallest component set whose failure takes the system down (searched
  /// up to triples; deeper systems still split on the way to 3 down).
  std::vector<double> auto_levels() const override {
    const std::size_t d = min_cut_size();
    std::vector<double> levels;
    for (std::size_t k = 1; k + 1 <= d; ++k) {
      levels.push_back(static_cast<double>(k) - 0.5);
    }
    return levels;
  }

 private:
  std::size_t min_cut_size() const {
    const std::size_t n = lambda_.size();
    std::vector<bool> state(n, true);
    auto down_with = [&](std::initializer_list<std::size_t> comps) {
      std::fill(state.begin(), state.end(), true);
      for (const auto c : comps) state[c] = false;
      return !up_(state);
    };
    for (std::size_t i = 0; i < n; ++i) {
      if (down_with({i})) return 1;
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (down_with({i, j})) return 2;
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        for (std::size_t k = j + 1; k < n; ++k) {
          if (down_with({i, j, k})) return 3;
        }
      }
    }
    // No cut of size <= 3: cap the search; splitting up to 3 down is still
    // a valid (if partial) level ladder for deeper systems.
    return std::min<std::size_t>(4, n);
  }

  const StructureFn& up_;
  std::vector<double> lambda_;
  std::vector<double> mu_;
};

/// Per-cycle (numerator, denominator) contribution of the ratio estimator.
struct CycleOutcome {
  double num = 0.0;  ///< unavailability: weighted down time; mttf: weighted Z
  double den = 0.0;  ///< unavailability: weighted cycle time; mttf: weighted
                     ///< failure indicator
};

/// Walks one regenerative cycle: a DFS over RESTART branches (a single
/// branch for kNaive / kImportanceSampling). All floating-point
/// accumulation happens in deterministic DFS order; branch streams are
/// split from the parent stream in spawn order.
///
/// RESTART weight accounting (Villén-Altamirano): a branch's weight is a
/// pure function of its current importance region — splits^-(number of
/// thresholds below the current importance). Dividing by `splits` on each
/// up-crossing and RESTORING the factor on each down-crossing is what
/// makes killing retrials at their birth threshold unbiased; a weight that
/// only ever shrinks under-counts every re-ascent after a partial descent.
class CycleWalker {
 public:
  CycleWalker(const RareEventModel& model, const RareEventOptions& opts,
              const std::vector<double>& levels, bool mttf)
      : model_(model),
        opts_(opts),
        levels_(levels),
        mttf_(mttf),
        s0_(model.initial_state()) {}

  CycleOutcome run(Rng& rng) {
    out_ = {};
    branches_ = 0;
    biasing_ = opts_.method == RareMethod::kImportanceSampling;
    restart_ = opts_.method == RareMethod::kRestart && !levels_.empty();
    final_lr_ = 1.0;
    branch(s0_, rng, 1.0, kOriginal, 0, 0);
    if (opts_.method == RareMethod::kImportanceSampling) {
      static obs::Histogram& lr_hist =
          obs::histogram("sim.is.likelihood_ratio");
      lr_hist.observe(final_lr_);
    }
    return out_;
  }

 private:
  static constexpr std::size_t kOriginal =
      std::numeric_limits<std::size_t>::max();
  static constexpr std::size_t kMaxBranches = std::size_t{1} << 20;

  std::size_t level_of(double phi) const {
    return static_cast<std::size_t>(
        std::upper_bound(levels_.begin(), levels_.end(), phi) -
        levels_.begin());
  }

  /// splits^-region, by repeated division so jobs=1 stays bit-identical to
  /// the pool path (no libm involved).
  double region_weight(std::size_t region) const {
    double w = 1.0;
    for (std::size_t i = 0; i < region; ++i) {
      w /= static_cast<double>(opts_.splits);
    }
    return w;
  }

  /// Spawns the retrials for an up-crossing of thresholds
  /// [cross_begin, cross_end) at state `s`: splits - 1 retrials per
  /// threshold, each of which recursively splits for the remaining
  /// thresholds on entry, so a jump over k thresholds yields the
  /// splits^k trajectories the classical scheme requires (not a flat
  /// 1 + k*(splits-1)). A retrial born at threshold `lvl` dies when its
  /// importance falls below levels_[lvl].
  void spawn(std::uint64_t s, Rng& rng, double lr, std::size_t cross_begin,
             std::size_t cross_end) {
    auto& injector = testing::FaultInjector::instance();
    static obs::Counter& split_counter = obs::counter("sim.restart.splits");
    for (std::size_t lvl = cross_begin; lvl < cross_end; ++lvl) {
      if (injector.should_fail("sim.restart.split")) {
        robust::SolveReport report;
        report.method = "rare-event/restart";
        report.attempts = {"restart"};
        report.converged = false;
        report.warn(
            "fault injection: sim.restart.split forced a split failure");
        robust::record_last_report(report);
        throw robust::ConvergenceError(
            "rare-event: RESTART split failed (fault injection)", {}, report);
      }
      split_counter.add(opts_.splits - 1);
      for (unsigned c = 1; c < opts_.splits; ++c) {
        Rng child = rng.split();
        branch(s, child, lr, lvl, lvl + 1, cross_end);
      }
    }
  }

  /// `birth` is kOriginal for the main trajectory, else the index of the
  /// threshold whose down-crossing kills this retrial. On entry the branch
  /// first spawns its own retrials for thresholds [cross_begin, cross_end)
  /// — the part of a multi-threshold jump the parent delegated to it.
  void branch(std::uint64_t s, Rng& rng, double lr, std::size_t birth,
              std::size_t cross_begin, std::size_t cross_end) {
    if (++branches_ > kMaxBranches) {
      throw NumericalError(
          "rare-event: RESTART branch population exceeded " +
          std::to_string(kMaxBranches) +
          " in one cycle — lower `splits` or use fewer levels");
    }
    if (restart_ && cross_begin < cross_end) {
      spawn(s, rng, lr, cross_begin, cross_end);
    }
    std::size_t region = restart_ ? level_of(model_.importance(s)) : 0;
    double weight = region_weight(region);
    std::vector<RareTransition> trans;
    trans.reserve(8);
    while (true) {
      model_.transitions(s, trans);
      detail::require_model(!trans.empty(),
                            "rare-event model: state with no outgoing "
                            "transitions (availability models must not "
                            "absorb)");
      double total = 0.0;
      for (const auto& t : trans) total += t.rate;
      detail::require_model(total > 0.0 && std::isfinite(total),
                            "rare-event model: non-positive or non-finite "
                            "total exit rate");
      const double dt = -std::log(rng.uniform_pos()) / total;
      if (mttf_) {
        out_.num += weight * lr * dt;
      } else {
        out_.den += weight * lr * dt;
        if (!model_.up(s)) out_.num += weight * lr * dt;
      }

      // ---- choose the embedded-chain jump ---------------------------------
      std::size_t chosen = trans.size() - 1;
      bool biased_step = false;
      if (biasing_) {
        std::size_t fail_count = 0;
        double fail_rate = 0.0;
        for (const auto& t : trans) {
          if (t.is_failure) {
            ++fail_count;
            fail_rate += t.rate;
          }
        }
        if (fail_count > 0 && fail_count < trans.size()) {
          biased_step = true;
          if (rng.uniform() < opts_.bias) {
            // Balanced: uniform among the failure transitions.
            std::size_t k = std::min<std::size_t>(
                fail_count - 1,
                static_cast<std::size_t>(
                    rng.uniform() * static_cast<double>(fail_count)));
            for (std::size_t i = 0; i < trans.size(); ++i) {
              if (!trans[i].is_failure) continue;
              if (k == 0) {
                chosen = i;
                break;
              }
              --k;
            }
            lr *= (trans[chosen].rate / total) /
                  (opts_.bias / static_cast<double>(fail_count));
          } else {
            // Repairs keep their relative rates under mass (1 - bias).
            const double repair_rate = total - fail_rate;
            double pick = rng.uniform() * repair_rate;
            for (std::size_t i = 0; i < trans.size(); ++i) {
              if (trans[i].is_failure) continue;
              chosen = i;
              if (pick < trans[i].rate) break;
              pick -= trans[i].rate;
            }
            lr *= repair_rate / (total * (1.0 - opts_.bias));
          }
        }
      }
      if (!biased_step) {
        double pick = rng.uniform() * total;
        for (std::size_t i = 0; i < trans.size(); ++i) {
          chosen = i;
          if (pick < trans[i].rate) break;
          pick -= trans[i].rate;
        }
      }

      const std::uint64_t next = trans[chosen].target;

      // ---- arrival bookkeeping --------------------------------------------
      if (next == s0_) {  // regeneration: the cycle (or branch) is over
        if (birth == kOriginal) final_lr_ = lr;
        return;
      }
      // Branch death is decided BEFORE the up/down bookkeeping: with a
      // non-coherent structure function a repair step can both drop a
      // retrial below its birth threshold and take the system down, and
      // the splitting scheme requires such a retrial to die unscored (the
      // branches born below cover that region).
      std::size_t next_region = region;
      if (restart_) {
        const double phi_t = model_.importance(next);
        if (birth != kOriginal && phi_t < levels_[birth]) {
          return;  // fell below the birth threshold: the branch dies
        }
        next_region = level_of(phi_t);
      }
      if (!model_.up(next)) {
        if (mttf_) {  // first system failure: score the indicator and stop
          out_.den += weight * lr;
          if (birth == kOriginal) final_lr_ = lr;
          return;
        }
        // Unavailability: keep walking through the repair, but stop
        // inflating failures — the rare part of the cycle already happened
        // and an unbounded LR would ruin the variance.
        biasing_ = false;
      }
      if (restart_ && next_region > region) {
        spawn(next, rng, lr, region, next_region);
      }
      region = next_region;
      weight = region_weight(region);
      s = next;
    }
  }

  const RareEventModel& model_;
  const RareEventOptions& opts_;
  const std::vector<double>& levels_;
  const bool mttf_;
  const std::uint64_t s0_;
  CycleOutcome out_;
  std::size_t branches_ = 0;
  bool biasing_ = false;
  bool restart_ = false;
  double final_lr_ = 1.0;
};

/// Shared driver: runs regenerative cycles in deterministic batches until
/// the relative-error target, the cycle cap, or the budget stops the run.
/// Mirrors run_replications' budget/partial-estimate semantics, but merges
/// identically for EVERY jobs value (the sequential path uses the same
/// chunk decomposition and fold as the pool path).
Estimate run_rare(const char* what, const RareEventModel& model, bool mttf,
                  std::uint64_t seed, const RareEventOptions& opts) {
  detail::require(opts.bias > 0.0 && opts.bias < 1.0,
                  std::string(what) + ": bias must be in (0, 1)");
  detail::require(opts.splits >= 2,
                  std::string(what) + ": splits must be >= 2");
  detail::require(opts.relative_error > 0.0,
                  std::string(what) + ": relative_error must be > 0");
  detail::require(opts.batch >= 1, std::string(what) + ": batch must be >= 1");
  detail::require(opts.max_cycles >= 2,
                  std::string(what) + ": max_cycles must be >= 2");
  detail::require_model(model.up(model.initial_state()),
                        std::string(what) +
                            ": the regeneration state must be up");

  std::vector<double> levels;
  if (opts.method == RareMethod::kRestart) {
    levels = opts.levels.empty() ? model.auto_levels() : opts.levels;
    std::sort(levels.begin(), levels.end());
    levels.erase(std::unique(levels.begin(), levels.end()), levels.end());
    // A threshold at or below the regeneration importance can never be
    // up-crossed from the start region; keeping it would also push branch
    // weights above 1 (weights are splits^-region).
    const double phi0 = model.importance(model.initial_state());
    levels.erase(levels.begin(),
                 std::upper_bound(levels.begin(), levels.end(), phi0));
  }

  // The options budget combined with the calling thread's ambient deadline
  // (robust::ScopedDeadline), so relkit_cli --timeout-ms and serve deadlines
  // bound rare-event runs like every other solve.
  robust::Budget budget = opts.budget;
  budget.deadline =
      robust::Deadline::earliest(budget.deadline, robust::ambient_deadline());

  auto& injector = testing::FaultInjector::instance();
  const auto start = std::chrono::steady_clock::now();
  const std::size_t target =
      injector.cap("sim.rare.cycles", budget.cap_iterations(opts.max_cycles));

  obs::Span span("sim.rare.estimate");
  obs::HwCounterGroup hw_counters(span);
  span.set("what", what);
  span.set("method", method_name(opts.method));
  span.set("target", target);
  parallel::PoolLease lease(opts.jobs);
  span.set("jobs", static_cast<std::uint64_t>(lease.jobs()));
  static obs::Counter& cycle_counter = obs::counter("sim.rare.cycles");

  Rng master(seed);
  BivariateStats stats;
  bool converged = false;
  bool stopped = false;
  std::string stop_reason;
  std::atomic<bool> deadline_hit{false};

  std::size_t launched = 0;
  while (launched < target) {
    if (budget.deadline.expired()) {
      stopped = true;
      stop_reason = "deadline expired";
      break;
    }
    const std::size_t n = std::min(opts.batch, target - launched);
    launched += n;
    // Cycle r of the run draws from the r-th split() of the master stream,
    // whatever the batch shape or the worker count.
    const BivariateStats batch_stats = parallel::seeded_reduce<BivariateStats>(
        lease, master, n, BivariateStats{},
        [&](std::size_t begin, std::size_t end, Rng& streams) {
          BivariateStats local;
          CycleWalker walker(model, opts, levels, mttf);
          for (std::size_t r = begin; r < end; ++r) {
            Rng stream = streams.split();
            const CycleOutcome c = walker.run(stream);
            local.add(c.num, c.den);
          }
          cycle_counter.add(end - begin);
          return local;
        },
        [](BivariateStats& acc, const BivariateStats& part) {
          acc.merge(part);
        },
        [&] {
          if (!budget.deadline.expired()) return false;
          deadline_hit.store(true, std::memory_order_relaxed);
          return true;
        });
    stats.merge(batch_stats);
    if (deadline_hit.load(std::memory_order_relaxed)) {
      stopped = true;
      stop_reason = "deadline expired";
      break;
    }
    // Stopping rule: stop as soon as the CI is tight enough relative to
    // the estimate. Needs at least one observed failure to be meaningful.
    const bool failed_once = mttf ? stats.mean_y() > 0.0 : stats.mean_x() > 0.0;
    if (failed_once && stats.count() >= 2) {
      const double ratio = stats.ratio();
      if (ratio > 0.0 &&
          stats.ratio_ci_halfwidth(0.95) <= opts.relative_error * ratio) {
        converged = true;
        break;
      }
    }
  }
  if (!converged && !stopped) {
    stopped = true;
    stop_reason = "cycle budget capped before the relative-error target";
  }

  robust::SolveReport report;
  report.method = std::string("rare-event/") + method_name(opts.method);
  report.attempts = {method_name(opts.method)};
  report.iterations = stats.count();
  report.converged = converged;
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (stopped) {
    report.warn(std::string(what) + ": budget stop (" + stop_reason +
                ") after " + std::to_string(stats.count()) + " cycles");
  }

  span.set("cycles", stats.count());
  span.set("budget_stopped", stopped);

  if (stats.count() < 2) {
    robust::record_last_report(report);
    throw robust::ConvergenceError(
        std::string(what) +
            ": budget exhausted before 2 regenerative cycles completed — "
            "no confidence interval possible",
        std::vector<double>(stats.count(), 0.0), report);
  }

  const bool failed_once = mttf ? stats.mean_y() > 0.0 : stats.mean_x() > 0.0;
  if (!failed_once) {
    if (mttf) {
      report.warn(std::string(what) + ": no system failure observed in " +
                  std::to_string(stats.count()) +
                  " cycles — MTTF has no finite estimate; raise the cycle "
                  "budget or use RESTART / importance sampling");
      robust::record_last_report(report);
      throw robust::ConvergenceError(
          std::string(what) + ": no failures observed in " +
              std::to_string(stats.count()) + " regenerative cycles",
          {}, report);
    }
    // Zero observed failures: a two-sided CI would be the empty interval
    // {0}. Report the one-sided rule-of-three bound on the per-cycle
    // failure probability instead (docs/rare_events.md).
    report.warn(std::string(what) + ": zero failures in " +
                std::to_string(stats.count()) +
                " cycles — reporting the one-sided rule-of-three bound 3/n");
    report.note_attempt_result(method_name(opts.method), stats.count(),
                               std::nan(""), false);
    robust::record_last_report(report);
    Estimate e;
    e.mean = 0.0;
    e.half_width = 3.0 / static_cast<double>(stats.count());
    e.replications = stats.count();
    e.budget_stopped = true;
    e.one_sided = true;
    span.set("mean", 0.0);
    return e;
  }

  Estimate e;
  e.mean = stats.ratio();
  e.half_width = stats.ratio_ci_halfwidth(0.95);
  e.replications = stats.count();
  e.budget_stopped = stopped;
  report.note_attempt_result(method_name(opts.method), stats.count(),
                             e.half_width, converged);
  robust::record_last_report(report);
  span.set("mean", e.mean);
  return e;
}

}  // namespace

// ---- CtmcRareModel ---------------------------------------------------------

CtmcRareModel::CtmcRareModel(const markov::Ctmc& chain,
                             std::function<bool(markov::StateId)> up_state,
                             markov::StateId regeneration)
    : regeneration_(regeneration) {
  detail::require(up_state != nullptr, "CtmcRareModel: null up predicate");
  const std::size_t n = chain.state_count();
  detail::require(regeneration < n,
                  "CtmcRareModel: regeneration state out of range");
  up_.resize(n);
  for (std::size_t s = 0; s < n; ++s) up_[s] = up_state(s);
  detail::require_model(up_[regeneration],
                        "CtmcRareModel: regeneration state must be up");

  // Adjacency from the dense generator — rare-event CTMC views are the
  // tutorial-sized dependability chains, not the 10^6-state solves.
  const Matrix q = chain.dense_generator();
  trans_.resize(n);
  std::vector<std::vector<std::size_t>> reverse(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (r == c || q(r, c) <= 0.0) continue;
      trans_[r].push_back({c, q(r, c), false});
      reverse[c].push_back(r);
    }
  }

  // BFS jump distance from every state to the down set (over reversed
  // edges), then classify: a transition is a failure transition iff it
  // strictly decreases the distance to failure.
  dist_.assign(n, kNoDistance);
  std::deque<std::size_t> frontier;
  for (std::size_t s = 0; s < n; ++s) {
    if (!up_[s]) {
      dist_[s] = 0;
      frontier.push_back(s);
    }
  }
  detail::require_model(!frontier.empty(),
                        "CtmcRareModel: no down state in the chain");
  while (!frontier.empty()) {
    const std::size_t t = frontier.front();
    frontier.pop_front();
    for (const auto s : reverse[t]) {
      if (dist_[s] != kNoDistance) continue;
      dist_[s] = dist_[t] + 1;
      frontier.push_back(s);
    }
  }
  detail::require_model(
      dist_[regeneration] != kNoDistance,
      "CtmcRareModel: no down state reachable from the regeneration state");
  for (std::size_t s = 0; s < n; ++s) {
    for (auto& t : trans_[s]) {
      t.is_failure = dist_[s] != kNoDistance &&
                     dist_[t.target] != kNoDistance &&
                     dist_[t.target] < dist_[s];
    }
  }
}

void CtmcRareModel::transitions(std::uint64_t s,
                                std::vector<RareTransition>& out) const {
  out.assign(trans_[s].begin(), trans_[s].end());
}

bool CtmcRareModel::up(std::uint64_t s) const { return up_[s]; }

double CtmcRareModel::importance(std::uint64_t s) const {
  if (dist_[s] == kNoDistance) return -1e300;  // can never reach failure
  return static_cast<double>(dist_[regeneration_]) -
         static_cast<double>(dist_[s]);
}

std::vector<double> CtmcRareModel::auto_levels() const {
  const std::size_t d0 = dist_[regeneration_];
  std::vector<double> levels;
  for (std::size_t k = 1; k + 1 <= d0; ++k) {
    levels.push_back(static_cast<double>(k) - 0.5);
  }
  return levels;
}

std::size_t CtmcRareModel::distance_to_failure(markov::StateId s) const {
  detail::require(s < dist_.size(),
                  "distance_to_failure: state out of range");
  return dist_[s];
}

// ---- public entry points ---------------------------------------------------

Estimate rare_unavailability(const RareEventModel& model, std::uint64_t seed,
                             const RareEventOptions& opts) {
  return run_rare("rare_unavailability", model, /*mttf=*/false, seed, opts);
}

Estimate rare_mttf(const RareEventModel& model, std::uint64_t seed,
                   const RareEventOptions& opts) {
  return run_rare("rare_mttf", model, /*mttf=*/true, seed, opts);
}

Estimate SystemSimulator::unavailability_rare(
    std::uint64_t seed, const RareEventOptions& opts) const {
  const ComponentRareModel model(components_, up_, "unavailability_rare");
  return run_rare("unavailability_rare", model, /*mttf=*/false, seed, opts);
}

Estimate SystemSimulator::mttf_rare(std::uint64_t seed,
                                    const RareEventOptions& opts) const {
  const ComponentRareModel model(components_, up_, "mttf_rare");
  return run_rare("mttf_rare", model, /*mttf=*/true, seed, opts);
}

}  // namespace relkit::sim
