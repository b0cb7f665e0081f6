#include "sim/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <limits>
#include <queue>
#include <string>

#include "common/error.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "robust/fault_injection.hpp"

namespace relkit::sim {

double Estimate::relative_error() const {
  if (mean == 0.0) return std::numeric_limits<double>::infinity();
  return half_width / std::abs(mean);
}

namespace {

Estimate summarize(const OnlineStats& stats) {
  Estimate e;
  e.mean = stats.mean();
  e.replications = stats.count();
  if (stats.count() >= 2 && stats.variance() == 0.0 &&
      (stats.mean() == 0.0 || stats.mean() == 1.0)) {
    // Degenerate Bernoulli sample: every replication landed on the same
    // side, so the sample variance (and a two-sided CI) is exactly zero —
    // which would falsely "cover" only the point itself. Report the
    // one-sided 95% rule-of-three bound 3/n instead: with n Bernoulli
    // trials and zero observed events, p <= 3/n at ~95% confidence.
    e.half_width = 3.0 / static_cast<double>(stats.count());
    e.one_sided = true;
  } else {
    e.half_width = stats.count() >= 2 ? stats.ci_halfwidth(0.95) : 0.0;
  }
  return e;
}

/// Runs up to `replications` independent replications of `one_rep` under
/// the budget; replication r draws from the r-th split() of the `seed`
/// stream, regardless of how many workers run it. A budget stop with >= 2
/// completed replications returns the partial estimate (budget_stopped
/// set, warning recorded); with fewer it throws robust::ConvergenceError
/// carrying the partial mean.
///
/// Determinism contract (docs/parallelism.md): replications run through
/// parallel::seeded_reduce on parallel::default_jobs() workers, in chunks
/// whose boundaries depend only on the replication count, and per-chunk
/// accumulators merge in chunk order — so the estimate is bit-identical
/// for EVERY worker count, including 1.
Estimate run_replications(const char* what, std::size_t replications,
                          std::uint64_t seed, const robust::Budget& budget,
                          const std::function<double(Rng&)>& one_rep) {
  detail::require(replications >= 2,
                  std::string(what) + ": need >= 2 reps");
  auto& injector = testing::FaultInjector::instance();
  const auto start = std::chrono::steady_clock::now();
  const std::size_t target =
      injector.cap("sim.replications", budget.cap_iterations(replications));
  const parallel::PoolLease lease(0);

  obs::Span span("sim.estimate");
  span.set("what", what);
  span.set("target", target);
  span.set("jobs", static_cast<std::uint64_t>(lease.jobs()));
  static obs::Counter& rep_counter = obs::counter("sim.replications");

  Rng master(seed);
  std::atomic<bool> deadline_hit{false};
  const OnlineStats stats = parallel::seeded_reduce<OnlineStats>(
      lease, master, target, OnlineStats{},
      [&](std::size_t begin, std::size_t end, Rng& streams) {
        OnlineStats local;
        for (std::size_t r = begin; r < end; ++r) {
          Rng stream = streams.split();
          local.add(one_rep(stream));
        }
        rep_counter.add(end - begin);
        return local;
      },
      [](OnlineStats& acc, const OnlineStats& chunk) { acc.merge(chunk); },
      [&] {
        if (!budget.deadline.expired()) return false;
        deadline_hit.store(true, std::memory_order_relaxed);
        return true;
      });
  bool stopped = false;
  std::string stop_reason;
  if (deadline_hit && stats.count() < target) {
    stopped = true;
    stop_reason = "deadline expired";
  }
  if (stats.count() < replications && !stopped) {
    stopped = true;
    stop_reason = "replication budget capped";
  }

  robust::SolveReport report;
  report.method = "monte-carlo";
  report.attempts = {"monte-carlo"};
  report.iterations = stats.count();
  report.converged = !stopped;
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  if (stopped) {
    report.warn(std::string(what) + ": budget stop (" + stop_reason +
                ") after " + std::to_string(stats.count()) + " of " +
                std::to_string(replications) + " replications");
  }
  report.note_attempt_result("monte-carlo", stats.count(),
                             stats.count() >= 2 ? stats.ci_halfwidth(0.95)
                                                : std::nan(""),
                             !stopped);
  span.set("replications", stats.count());
  span.set("mean", stats.count() ? stats.mean() : 0.0);
  span.set("budget_stopped", stopped);
  robust::record_last_report(report);

  if (stats.count() < 2) {
    throw robust::ConvergenceError(
        std::string(what) + ": budget exhausted before 2 replications "
        "completed — no confidence interval possible",
        std::vector<double>(stats.count(), stats.count() ? stats.mean()
                                                         : 0.0),
        report);
  }
  Estimate e = summarize(stats);
  e.budget_stopped = stopped;
  return e;
}

}  // namespace

SystemSimulator::SystemSimulator(std::vector<SimComponent> components,
                                 StructureFn system_up)
    : components_(std::move(components)), up_(std::move(system_up)) {
  detail::require(!components_.empty(), "SystemSimulator: no components");
  detail::require(up_ != nullptr, "SystemSimulator: null structure function");
  for (const auto& c : components_) {
    detail::require(c.lifetime != nullptr,
                    "SystemSimulator: component without lifetime");
  }
  // The all-up system must be up, otherwise the model is degenerate.
  detail::require_model(up_(std::vector<bool>(components_.size(), true)),
                        "SystemSimulator: system down with all components up");
}

SystemSimulator::RunResult SystemSimulator::run(double horizon,
                                                bool stop_at_failure,
                                                Rng& rng) const {
  const std::size_t n = components_.size();
  std::vector<bool> state(n, true);

  // Event queue of (time, component); each component always has exactly one
  // pending event (its next state flip) unless dead without repair.
  using Event = std::pair<double, std::size_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
  for (std::size_t i = 0; i < n; ++i) {
    events.emplace(components_[i].lifetime->sample(rng), i);
  }

  RunResult result;
  result.first_failure = std::numeric_limits<double>::infinity();
  result.up_time = 0.0;
  bool system_up = true;
  double now = 0.0;

  static obs::Counter& event_counter = obs::counter("sim.events");
  while (!events.empty()) {
    const auto [when, comp] = events.top();
    if (when > horizon) break;
    events.pop();
    event_counter.add();
    if (system_up) result.up_time += when - now;
    now = when;

    if (state[comp]) {
      state[comp] = false;
      if (components_[comp].repair != nullptr) {
        events.emplace(now + components_[comp].repair->sample(rng), comp);
      }
    } else {
      state[comp] = true;
      events.emplace(now + components_[comp].lifetime->sample(rng), comp);
    }

    const bool next_up = up_(state);
    if (system_up && !next_up) {
      if (now < result.first_failure) result.first_failure = now;
      if (stop_at_failure) {
        result.up_at_horizon = false;
        return result;
      }
    }
    system_up = next_up;
  }
  if (system_up) result.up_time += horizon - now;
  result.up_at_horizon = system_up;
  return result;
}

Estimate SystemSimulator::availability_at(double t, std::size_t replications,
                                          std::uint64_t seed,
                                          const robust::Budget& budget) const {
  detail::require(t >= 0.0, "availability_at: t must be >= 0");
  return run_replications("availability_at", replications, seed, budget,
                          [&](Rng& stream) {
                            const RunResult res = run(t, false, stream);
                            return res.up_at_horizon ? 1.0 : 0.0;
                          });
}

Estimate SystemSimulator::interval_availability(
    double t, std::size_t replications, std::uint64_t seed,
    const robust::Budget& budget) const {
  detail::require(t > 0.0, "interval_availability: t must be > 0");
  return run_replications("interval_availability", replications, seed,
                          budget, [&](Rng& stream) {
                            const RunResult res = run(t, false, stream);
                            return res.up_time / t;
                          });
}

Estimate SystemSimulator::reliability(double t, std::size_t replications,
                                      std::uint64_t seed,
                                      const robust::Budget& budget) const {
  detail::require(t >= 0.0, "reliability: t must be >= 0");
  return run_replications("reliability", replications, seed, budget,
                          [&](Rng& stream) {
                            const RunResult res = run(t, true, stream);
                            return res.first_failure > t ? 1.0 : 0.0;
                          });
}

Estimate SystemSimulator::mttf(std::size_t replications, std::uint64_t seed,
                               const robust::Budget& budget) const {
  return run_replications(
      "mttf", replications, seed, budget, [&](Rng& stream) {
        // Simulate until failure; expand the horizon geometrically if
        // needed.
        double horizon = 1.0;
        for (int attempt = 0;; ++attempt) {
          Rng attempt_stream = stream;  // same randomness, longer horizon
          const RunResult res = run(horizon, true, attempt_stream);
          if (std::isfinite(res.first_failure)) return res.first_failure;
          if (attempt >= 63) {
            throw NumericalError("mttf: system never failed within horizon");
          }
          horizon *= 8.0;
        }
      });
}

SrnSimulator::SrnSimulator(const spn::Srn& net) : net_(net) {}

spn::Marking SrnSimulator::play(
    double t, Rng& rng,
    const std::function<void(double, const spn::Marking&)>& observe) const {
  spn::Marking m = net_.initial_marking();
  double now = 0.0;

  auto settle_immediates = [&](spn::Marking marking) {
    for (int guard = 0; guard < 100000; ++guard) {
      std::vector<spn::TransId> best;
      unsigned best_priority = 0;
      for (spn::TransId tr = 0; tr < net_.transition_count(); ++tr) {
        if (net_.is_timed(tr) || !net_.enabled(tr, marking)) continue;
        const unsigned p = net_.priority_of(tr);
        if (p > best_priority) {
          best_priority = p;
          best.clear();
        }
        if (p == best_priority) best.push_back(tr);
      }
      if (best.empty()) return marking;
      double total = 0.0;
      for (const auto tr : best) total += net_.weight_of(tr);
      double pick = rng.uniform() * total;
      spn::TransId chosen = best.back();
      for (const auto tr : best) {
        if (pick < net_.weight_of(tr)) {
          chosen = tr;
          break;
        }
        pick -= net_.weight_of(tr);
      }
      marking = net_.fire(chosen, marking);
    }
    throw ModelError("SrnSimulator: immediate transitions never settle");
  };

  m = settle_immediates(m);
  while (now < t) {
    // Race the enabled timed transitions.
    double total_rate = 0.0;
    std::vector<std::pair<spn::TransId, double>> enabled;
    for (spn::TransId tr = 0; tr < net_.transition_count(); ++tr) {
      if (!net_.is_timed(tr) || !net_.enabled(tr, m)) continue;
      const double rate = net_.rate_of(tr, m);
      detail::require_model(rate > 0.0,
                            "SrnSimulator: enabled transition with rate <= 0");
      enabled.emplace_back(tr, rate);
      total_rate += rate;
    }
    if (enabled.empty()) {
      observe(t - now, m);  // dead marking: stay here to the horizon
      return m;
    }
    const double dwell = -std::log(rng.uniform_pos()) / total_rate;
    if (now + dwell >= t) {
      observe(t - now, m);
      return m;
    }
    observe(dwell, m);
    now += dwell;
    static obs::Counter& firing_counter = obs::counter("sim.srn_firings");
    firing_counter.add();
    double pick = rng.uniform() * total_rate;
    spn::TransId chosen = enabled.back().first;
    for (const auto& [tr, rate] : enabled) {
      if (pick < rate) {
        chosen = tr;
        break;
      }
      pick -= rate;
    }
    m = settle_immediates(net_.fire(chosen, m));
  }
  return m;
}

Estimate SrnSimulator::transient_reward(const spn::RewardFn& reward, double t,
                                        std::size_t replications,
                                        std::uint64_t seed,
                                        const robust::Budget& budget) const {
  detail::require(reward != nullptr, "transient_reward: null reward");
  return run_replications(
      "transient_reward", replications, seed, budget, [&](Rng& stream) {
        const spn::Marking at_t =
            play(t, stream, [](double, const spn::Marking&) {});
        return reward(at_t);
      });
}

Estimate SrnSimulator::accumulated_reward(const spn::RewardFn& reward,
                                          double t, std::size_t replications,
                                          std::uint64_t seed,
                                          const robust::Budget& budget) const {
  detail::require(reward != nullptr, "accumulated_reward: null reward");
  detail::require(t > 0.0, "accumulated_reward: t must be > 0");
  return run_replications(
      "accumulated_reward", replications, seed, budget, [&](Rng& stream) {
        double acc = 0.0;
        play(t, stream, [&](double interval, const spn::Marking& m) {
          acc += interval * reward(m);
        });
        return acc;
      });
}

}  // namespace relkit::sim
