// Tests for the parallel execution layer: ThreadPool scheduling and
// cancellation, deterministic chunked reduction, and the determinism
// contract of the parallel Monte Carlo / uncertainty paths
// (docs/parallelism.md). These are the tests `ctest -L tsan` runs under
// ThreadSanitizer in a RELKIT_TSAN build.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "common/statistics.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"
#include "parallel/queue.hpp"
#include "robust/budget.hpp"
#include "robust/robust.hpp"
#include "sim/simulator.hpp"
#include "uncertainty/uncertainty.hpp"

namespace {

using relkit::OnlineStats;
using relkit::Rng;
namespace parallel = relkit::parallel;
namespace sim = relkit::sim;
namespace uncertainty = relkit::uncertainty;

/// Restores the process-wide degree after each test so suites stay
/// independent (the library default is sequential).
struct JobsGuard {
  ~JobsGuard() { parallel::set_default_jobs(1); }
};

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  parallel::ThreadPool pool(4);
  EXPECT_EQ(pool.jobs(), 4u);
  const std::size_t n = 10000;
  std::vector<std::atomic<int>> hits(n);
  const std::size_t chunks = pool.for_chunks(n, 37, [&](std::size_t b,
                                                        std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
  });
  EXPECT_EQ(chunks, (n + 36) / 37);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ThreadPool, SequentialPoolRunsInline) {
  parallel::ThreadPool pool(1);
  EXPECT_EQ(pool.jobs(), 1u);
  std::size_t sum = 0;  // no synchronization: single-threaded by contract
  pool.for_chunks(100, 7, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) sum += i;
  });
  EXPECT_EQ(sum, 4950u);
}

TEST(ThreadPool, ZeroItemsIsANoop) {
  parallel::ThreadPool pool(3);
  EXPECT_EQ(pool.for_chunks(0, 8, [](std::size_t, std::size_t) {
    FAIL() << "body must not run";
  }),
            0u);
}

TEST(ThreadPool, CancelStopsDispatchingChunks) {
  parallel::ThreadPool pool(2);
  std::atomic<std::size_t> ran{0};
  const std::size_t chunks = pool.for_chunks(
      1000, 10,
      [&](std::size_t, std::size_t) { ran.fetch_add(1); },
      [&] { return ran.load() >= 3; });
  EXPECT_LT(chunks, 100u);      // far fewer than the 100 available chunks
  EXPECT_EQ(chunks, ran.load());
}

TEST(ThreadPool, BodyExceptionPropagatesToCaller) {
  parallel::ThreadPool pool(4);
  EXPECT_THROW(pool.for_chunks(1000, 10,
                               [&](std::size_t b, std::size_t) {
                                 if (b >= 500) throw std::runtime_error("boom");
                               }),
               std::runtime_error);
}

TEST(ThreadPool, ReduceIsDeterministicAcrossWorkerCounts) {
  // Sum of f(i) with a fixed chunk size must be bit-identical for any pool
  // size, because per-chunk partials merge in chunk-index order.
  const std::size_t n = 5000;
  auto run = [n](unsigned jobs) {
    parallel::ThreadPool pool(jobs);
    return parallel::reduce_chunks<double>(
        pool, n, 64, 0.0,
        [](std::size_t b, std::size_t e) {
          double s = 0.0;
          for (std::size_t i = b; i < e; ++i) {
            s += std::sin(static_cast<double>(i)) / (1.0 + std::sqrt(i));
          }
          return s;
        },
        [](double& acc, const double& chunk) { acc += chunk; });
  };
  const double two = run(2);
  EXPECT_EQ(two, run(3));
  EXPECT_EQ(two, run(4));
  EXPECT_EQ(two, run(8));
  // ... and equal to the single-thread pool, which uses the same chunking.
  EXPECT_EQ(two, run(1));
}

TEST(ThreadPool, DefaultChunkIgnoresWorkerCount) {
  // The chunk heuristic may depend on n only — this is what makes the
  // reductions above independent of the pool size.
  EXPECT_EQ(parallel::default_chunk(10), 1u);
  EXPECT_EQ(parallel::default_chunk(6400), 100u);
  EXPECT_GE(parallel::default_chunk(1), 1u);
  EXPECT_LE(parallel::default_chunk(100000000), 8192u);
}

TEST(ThreadPool, GlobalPoolTracksDefaultJobs) {
  JobsGuard guard;
  parallel::set_default_jobs(3);
  EXPECT_EQ(parallel::default_jobs(), 3u);
  EXPECT_EQ(parallel::global_pool().jobs(), 3u);
  parallel::set_default_jobs(1);
  EXPECT_EQ(parallel::global_pool().jobs(), 1u);
}

TEST(ThreadPool, TaskCounterCountsChunks) {
  relkit::obs::Registry::instance().reset_values();
  relkit::obs::set_enabled(relkit::obs::kCompiledIn);
  parallel::ThreadPool pool(2);
  pool.for_chunks(100, 10, [](std::size_t, std::size_t) {});
  relkit::obs::set_enabled(false);
  if (relkit::obs::kCompiledIn) {
    EXPECT_EQ(relkit::obs::counter("pool.tasks").value(), 10u);
  }
  relkit::obs::Registry::instance().reset_values();
}

// ---- bounded queue depth gauge ---------------------------------------------

TEST(BoundedQueue, DepthGaugeTracksSizeExactly) {
  relkit::obs::Registry::instance().reset_values();
  relkit::obs::set_enabled(relkit::obs::kCompiledIn);
  if (!relkit::obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  parallel::BoundedQueue<int> queue(8);
  relkit::obs::Gauge& gauge = relkit::obs::gauge("test.queue_depth");
  // Binding mirrors the current depth immediately, even when non-zero.
  ASSERT_TRUE(queue.try_push(1));
  queue.bind_depth_gauge(&gauge);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.0);
  ASSERT_TRUE(queue.try_push(2));
  ASSERT_TRUE(queue.try_push(3));
  EXPECT_DOUBLE_EQ(gauge.value(), 3.0);
  (void)queue.pop_batch(2);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.0);
  (void)queue.pop_batch(8);
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
  // A failed push on a full queue leaves the gauge untouched.
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(queue.try_push(i));
  EXPECT_FALSE(queue.try_push(99));
  EXPECT_DOUBLE_EQ(gauge.value(), 8.0);
  queue.bind_depth_gauge(nullptr);  // unbound: later ops stop mirroring
  (void)queue.pop_batch(8);
  EXPECT_DOUBLE_EQ(gauge.value(), 8.0);
  relkit::obs::set_enabled(false);
  relkit::obs::Registry::instance().reset_values();
}

TEST(BoundedQueue, DepthGaugeStaysAccurateUnderConcurrency) {
  // The race this guards: the gauge is set inside the queue's critical
  // section, so at every instant gauge value == queue size at SOME recent
  // linearization point — bounded by [0, capacity] — and once the dust
  // settles it equals the exact final depth. Runs under `ctest -L tsan`
  // in a RELKIT_TSAN build like the rest of this file.
  relkit::obs::Registry::instance().reset_values();
  relkit::obs::set_enabled(relkit::obs::kCompiledIn);
  if (!relkit::obs::kCompiledIn) GTEST_SKIP() << "obs compiled out";
  constexpr std::size_t kCapacity = 16;
  parallel::BoundedQueue<int> queue(kCapacity);
  relkit::obs::Gauge& gauge = relkit::obs::gauge("test.queue_depth_mt");
  queue.bind_depth_gauge(&gauge);

  std::atomic<std::size_t> pushed{0};
  std::atomic<std::size_t> popped{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 4; ++t) {
    workers.emplace_back([&queue, &pushed] {
      for (int i = 0; i < 2000; ++i) {
        if (queue.try_push(i)) pushed.fetch_add(1);
      }
    });
  }
  for (int t = 0; t < 2; ++t) {
    workers.emplace_back([&queue, &popped] {
      for (;;) {
        const auto batch = queue.pop_batch(4);
        if (batch.empty()) return;  // closed and drained
        popped.fetch_add(batch.size());
        const double depth = relkit::obs::gauge("test.queue_depth_mt").value();
        EXPECT_GE(depth, 0.0);
        EXPECT_LE(depth, static_cast<double>(kCapacity));
      }
    });
  }
  for (int t = 0; t < 4; ++t) workers[t].join();  // producers first
  queue.close();
  for (std::size_t t = 4; t < workers.size(); ++t) workers[t].join();
  EXPECT_EQ(pushed.load(), popped.load());
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);  // fully drained
  queue.bind_depth_gauge(nullptr);
  relkit::obs::set_enabled(false);
  relkit::obs::Registry::instance().reset_values();
}

TEST(OnlineStatsMerge, MatchesSequentialAccumulation) {
  Rng rng(42);
  std::vector<double> xs(997);
  for (auto& x : xs) x = rng.uniform() * 10.0 - 3.0;
  OnlineStats whole;
  for (double x : xs) whole.add(x);
  OnlineStats a, b, merged;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    (i < 400 ? a : b).add(xs[i]);
  }
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.count(), whole.count());
  EXPECT_NEAR(merged.mean(), whole.mean(), 1e-12);
  EXPECT_NEAR(merged.variance(), whole.variance(), 1e-10);
  EXPECT_EQ(merged.min(), whole.min());
  EXPECT_EQ(merged.max(), whole.max());
  OnlineStats empty;
  merged.merge(empty);  // merging empty is a no-op
  EXPECT_EQ(merged.count(), whole.count());
}

// ---- parallel simulator ----------------------------------------------------

sim::SystemSimulator duplex() {
  return sim::SystemSimulator(
      {{relkit::exponential(0.1), relkit::exponential(1.0)},
       {relkit::exponential(0.1), relkit::exponential(1.0)}},
      [](const std::vector<bool>& s) { return s[0] || s[1]; });
}

TEST(ParallelSim, Jobs1IsBitIdenticalToTheHistoricalSequentialLoop) {
  JobsGuard guard;
  parallel::set_default_jobs(1);
  const auto simulator = duplex();
  const auto est = simulator.availability_at(10.0, 4000, 7);
  // Golden values of the one chunked estimator every worker count shares;
  // they pin the "--jobs 1 is bit-identical to --jobs N" contract.
  EXPECT_EQ(est.mean, 0.99250000000000005);
  EXPECT_EQ(est.half_width, 0.0026740423331980752);
  EXPECT_EQ(est.replications, 4000u);
}

TEST(ParallelSim, EstimateIdenticalForAnyWorkerCountAtLeastTwo) {
  JobsGuard guard;
  const auto simulator = duplex();
  parallel::set_default_jobs(1);
  const auto one = simulator.availability_at(10.0, 4000, 7);
  parallel::set_default_jobs(2);
  const auto two = simulator.availability_at(10.0, 4000, 7);
  parallel::set_default_jobs(4);
  const auto four = simulator.availability_at(10.0, 4000, 7);
  parallel::set_default_jobs(8);
  const auto eight = simulator.availability_at(10.0, 4000, 7);
  EXPECT_EQ(one.mean, two.mean);
  EXPECT_EQ(one.half_width, two.half_width);
  EXPECT_EQ(two.mean, four.mean);
  EXPECT_EQ(two.half_width, four.half_width);
  EXPECT_EQ(two.mean, eight.mean);
  EXPECT_EQ(two.half_width, eight.half_width);
  EXPECT_EQ(two.replications, 4000u);
  EXPECT_EQ(four.replications, 4000u);
}

TEST(ParallelSim, ParallelAgreesStatisticallyWithSequential) {
  JobsGuard guard;
  const auto simulator = duplex();
  parallel::set_default_jobs(1);
  const auto seq = simulator.availability_at(10.0, 4000, 7);
  parallel::set_default_jobs(4);
  const auto par = simulator.availability_at(10.0, 4000, 7);
  // Same per-replication sample values and summation order, so these are
  // in fact equal; the tolerance states the weaker published guarantee.
  EXPECT_NEAR(par.mean, seq.mean, 1e-12);
  EXPECT_NEAR(par.half_width, seq.half_width, 1e-12);
}

TEST(ParallelSim, AllEstimatorsRunParallel) {
  JobsGuard guard;
  parallel::set_default_jobs(4);
  const auto simulator = duplex();
  EXPECT_GT(simulator.interval_availability(10.0, 500, 3).mean, 0.9);
  EXPECT_GT(simulator.mttf(500, 4).mean, 1.0);
  EXPECT_LE(simulator.reliability(5.0, 500, 5).mean, 1.0);
}

TEST(ParallelSim, ExpiredDeadlineStillThrowsConvergenceError) {
  JobsGuard guard;
  parallel::set_default_jobs(4);
  const auto simulator = duplex();
  relkit::robust::Budget budget;
  budget.deadline = relkit::robust::Deadline::after_seconds(-1.0);
  EXPECT_THROW(simulator.availability_at(10.0, 1000, 9, budget),
               relkit::robust::ConvergenceError);
}

TEST(ParallelSim, ReplicationCapReportsBudgetStop) {
  JobsGuard guard;
  parallel::set_default_jobs(4);
  const auto simulator = duplex();
  relkit::robust::Budget budget;
  budget.max_iterations = 100;
  const auto est = simulator.availability_at(10.0, 1000, 11, budget);
  EXPECT_TRUE(est.budget_stopped);
  EXPECT_EQ(est.replications, 100u);
}

// ---- parallel uncertainty propagation --------------------------------------

double quadratic_model(const std::map<std::string, double>& p) {
  const double a = p.at("a");
  const double b = p.at("b");
  return a * a + 0.5 * b;
}

TEST(ParallelUncertainty, IdenticalForAnyWorkerCountAtLeastTwo) {
  const std::vector<uncertainty::ParamSpec> params{
      {"a", relkit::uniform(0.0, 1.0)}, {"b", relkit::uniform(1.0, 2.0)}};
  Rng r1(5), r2(5), r4(5), r8(5);
  const auto one = uncertainty::propagate(params, quadratic_model, 2000, r1,
                                          uncertainty::Sampling::kMonteCarlo,
                                          1);
  const auto two = uncertainty::propagate(params, quadratic_model, 2000, r2,
                                          uncertainty::Sampling::kMonteCarlo,
                                          2);
  const auto four = uncertainty::propagate(params, quadratic_model, 2000, r4,
                                           uncertainty::Sampling::kMonteCarlo,
                                           4);
  const auto eight = uncertainty::propagate(
      params, quadratic_model, 2000, r8, uncertainty::Sampling::kMonteCarlo,
      8);
  EXPECT_EQ(one.mean, two.mean);
  EXPECT_EQ(one.stddev, two.stddev);
  EXPECT_EQ(one.samples, two.samples);
  EXPECT_EQ(two.mean, four.mean);
  EXPECT_EQ(two.stddev, four.stddev);
  EXPECT_EQ(two.samples, four.samples);
  EXPECT_EQ(two.samples, eight.samples);
}

TEST(ParallelUncertainty, Jobs1MatchesTheDefaultSequentialPath) {
  const std::vector<uncertainty::ParamSpec> params{
      {"a", relkit::uniform(0.0, 1.0)}, {"b", relkit::uniform(1.0, 2.0)}};
  Rng ra(9), rb(9);
  const auto deflt = uncertainty::propagate(params, quadratic_model, 500, ra);
  const auto one = uncertainty::propagate(params, quadratic_model, 500, rb,
                                          uncertainty::Sampling::kLatinHypercube,
                                          1);
  EXPECT_EQ(deflt.samples, one.samples);
  EXPECT_EQ(deflt.mean, one.mean);
  // Golden values of the split-stream path every worker count shares.
  EXPECT_EQ(one.mean, 1.0833012774287867);
  EXPECT_EQ(one.stddev, 0.3371523677785121);
}

TEST(ParallelUncertainty, ParallelLhsAgreesWithSequentialStatistically) {
  const std::vector<uncertainty::ParamSpec> params{
      {"a", relkit::uniform(0.0, 1.0)}, {"b", relkit::uniform(1.0, 2.0)}};
  Rng ra(13), rb(13);
  const auto seq = uncertainty::propagate(params, quadratic_model, 4000, ra,
                                          uncertainty::Sampling::kLatinHypercube,
                                          1);
  const auto par = uncertainty::propagate(params, quadratic_model, 4000, rb,
                                          uncertainty::Sampling::kLatinHypercube,
                                          4);
  // The same samples by the determinism contract; the statistical bounds
  // hold a fortiori.
  EXPECT_NEAR(par.mean, seq.mean, 5.0 * seq.stddev / std::sqrt(4000.0));
  EXPECT_NEAR(par.stddev, seq.stddev, 0.1 * seq.stddev);
}

}  // namespace
