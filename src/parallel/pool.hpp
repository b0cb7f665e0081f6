// relkit::parallel — a small, work-stealing-free thread pool for the
// embarrassingly parallel fan-outs in RelKit: Monte Carlo replications
// (sim::SystemSimulator / sim::SrnSimulator), parametric-uncertainty
// sample propagation (uncertainty::propagate), and batch model solves
// (relkit_cli --batch).
//
// Design:
//
//   * Fixed worker threads (jobs - 1 background threads; the calling thread
//     always participates, so jobs == 1 means "no threads at all" and the
//     caller runs every chunk inline).
//   * Chunked dynamic scheduling: for_chunks(n, chunk, body) carves [0, n)
//     into fixed-size chunks that workers claim with one atomic fetch_add —
//     no per-task queues, no stealing, nothing to get wrong under TSan.
//   * Deterministic decomposition: chunk boundaries depend only on
//     (n, chunk), never on the worker count or on timing. reduce_chunks
//     merges per-chunk accumulators in chunk-index order, so a reduction's
//     result is a pure function of (inputs, n, chunk) — the worker count
//     can change only the wall-clock time, not the answer. Stochastic
//     fan-outs (simulator replications, uncertainty samples, rare-event
//     cycles) go through seeded_reduce, which extends the same idea to
//     randomness: item i always draws from the i-th split() of the master
//     stream, whichever thread runs it and whatever the jobs value. See
//     docs/parallelism.md for the full determinism contract.
//   * Cooperative cancellation: an optional cancel() predicate (typically
//     robust::Budget deadline checks) is polled between chunks; once it
//     returns true no further chunks start, in-flight chunks finish, and
//     for_chunks reports how many chunks ran.
//   * Observability: every fan-out opens a `parallel.region` span
//     (items/chunk/jobs/chunks-run attrs), bumps the `pool.tasks` counter
//     per chunk, and accumulates `pool.steal_idle_ns` — nanoseconds workers
//     spent idle after work was posted before claiming their first chunk.
//
// Exceptions thrown by a chunk body cancel the region and are rethrown on
// the calling thread (first one wins).
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace relkit::parallel {

class ThreadPool {
 public:
  /// A pool running work on `jobs` threads total: the caller plus
  /// jobs - 1 background workers. jobs == 0 means hardware concurrency.
  explicit ThreadPool(unsigned jobs = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total threads that execute chunks (callers included), >= 1.
  unsigned jobs() const { return jobs_; }

  using Body = std::function<void(std::size_t begin, std::size_t end)>;
  using CancelFn = std::function<bool()>;

  /// Runs body(begin, end) over [0, n) in chunks of `chunk` (the final
  /// chunk may be short). Blocks until every started chunk finished.
  /// Returns the number of chunks that ran (== ceil(n/chunk) unless
  /// cancelled or a body threw). The cancel predicate, when given, is
  /// polled before each chunk from whichever thread claims it.
  std::size_t for_chunks(std::size_t n, std::size_t chunk, const Body& body,
                         const CancelFn& cancel = nullptr);

 private:
  struct Job;
  void worker_loop();
  static void run_chunks(Job& job);

  unsigned jobs_ = 1;
  struct Impl;
  Impl* impl_ = nullptr;  // threads + queue state; null when jobs_ == 1
};

/// Chunk size heuristic for n items. Depends on n ONLY (never on the
/// worker count) so that chunked reductions stay deterministic when the
/// pool size changes: enough chunks (~64) for load balance on any sane
/// core count, large enough to amortize the claim fetch_add.
inline std::size_t default_chunk(std::size_t n) {
  const std::size_t chunk = n / 64;
  return chunk < 1 ? 1 : (chunk > 8192 ? 8192 : chunk);
}

/// Deterministic chunked reduction. chunk_fn(begin, end) produces one
/// accumulator per chunk; merge(acc, chunk_acc) folds them together IN
/// CHUNK-INDEX ORDER, so the result is independent of the worker count.
/// Chunks skipped by cancellation are simply absent from the fold.
template <typename Acc, typename ChunkFn, typename MergeFn>
Acc reduce_chunks(ThreadPool& pool, std::size_t n, std::size_t chunk,
                  Acc init, const ChunkFn& chunk_fn, const MergeFn& merge,
                  const ThreadPool::CancelFn& cancel = nullptr) {
  if (n == 0) return init;
  const std::size_t chunks = (n + chunk - 1) / chunk;
  std::vector<std::optional<Acc>> partial(chunks);
  pool.for_chunks(
      n, chunk,
      [&](std::size_t begin, std::size_t end) {
        partial[begin / chunk] = chunk_fn(begin, end);
      },
      cancel);
  Acc acc = std::move(init);
  for (std::size_t c = 0; c < chunks; ++c) {
    if (partial[c].has_value()) merge(acc, *partial[c]);
  }
  return acc;
}

// ---- process-wide default pool ---------------------------------------------

/// The process-wide parallelism degree used by sim::*, uncertainty::* and
/// the CLI when no explicit pool is given. The LIBRARY default is 1
/// (everything runs on the caller's thread); opting into
/// parallelism is an entry-point decision (relkit_cli --jobs, bench --jobs,
/// or an explicit set_default_jobs call).
unsigned default_jobs();

/// Sets the process-wide degree; 0 means hardware concurrency. Must not be
/// called while a parallel region is running (entry points call it once at
/// startup).
void set_default_jobs(unsigned jobs);

/// The lazily created process-wide pool, sized to default_jobs(). Resized
/// (recreated) on the next call after set_default_jobs changes the degree;
/// the same "no concurrent regions" caveat applies.
ThreadPool& global_pool();

/// Resolves a `jobs` request (the convention every solver option struct
/// uses: 0 = default_jobs(), 1 = force sequential, N = N threads) to a pool
/// for the duration of one solve. When the requested degree matches the
/// process-wide default the shared global_pool() is used; otherwise a
/// private pool is spun up and torn down with the lease, so an explicit
/// per-solve `jobs` never perturbs the global pool other callers may be
/// using concurrently.
class PoolLease {
 public:
  explicit PoolLease(unsigned jobs) {
    jobs_ = jobs != 0 ? jobs : default_jobs();
    if (jobs_ <= 1) return;
    if (jobs_ == default_jobs()) {
      pool_ = &global_pool();
    } else {
      owned_ = std::make_unique<ThreadPool>(jobs_);
      pool_ = owned_.get();
    }
  }

  /// The pool to run on, or nullptr when the solve should stay on the
  /// caller's thread.
  ThreadPool* get() const { return pool_; }
  /// Effective parallelism degree (>= 1).
  unsigned jobs() const { return jobs_; }

 private:
  unsigned jobs_ = 1;
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<ThreadPool> owned_;
};

/// The one fan-out for stochastic estimators: a reduce_chunks over [0, n)
/// on the lease's pool in which item i draws from the i-th master.split()
/// stream. chunk_fn(begin, end, streams) must call streams.split() once
/// per item, in item order, to obtain that item's stream.
///
/// Instead of one stream per item, master is walked once and copied at
/// each chunk boundary (one copy per chunk, ~64-128 for most n); a chunk
/// replays split() from its copy, and master ends as after n split()
/// calls. Without a leased pool the same chunks fold in the same order on
/// the caller's thread, so the result is bit-identical for every jobs
/// value. Callers hold the lease (not a jobs count) so that a loop of
/// fan-outs, like the rare-event batches, shares one pool. Rng is any
/// copyable generator whose split() consumes one operator()() draw, so the
/// walk draws instead of splitting.
template <typename Acc, typename Rng, typename ChunkFn, typename MergeFn>
Acc seeded_reduce(const PoolLease& lease, Rng& master, std::size_t n,
                  Acc init, const ChunkFn& chunk_fn, const MergeFn& merge,
                  const ThreadPool::CancelFn& cancel = nullptr) {
  const std::size_t chunk = default_chunk(n);
  std::vector<Rng> chunk_starts;
  chunk_starts.reserve((n + chunk - 1) / chunk);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % chunk == 0) chunk_starts.push_back(master);
    master();
  }
  const auto run = [&](std::size_t begin, std::size_t end) {
    Rng streams = chunk_starts[begin / chunk];
    return chunk_fn(begin, end, streams);
  };
  if (lease.get() != nullptr) {
    return reduce_chunks<Acc>(*lease.get(), n, chunk, std::move(init), run,
                              merge, cancel);
  }
  Acc acc = std::move(init);
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    if (cancel && cancel()) break;
    merge(acc, run(begin, std::min(begin + chunk, n)));
  }
  return acc;
}

}  // namespace relkit::parallel
