// Shared machinery of the end-to-end benchmark: run configuration, block
// timing and its statistics, the correctness-check ledger (every check is
// also run on a perturbed output and must reject it), the benchmark's own
// span recorder for traced runs, and child-process helpers.
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace relbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 12.0;
  bool trace = false;
  /// The cold process's start: the launcher's exec, else entry of main().
  Clock::time_point start;
  std::string serve_exe;  ///< the relkit_serve daemon
  std::string out_dir;    ///< run outputs (traces, access logs, results)
};

/// One reported number. `samples` is how many measurements it summarizes
/// (printed in the human-readable table, not in the result line).
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::size_t samples = 0;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

// ---- statistics -------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);

/// Host-speed-normalized block timing. The host this benchmark runs on is
/// shared: for seconds at a time it runs the same code 1.5-1.7 times
/// slower, so raw times of whole runs differ by that much (see README
/// "Noise"). So every block of a run is bracketed by a fixed reference
/// chunk (harness code, no relkit), and a block's figure is its time over
/// the mean time of the two chunks around it; a spell slows both alike.
/// `op_ms` is the interquartile mean of that ratio over the run, times the
/// chunk's nominal time kReferenceMs, divided by the operations in a block:
/// the time of one operation on a host where the chunk takes kReferenceMs.
class BlockTimer {
 public:
  /// Nominal time of one reference chunk: about its time on the machine of
  /// README "Reference figures" outside slow spells.
  static constexpr double kReferenceMs = 1.0;

  /// Builds the reference data and times the first chunk.
  BlockTimer();
  /// Records a block of `seconds`, times the next chunk, and returns the
  /// block's ratio.
  double add_block(double seconds);
  /// Raw latency of one operation, for the reference line only.
  void add_op(double seconds) { ops_.push_back(seconds); }
  /// kReferenceMs x interquartile mean of the block ratios / ops_per_block.
  double op_ms(std::size_t ops_per_block) const;
  const std::vector<double>& op_seconds() const { return ops_; }
  /// Median time of one reference chunk this run, in ms (printed, so a
  /// reader can see how fast the host ran).
  double reference_ms() const;

 private:
  double chunk_seconds();
  std::vector<std::uint32_t> cols_;
  std::vector<double> vals_, x_, y_;
  std::vector<double> ratios_, ops_, chunks_;
  double last_chunk_ = 0.0;
};

/// Number of blocks a run of `seconds` makes: the workload's nominal block
/// rate times the run length, never fewer than 100. Fixed by the arguments
/// alone, not by timing, so every run does the same work.
std::size_t block_count(double seconds, double blocks_per_second);

/// Prints a "reference" line (median and tail of per-operation latency)
/// for the README's reference figures.
void print_latency_reference(const std::string& workload,
                             const std::vector<double>& op_seconds);

// ---- correctness ledger -----------------------------------------------------

/// Records the outcome of every correctness check. Each check family is
/// registered with a negative case: the same predicate applied to a copy of
/// one output perturbed by a relative 1e-6 (or by a stated amount for
/// statistical checks) must be rejected, otherwise the check is reported as
/// blind and the run as incorrect.
class Checks {
 public:
  /// Records one comparison; returns `ok`.
  bool expect(const std::string& family, bool ok, const std::string& detail);
  /// Records that `family`'s negative case was (or was not) rejected.
  void negative(const std::string& family, bool rejected,
                const std::string& detail);
  bool all_ok() const;
  /// One line per family: checks passed / run and the negative case.
  void print() const;

 private:
  struct Family {
    std::size_t run = 0;
    std::size_t passed = 0;
    std::string first_failure;
    bool negative_done = false;
    bool negative_rejected = false;
    std::string negative_detail;
  };
  std::map<std::string, Family> families_;
};

/// |got - want| <= rel * |want| + abs.
bool close(double got, double want, double rel, double abs = 0.0);

// ---- benchmark-side tracing -------------------------------------------------

/// Spans recorded by the benchmark around its calls into each module
/// (name, start, end, parent), kept in memory and written out at the end.
class Tracer {
 public:
  struct Record {
    const char* name;
    std::int32_t parent;
    double start_s;
    double end_s;
  };
  Tracer();
  std::size_t open(const char* name);
  void close(std::size_t index);
  /// Inclusive durations (seconds) of every completed span named `name`.
  std::vector<double> durations(const std::string& name) const;
  /// Writes the spans as a Chrome trace-event file.
  void write_chrome(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Record> records_;
  std::vector<std::size_t> stack_;
};

/// RAII span; a null tracer makes it free (the untraced path).
class Span {
 public:
  Span(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->close(index_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

/// Mean of a sample (0 for an empty one).
double mean(const std::vector<double>& values);

/// Mean of the middle half of a sample (0 for an empty one).
double interquartile_mean(std::vector<double> values);

// ---- processes --------------------------------------------------------------

/// A spawned child process with its stdout on a pipe.
struct Child {
  pid_t pid = -1;
  int stdout_fd = -1;
};

/// Spawns `argv[0]` with the given arguments; stdout goes to a pipe,
/// stderr is inherited. Returns pid -1 on failure.
Child spawn(const std::vector<std::string>& argv);

/// Reads one line from the child's stdout, waiting at most `timeout_ms`.
bool read_line(Child& child, std::string& line, int timeout_ms);

/// Sends SIGTERM when `terminate` is set, drains stdout, waits for exit.
/// Returns the exit status (-1 if the child did not exit normally).
int finish(Child& child, bool terminate);

/// Pins this process (and the children it spawns later) to the allowed CPU
/// that runs a short fixed probe fastest, and returns that CPU (-1 when
/// affinity cannot be set). Untraced runs call it after their cold set-up,
/// so the probe is not part of setup_s. On a shared host a CPU whose sibling is busy
/// runs everything slower for tens of seconds at a time; the probe avoids
/// starting a run on one.
int pin_to_fastest_cpu();

/// Peak resident set (VmHWM) of a process in MiB; `pid` 0 = this process.
double peak_rss_mb(pid_t pid);

/// user + system CPU seconds of a process, from /proc/<pid>/stat.
double process_cpu_seconds(pid_t pid);

/// Small deterministic generator for the benchmark's inputs (splitmix64),
/// independent of the library's own RNG.
class InputRng {
 public:
  explicit InputRng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  double uniform();  ///< [0, 1)
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  double log_uniform(double lo, double hi);
  /// Integer in [lo, hi].
  int range(int lo, int hi);

 private:
  std::uint64_t state_;
};

// ---- workloads ----------------------------------------------------------------

/// Per-layer metrics appended by a workload's traced layer pass.
using LayerMetrics = std::vector<Metric>;

Outcome run_model_zoo(const RunConfig& config);
Outcome run_long_horizon(const RunConfig& config);
Outcome run_monte_carlo(const RunConfig& config);

/// What a traced run measures on its own workload: alternating untraced
/// and traced blocks give the tracing overhead (traced / untraced median
/// block ratio); their operations are the run's attempted and failed
/// counts.
struct OwnPass {
  double overhead = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

/// Traced passes: fill `out` with the workload's per-layer metrics and
/// record correctness of what they computed in `checks`. `own` is non-null
/// for the workload the run was started for.
void layers_model_zoo(const RunConfig& config, Tracer& tracer, Checks& checks,
                      LayerMetrics& out, OwnPass* own);
void layers_long_horizon(const RunConfig& config, Tracer& tracer,
                         Checks& checks, LayerMetrics& out, OwnPass* own);
void layers_monte_carlo(const RunConfig& config, Tracer& tracer,
                        Checks& checks, LayerMetrics& out, OwnPass* own);
/// srn_cluster is not a gated workload: a fixed six-net pass gives its
/// layer figures in every traced run.
void layers_srn_cluster(const RunConfig& config, Tracer& tracer,
                        Checks& checks, LayerMetrics& out);

}  // namespace relbench
