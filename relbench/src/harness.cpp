#include "harness.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace relbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

namespace {

/// The highest percentile (of 50, 90, 99, 99.9) that keeps at least ten
/// samples beyond it; 50 when there are fewer than forty samples.
double tail_percentile(std::size_t samples) {
  double best = 50.0;
  for (const double p : {90.0, 99.0, 99.9}) {
    if (static_cast<double>(samples) * (1.0 - p / 100.0) >= 10.0) best = p;
  }
  return best;
}

}  // namespace

namespace {

// Reference chunk: sweeps of a fixed random 400-row sparse matrix-vector
// product (5 entries a row, cache-resident, like the workloads' small
// chains), then a run of uniform draws through log, like the simulators'.
// Of the kernels tried, these two tracked the workloads' slow spells best.
// It starts with whatever caches the block left (on model_zoo, the
// daemon's and the network stack's), as the block's own operations did: a
// warmed-up chunk tracked model_zoo worse (ten-seed spread 0.16 vs 0.09).
constexpr std::size_t kRefRows = 400;
constexpr std::size_t kRefPerRow = 5;
constexpr int kRefSweeps = 400;
constexpr int kRefDraws = 80000;

}  // namespace

BlockTimer::BlockTimer()
    : cols_(kRefRows * kRefPerRow), vals_(kRefRows * kRefPerRow),
      x_(kRefRows, 1.0), y_(kRefRows, 0.0) {
  InputRng rng(0x5eed);
  for (std::size_t i = 0; i < cols_.size(); ++i) {
    cols_[i] = static_cast<std::uint32_t>(rng.next() % kRefRows);
    vals_[i] = rng.uniform(0.5, 1.5);
  }
  last_chunk_ = chunk_seconds();
}

double BlockTimer::chunk_seconds() {
  std::fill(x_.begin(), x_.end(), 1.0);
  const Clock::time_point t0 = Clock::now();
  for (int sweep = 0; sweep < kRefSweeps; ++sweep) {
    double total = 0.0;
    for (std::size_t i = 0; i < kRefRows; ++i) {
      double a = 0.0;
      for (std::size_t k = 0; k < kRefPerRow; ++k) {
        a += vals_[i * kRefPerRow + k] * x_[cols_[i * kRefPerRow + k]];
      }
      y_[i] = a;
      total += a;
    }
    const double scale = static_cast<double>(kRefRows) / total;
    for (std::size_t i = 0; i < kRefRows; ++i) x_[i] = y_[i] * scale;
  }
  InputRng rng(0x10c);
  double acc = x_[0];
  for (int i = 0; i < kRefDraws; ++i) acc += std::log(rng.uniform() + 1e-300);
  volatile double sink = acc;
  (void)sink;
  const double seconds = seconds_since(t0);
  chunks_.push_back(seconds);
  return seconds;
}

double BlockTimer::add_block(double seconds) {
  const double next = chunk_seconds();
  const double ratio = seconds / (0.5 * (last_chunk_ + next));
  last_chunk_ = next;
  ratios_.push_back(ratio);
  return ratio;
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t lo = values.size() / 4;
  const std::size_t hi = std::max(lo + 1, values.size() - values.size() / 4);
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += values[i];
  return sum / static_cast<double>(hi - lo);
}

double BlockTimer::op_ms(std::size_t ops_per_block) const {
  return kReferenceMs * interquartile_mean(ratios_) /
         static_cast<double>(ops_per_block);
}

double BlockTimer::reference_ms() const { return quantile(chunks_, 0.5) * 1e3; }

std::size_t block_count(double seconds, double blocks_per_second) {
  const double n = std::ceil(seconds * blocks_per_second);
  return std::max<std::size_t>(100, static_cast<std::size_t>(n));
}

void print_latency_reference(const std::string& workload,
                             const std::vector<double>& op_seconds) {
  const double tail = tail_percentile(op_seconds.size());
  std::printf("reference %s: per-op latency median %.4f ms, p%g %.4f ms "
              "(%zu samples)\n",
              workload.c_str(), quantile(op_seconds, 0.5) * 1e3, tail,
              quantile(op_seconds, tail / 100.0) * 1e3, op_seconds.size());
}

// ---- checks -----------------------------------------------------------------

bool close(double got, double want, double rel, double abs) {
  return std::isfinite(got) && std::fabs(got - want) <= rel * std::fabs(want) + abs;
}

bool Checks::expect(const std::string& family, bool ok,
                    const std::string& detail) {
  Family& f = families_[family];
  ++f.run;
  if (ok) {
    ++f.passed;
  } else if (f.first_failure.empty()) {
    f.first_failure = detail;
  }
  return ok;
}

void Checks::negative(const std::string& family, bool rejected,
                      const std::string& detail) {
  Family& f = families_[family];
  f.negative_done = true;
  f.negative_rejected = rejected;
  f.negative_detail = detail;
}

bool Checks::all_ok() const {
  for (const auto& [name, f] : families_) {
    if (f.run == 0 || f.passed != f.run) return false;
    if (!f.negative_done || !f.negative_rejected) return false;
  }
  return !families_.empty();
}

void Checks::print() const {
  for (const auto& [name, f] : families_) {
    std::printf("check %-28s %zu/%zu passed; negative case %s (%s)%s%s\n",
                name.c_str(), f.passed, f.run,
                !f.negative_done       ? "MISSING"
                : f.negative_rejected ? "rejected"
                                      : "NOT REJECTED",
                f.negative_detail.c_str(),
                f.first_failure.empty() ? "" : "; first failure: ",
                f.first_failure.c_str());
  }
}

// ---- tracing ----------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) { records_.reserve(1u << 16); }

std::size_t Tracer::open(const char* name) {
  const std::int32_t parent =
      stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
  records_.push_back({name, parent, seconds_since(origin_), -1.0});
  stack_.push_back(records_.size() - 1);
  return records_.size() - 1;
}

void Tracer::close(std::size_t index) {
  records_[index].end_s = seconds_since(origin_);
  if (!stack_.empty() && stack_.back() == index) stack_.pop_back();
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.end_s >= 0.0 && name == r.name) out.push_back(r.end_s - r.start_s);
  }
  return out;
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.end_s < 0.0) continue;
    char buf[256];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d}}",
                  i ? "," : "", r.name, r.start_s * 1e6,
                  (r.end_s - r.start_s) * 1e6, i, r.parent);
    out << buf;
  }
  out << "]}\n";
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (const double v : values) s += v;
  return s / static_cast<double>(values.size());
}

// ---- processes --------------------------------------------------------------

Child spawn(const std::vector<std::string>& argv) {
  Child child;
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) return child;
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // The child dies with the harness, so a crashed run leaves no daemon.
    ::prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(fds[1], STDOUT_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(fds[1]);
  if (pid < 0) {
    ::close(fds[0]);
    return child;
  }
  child.pid = pid;
  child.stdout_fd = fds[0];
  return child;
}

bool read_line(Child& child, std::string& line, int timeout_ms) {
  line.clear();
  const Clock::time_point t0 = Clock::now();
  char c = 0;
  while (true) {
    const int left =
        timeout_ms - static_cast<int>(seconds_since(t0) * 1000.0);
    if (left <= 0) return false;
    pollfd p{child.stdout_fd, POLLIN, 0};
    if (::poll(&p, 1, left) <= 0) return false;
    const ssize_t n = ::read(child.stdout_fd, &c, 1);
    if (n <= 0) return false;
    if (c == '\n') return true;
    line.push_back(c);
  }
}

int finish(Child& child, bool terminate) {
  if (child.pid <= 0) return -1;
  if (terminate) ::kill(child.pid, SIGTERM);
  char buf[4096];
  while (child.stdout_fd >= 0 && ::read(child.stdout_fd, buf, sizeof buf) > 0) {
  }
  if (child.stdout_fd >= 0) ::close(child.stdout_fd);
  child.stdout_fd = -1;
  int status = 0;
  while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
  }
  child.pid = -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

namespace {

/// Fixed integer and floating-point work, independent of the library.
double probe_seconds() {
  double best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    const Clock::time_point t0 = Clock::now();
    InputRng rng(rep);
    double acc = 0.0;
    for (int i = 0; i < 400000; ++i) acc += std::sqrt(rng.uniform() + acc * 1e-9);
    volatile double sink = acc;
    (void)sink;
    best = std::min(best, seconds_since(t0));
  }
  return best;
}

}  // namespace

int pin_to_fastest_cpu() {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
  int best_cpu = -1;
  double best = 1e9;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (::sched_setaffinity(0, sizeof one, &one) != 0) continue;
    const double t = probe_seconds();
    if (t < best) {
      best = t;
      best_cpu = cpu;
    }
  }
  if (best_cpu < 0) {
    ::sched_setaffinity(0, sizeof allowed, &allowed);
    return -1;
  }
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  CPU_SET(best_cpu, &chosen);
  ::sched_setaffinity(0, sizeof chosen, &chosen);
  return best_cpu;
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return -1.0;
}

double process_cpu_seconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name: utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close_paren = text.rfind(')');
  if (close_paren == std::string::npos) return -1.0;
  std::istringstream rest(text.substr(close_paren + 2));
  std::string field;
  double utime = 0.0, stime = 0.0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::strtod(field.c_str(), nullptr);
    if (i == 15) stime = std::strtod(field.c_str(), nullptr);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

// ---- inputs -----------------------------------------------------------------

std::uint64_t InputRng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double InputRng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double InputRng::log_uniform(double lo, double hi) {
  return std::exp(uniform(std::log(lo), std::log(hi)));
}

int InputRng::range(int lo, int hi) {
  return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
}

}  // namespace relbench
