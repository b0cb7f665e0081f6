// relbench — the end-to-end benchmark harness for RelKit.
//
//   relbench [--exec-ns T] --workload W --seed N --seconds S --trace 0|1
//            --serve PATH_TO_relkit_serve --out DIR
//
// --exec-ns is the CLOCK_MONOTONIC time (ns) at which the launcher exec'd
// this process; setup_s is timed from it (from main() when it is absent).
// Workloads: model_zoo, long_horizon, monte_carlo. An untraced run prints
// op_ms, setup_s and peak_rss_mb; a traced run prints every per-layer
// metric of those three workloads and of the srn_cluster layer pass, plus
// the tracing overhead of W. The last line of stdout is the result object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// Exit codes: 0 done (the result says whether outputs were correct),
// 1 usage, 2 the harness could not run the workload.
#include <csignal>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.hpp"
#include "markov/solution_cache.hpp"

namespace {

using relbench::Outcome;
using relbench::RunConfig;

constexpr const char* kWorkloads[] = {"model_zoo", "long_horizon",
                                      "monte_carlo"};

void usage() {
  std::fprintf(stderr,
               "usage: relbench [--exec-ns T] --workload W --seed N --seconds S "
               "--trace 0|1 "
               "--serve PATH --out DIR\n");
}

bool known_workload(const std::string& w) {
  for (const char* k : kWorkloads) {
    if (w == k) return true;
  }
  return false;
}

void print_result(const Outcome& out) {
  std::printf("\n{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              out.correct ? "true" : "false",
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const relbench::Metric& m = out.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

void print_table(const Outcome& out) {
  for (const relbench::Metric& m : out.metrics) {
    std::printf("metric %-28s %14.6g %-6s (%zu samples)\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.samples);
  }
}

Outcome traced_run(const RunConfig& config) {
  using namespace relbench;
  Tracer tracer;
  Checks checks;
  Outcome out;
  OwnPass own;
  layers_srn_cluster(config, tracer, checks, out.metrics);
  relkit::markov::SolutionCache::instance().clear();
  for (const char* w : kWorkloads) {
    RunConfig layer = config;
    layer.workload = w;
    OwnPass* mine = config.workload == w ? &own : nullptr;
    const std::string name = w;
    if (name == "model_zoo") {
      layers_model_zoo(layer, tracer, checks, out.metrics, mine);
    } else if (name == "long_horizon") {
      layers_long_horizon(layer, tracer, checks, out.metrics, mine);
    } else {
      layers_monte_carlo(layer, tracer, checks, out.metrics, mine);
    }
    relkit::markov::SolutionCache::instance().clear();
  }
  out.metrics.push_back({"trace.overhead_ratio", own.overhead, "ratio", 1});
  out.attempted = own.attempted;
  out.failed = own.failed;
  tracer.write_chrome(config.out_dir + "/" + config.workload +
                      "_bench_trace.json");
  checks.print();
  out.correct = checks.all_ok() && own.attempted > 0;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  config.start = relbench::Clock::now();
  // A daemon that closes a connection early must not kill the harness.
  std::signal(SIGPIPE, SIG_IGN);
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      usage();
      return 1;
    }
    const std::string value = argv[++i];
    if (arg == "--exec-ns") {
      config.start = relbench::Clock::time_point(
          std::chrono::nanoseconds(std::strtoll(value.c_str(), nullptr, 10)));
    } else if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (arg == "--serve") {
      config.serve_exe = value;
    } else if (arg == "--out") {
      config.out_dir = value;
    } else {
      usage();
      return 1;
    }
  }

  if (!known_workload(config.workload) || !have_trace ||
      !(config.seconds > 0.0) || config.serve_exe.empty() ||
      config.out_dir.empty()) {
    usage();
    return 1;
  }
  std::filesystem::create_directories(config.out_dir);
  if (!std::filesystem::exists("examples/models")) {
    std::fprintf(stderr, "relbench: run from the repository root\n");
    return 2;
  }

  Outcome out;
  if (config.trace) {
    std::printf("pinned to cpu %d\n", relbench::pin_to_fastest_cpu());
    out = traced_run(config);
  } else if (config.workload == "model_zoo") {
    out = relbench::run_model_zoo(config);
  } else if (config.workload == "long_horizon") {
    out = relbench::run_long_horizon(config);
  } else {
    out = relbench::run_monte_carlo(config);
  }
  print_table(out);
  std::printf("outcome %s: attempted %llu, failed %llu\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(out.attempted),
              static_cast<unsigned long long>(out.failed));
  print_result(out);
  return 0;
}
