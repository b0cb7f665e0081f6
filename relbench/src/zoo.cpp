// model_zoo: the shipped example models plus a seeded mix of small RBD,
// fault-tree and reliability-graph models, each sent as one POST /solve to
// relkit_serve --jobs 1 with sampled tracing and the access log on. The
// framework (parse, robust chain, solution cache, spans, HTTP/JSON) is
// nearly all of the time here; the kernels are nearly none.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/linsolve.hpp"
#include "harness.hpp"
#include "io/model_parser.hpp"
#include "markov/ctmc.hpp"
#include "markov/solution_cache.hpp"
#include "obs/obs.hpp"
#include "oracle.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/solve_json.hpp"

namespace relbench {
namespace {

constexpr int kGenerated = 250;          // generated models per round
constexpr double kRecurringShare = 0.15; // pools drawn from the catalogue
constexpr int kCatalogue = 12;           // recurring pools
constexpr double kBlocksPerSecond = 72.0;
constexpr const char* kTraceSample = "0.01";
/// Below this unavailability a pool's up-state sum lies within a few
/// hundred ulps of 1 and may round past it (the pool-rounding fault).
constexpr double kFaultRegion = 1e-13;

struct Pool {
  int n = 0, k = 0;
  double lambda = 0.0, mu = 0.0;
};

struct ZooModel {
  std::string name;
  std::string text;
  std::string request;       ///< JSON body of the POST /solve
  double expected = 0.0;     ///< oracle's steady figure
  bool known_fault = false;  ///< a pool in the fault region
  bool lone_pool = false;    ///< the whole model is one pool
  bool bridge = false;       ///< a bridge network
  std::vector<Pool> pools;
};

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string pool_spec(const Pool& p) {
  return "markov " + std::to_string(p.n) + " " + std::to_string(p.k) + " " +
         fmt(p.lambda) + " " + fmt(p.mu);
}

/// Fault-region pools, the same in every round: the one that hits the
/// pool-rounding fault (availability 1 - 1e-18; the up-state sum rounds
/// above 1 and the parser's ComponentModel::fixed rejects it as an invalid
/// argument) and seven more whose sums happen to round to 1 or below.
constexpr Pool kFaultRegionPools[] = {
    {11, 1, 0.0041, 0.85}, {12, 1, 0.001, 0.5},   {10, 2, 0.002, 1.0},
    {8, 1, 0.0005, 0.2},   {12, 3, 0.003, 0.9},   {6, 1, 0.0001, 0.05},
    {9, 1, 0.003, 0.6},    {11, 1, 0.0045, 0.85}};

/// A seeded pool: n in 2..12, any k, lambda log-uniform 1e-4..1e-2 and
/// lambda/mu log-uniform 1e-4..1e-1, so unavailabilities reach far past
/// nine nines. A draw inside the fault region is drawn again (and counted
/// in `redrawn`): whether such a pool fails is a rounding accident, so it
/// would fail on some seeds only; the fixed fault-region pools above carry
/// that regime instead.
Pool fresh_pool(InputRng& rng, std::uint64_t& redrawn) {
  while (true) {
    Pool p;
    p.n = rng.range(2, 12);
    p.k = rng.range(1, p.n);
    p.lambda = std::stod(fmt(rng.log_uniform(1e-4, 1e-2)));
    p.mu = std::stod(fmt(p.lambda / rng.log_uniform(1e-4, 1e-1)));
    if (oracle::pool_unavailability(p.n, p.k, p.lambda, p.mu) >= kFaultRegion) {
      return p;
    }
    ++redrawn;
  }
}

struct Generator {
  InputRng rng;
  std::vector<Pool> catalogue;
  std::uint64_t redrawn = 0;
  explicit Generator(std::uint64_t seed) : rng(seed) {
    for (int i = 0; i < kCatalogue; ++i) {
      catalogue.push_back(fresh_pool(rng, redrawn));
    }
  }

  /// A pool event body; one in kRecurringShare comes from the catalogue.
  std::string pool(ZooModel& m) {
    const Pool p = rng.uniform() < kRecurringShare
                       ? catalogue[static_cast<std::size_t>(
                             rng.range(0, kCatalogue - 1))]
                       : fresh_pool(rng, redrawn);
    m.pools.push_back(p);
    return pool_spec(p);
  }

  /// One event line body (after the name); pools are recorded in `m`.
  std::string event(ZooModel& m) {
    const double u = rng.uniform();
    if (u < 0.5) return pool(m);
    if (u < 0.75) {
      return "rate " + fmt(rng.log_uniform(1e-5, 1e-2)) + " repair " +
             fmt(rng.log_uniform(0.05, 2.0));
    }
    return "prob " + fmt(rng.uniform(0.9, 0.99999));
  }

  ZooModel model(int index) {
    ZooModel m;
    m.name = "gen" + std::to_string(index);
    std::ostringstream out;
    const double u = rng.uniform();
    int next_event = 0;
    auto new_event = [&]() {
      const std::string name = "e" + std::to_string(next_event++);
      out << "event " << name << " " << event(m) << "\n";
      return name;
    };
    if (u < 0.1) {  // a lone pool
      m.lone_pool = true;
      out << "model rbd " << m.name << "\nevent e0 " << pool(m) << "\ntop e0\n";
    } else if (u < 0.45 || u >= 0.8) {  // RBD or fault tree
      const bool rbd = u < 0.45;
      out << "model " << (rbd ? "rbd " : "ftree ") << m.name << "\n";
      const int subsystems = rng.range(2, 4);
      std::string top_children;
      for (int s = 0; s < subsystems; ++s) {
        const int shape = rng.range(0, 2);
        const std::string gate = "g" + std::to_string(s);
        if (shape == 0) {
          top_children += " " + new_event();
          continue;
        }
        const int width = shape == 1 ? rng.range(2, 3) : rng.range(3, 5);
        std::string children;
        for (int c = 0; c < width; ++c) children += " " + new_event();
        if (shape == 1) {
          out << "gate " << gate << (rbd ? " or" : " and") << children << "\n";
        } else {
          out << "gate " << gate << " kofn " << rng.range(2, width - 1)
              << children << "\n";
        }
        top_children += " " + gate;
      }
      out << "gate top " << (rbd ? "and" : "or") << top_children << "\n";
      out << "top top\n";
    } else {  // bridge network
      m.bridge = true;
      out << "model relgraph " << m.name << "\nvertices 4\nterminals 0 3\n";
      const std::string a = new_event(), b = new_event(), c = new_event(),
                        d = new_event(), e = new_event();
      out << "edge " << a << " 0 1\nedge " << c << " 0 2\nedge " << b
          << " 1 3\nedge " << d << " 2 3\nedge " << e << " 1 2 undirected\n";
    }
    m.text = out.str();
    return m;
  }
};

std::string request_body(const std::string& text) {
  return "{\"model\":\"" + relkit::obs::json_escape(text) + "\"}";
}

/// The round: shipped models (sorted by file name), the fault-region
/// pools, then the generated mix. Every block posts the whole round.
std::vector<ZooModel> make_round(std::uint64_t seed) {
  std::vector<ZooModel> round;
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator("examples/models")) {
    files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  for (const auto& path : files) {
    std::ifstream in(path);
    ZooModel m;
    m.name = path.filename().string();
    m.text.assign(std::istreambuf_iterator<char>(in),
                  std::istreambuf_iterator<char>());
    m.bridge = m.name == "bridge.relgraph";
    round.push_back(std::move(m));
  }
  for (const Pool& p : kFaultRegionPools) {
    ZooModel m;
    m.name = "fault_region_" + std::to_string(round.size());
    m.text = "model rbd " + m.name + "\nevent p " + pool_spec(p) + "\ntop p\n";
    m.lone_pool = true;
    m.pools.push_back(p);
    round.push_back(std::move(m));
  }
  Generator gen(seed);
  for (int i = 0; i < kGenerated; ++i) round.push_back(gen.model(i));
  std::printf("model_zoo round: %zu models, %llu fault-region pool draws "
              "drawn again\n",
              round.size(), static_cast<unsigned long long>(gen.redrawn));
  for (ZooModel& m : round) {
    m.request = request_body(m.text);
    for (const Pool& p : m.pools) {
      if (oracle::pool_unavailability(p.n, p.k, p.lambda, p.mu) < kFaultRegion) {
        m.known_fault = true;
      }
    }
    std::string error;
    m.expected = oracle::steady_value(m.text, &error);
    if (!error.empty()) {
      std::fprintf(stderr, "relbench: oracle cannot read %s: %s\n",
                   m.name.c_str(), error.c_str());
      std::exit(2);
    }
  }
  return round;
}

/// Fields of a /solve response body, extracted without the library.
struct Reply {
  bool ok = false;
  double steady = 0.0;
  std::string error_class;
};

Reply read_reply(const std::string& body) {
  Reply r;
  r.ok = body.find("\"ok\":true") != std::string::npos;
  const std::size_t s = body.find("\"steady\":");
  if (s != std::string::npos) r.steady = std::strtod(body.c_str() + s + 9, nullptr);
  const std::size_t e = body.find("\"error_class\":\"");
  if (e != std::string::npos) {
    const std::size_t start = e + 15;
    r.error_class = body.substr(start, body.find('"', start) - start);
  }
  return r;
}

/// The daemon under test, with the flags the workload runs it with.
class Daemon {
 public:
  Daemon(const RunConfig& config, const std::string& tag) {
    trace_path_ = config.out_dir + "/" + tag + "_trace.json";
    log_path_ = config.out_dir + "/" + tag + "_access.log";
    std::filesystem::remove(trace_path_);
    std::filesystem::remove(log_path_);
    child_ = spawn({config.serve_exe, "--port", "0", "--jobs", "1",
                    "--trace=" + trace_path_, "--trace-sample", kTraceSample,
                    "--access-log=" + log_path_});
    std::string line;
    if (child_.pid > 0 && read_line(child_, line, 10000) &&
        line.rfind("listening on ", 0) == 0) {
      port_ = std::atoi(line.c_str() + 13);
    }
    // Ready once /readyz answers 200.
    for (int i = 0; port_ > 0 && i < 1000; ++i) {
      if (relkit::serve::http_get("127.0.0.1", port_, "/readyz", 2000)
              .status == 200) {
        ready_ = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  bool ready() const { return ready_; }
  pid_t pid() const { return child_.pid; }

  /// One POST /solve; returns the body ("" on a transport failure).
  std::string solve(const std::string& request) const {
    const relkit::serve::ClientResponse r = relkit::serve::http_post(
        "127.0.0.1", port_, "/solve", request, 30000);
    return r.ok ? r.body : std::string();
  }

  /// Graceful shutdown (the trace file is written now); exit status.
  int stop() { return child_.pid > 0 ? finish(child_, true) : 0; }

  const std::string& trace_path() const { return trace_path_; }
  const std::string& log_path() const { return log_path_; }

 private:
  Child child_;
  int port_ = 0;
  bool ready_ = false;
  std::string trace_path_, log_path_;
};

/// The only failure the benchmark expects: a model with a pool in the
/// fault region, rejected with the "invalid" class.
bool failure_expected(const ZooModel& m, const Reply& r) {
  return !r.ok && m.known_fault && r.error_class == "invalid";
}

/// Checks one response against the oracle; counts failures. Returns false
/// for a failure other than the known pool-rounding fault.
bool check_reply(const ZooModel& m, const std::string& body, Checks& checks,
                 std::uint64_t& failed) {
  const Reply r = read_reply(body);
  if (!r.ok) {
    ++failed;
    return checks.expect("zoo.failures_are_known_fault",
                         failure_expected(m, r),
                         m.name + ": " + (body.empty() ? "no response" : body));
  }
  bool ok = checks.expect("zoo.model_vs_oracle",
                          close(r.steady, m.expected, 1e-9, 1e-14),
                          m.name + ": got " + std::to_string(r.steady) +
                              " want " + std::to_string(m.expected));
  if (m.lone_pool) {
    const Pool& p = m.pools.front();
    ok &= checks.expect(
        "zoo.pool_vs_birth_death",
        close(r.steady, oracle::pool_availability(p.n, p.k, p.lambda, p.mu),
              1e-9, 1e-14),
        m.name);
  }
  return ok;
}

/// The negative cases of the zoo checks: one output scaled by 1 + 1e-6.
void zoo_negative_cases(const std::vector<ZooModel>& round, Checks& checks) {
  for (const ZooModel& m : round) {
    if (m.known_fault) continue;
    if (m.expected > 0.0) {
      const double bad = m.expected * (1.0 + 1e-6);
      checks.negative("zoo.model_vs_oracle",
                      !close(bad, m.expected, 1e-9, 1e-14),
                      m.name + " steady x(1+1e-6)");
      break;
    }
  }
  for (const ZooModel& m : round) {
    if (!m.lone_pool || m.known_fault) continue;
    const Pool& p = m.pools.front();
    const double want = oracle::pool_availability(p.n, p.k, p.lambda, p.mu);
    checks.negative("zoo.pool_vs_birth_death",
                    !close(want * (1.0 + 1e-6), want, 1e-9, 1e-14),
                    m.name + " availability x(1+1e-6)");
    break;
  }
  // A failure of any other model must be rejected.
  Reply failure;
  failure.error_class = "invalid";
  checks.negative("zoo.failures_are_known_fault",
                  !failure_expected(round.front(), failure),
                  round.front().name + " failing as \"invalid\"");
}

/// The bridge oracle: enumeration must match the textbook formula.
void check_bridge_formula(const std::vector<ZooModel>& round, Checks& checks) {
  bool negative_done = false;
  for (const ZooModel& m : round) {
    if (!m.bridge) continue;
    // Probabilities of A..E in declaration order (edges A 0-1, C 0-2,
    // B 1-3, D 2-3, E 1-2): read them back through the oracle on a
    // one-event model each.
    std::vector<double> up;
    std::istringstream in(m.text);
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t hash = line.find('#');
      if (hash != std::string::npos) line.erase(hash);
      if (line.rfind("event ", 0) != 0) continue;
      std::string error;
      const std::string name = line.substr(6, line.find(' ', 6) - 6);
      up.push_back(oracle::steady_value(
          "model rbd x\n" + line + "\ntop " + name + "\n", &error));
    }
    if (up.size() != 5) continue;
    // generated bridges declare A B C D E as e0 e1 e2 e3 e4 with edges
    // e0 0-1, e2 0-2, e1 1-3, e3 2-3, e4 1-2; bridge.relgraph declares
    // A B C D E with the same layout.
    const double formula = oracle::bridge_reliability(up[0], up[1], up[2],
                                                      up[3], up[4]);
    checks.expect("zoo.bridge_formula", close(m.expected, formula, 1e-12, 1e-15),
                  m.name);
    if (!negative_done) {
      checks.negative("zoo.bridge_formula",
                      !close(m.expected * (1.0 + 1e-6), formula, 1e-12, 1e-15),
                      m.name + " reliability x(1+1e-6)");
      negative_done = true;
    }
  }
}

/// Posts one round; each request's latency goes to `timer` when given.
void post_round(const Daemon& daemon, const std::vector<ZooModel>& round,
                std::vector<std::string>& bodies, Tracer* tracer,
                BlockTimer* timer) {
  for (std::size_t i = 0; i < round.size(); ++i) {
    const Clock::time_point t0 = Clock::now();
    {
      Span span(tracer, "serve.post");
      bodies[i] = daemon.solve(round[i].request);
    }
    if (timer != nullptr) timer->add_op(seconds_since(t0));
  }
}

}  // namespace

Outcome run_model_zoo(const RunConfig& config) {
  Outcome out;
  Checks checks;
  const std::vector<ZooModel> round = make_round(config.seed);
  zoo_negative_cases(round, checks);
  check_bridge_formula(round, checks);

  // Cold set-up: daemon exec -> /readyz -> first /solve answered.
  double setup_s = 0.0;
  {
    const Clock::time_point t0 = Clock::now();
    Daemon cold(config, "cold");
    const std::string body =
        cold.ready() ? cold.solve(round[0].request) : std::string();
    setup_s = seconds_since(t0);
    std::uint64_t ignored = 0;
    check_reply(round[0], body, checks, ignored);
    cold.stop();
  }
  std::printf("pinned to cpu %d\n", pin_to_fastest_cpu());

  Daemon daemon(config, "zoo");
  if (!daemon.ready()) {
    std::fprintf(stderr, "relbench: relkit_serve did not become ready\n");
    std::exit(2);
  }
  const std::size_t blocks = block_count(config.seconds, kBlocksPerSecond);
  std::vector<std::string> bodies(round.size());
  BlockTimer timer;
  for (std::size_t b = 0; b < blocks; ++b) {
    const Clock::time_point t0 = Clock::now();
    post_round(daemon, round, bodies, nullptr, &timer);
    timer.add_block(seconds_since(t0));
    for (std::size_t i = 0; i < round.size(); ++i) {
      ++out.attempted;
      if (!check_reply(round[i], bodies[i], checks, out.failed)) {
        out.correct = false;
      }
    }
  }
  const double rss = peak_rss_mb(daemon.pid());
  const int status = daemon.stop();
  const auto clean_exit = [](int code) { return code == 0; };
  checks.expect("zoo.daemon_clean_exit", clean_exit(status),
                "exit status " + std::to_string(status));
  checks.negative("zoo.daemon_clean_exit", !clean_exit(1), "exit status 1");

  print_latency_reference("model_zoo", timer.op_seconds());
  std::printf("reference chunk median %.4f ms\n", timer.reference_ms());
  checks.print();
  out.correct = out.correct && checks.all_ok();
  out.metrics = {{"op_ms", timer.op_ms(round.size()), "ms", blocks},
                 {"setup_s", setup_s, "s", 1},
                 {"peak_rss_mb", rss, "MB", 1}};
  return out;
}

// ---- traced layer pass --------------------------------------------------------

namespace {

double field_after(const std::string& text, std::size_t from,
                   const std::string& key) {
  const std::size_t at = text.find(key, from);
  return at == std::string::npos
             ? -1.0
             : std::strtod(text.c_str() + at + key.size(), nullptr);
}

relkit::markov::Ctmc pool_chain(const Pool& p) {
  // Built the way the model parser builds an `event ... markov` pool.
  relkit::markov::Ctmc chain;
  chain.add_states(static_cast<std::size_t>(p.n) + 1);
  for (int i = 0; i < p.n; ++i) {
    chain.add_transition(static_cast<std::size_t>(i),
                         static_cast<std::size_t>(i) + 1, (p.n - i) * p.lambda);
    chain.add_transition(static_cast<std::size_t>(i) + 1,
                         static_cast<std::size_t>(i), p.mu);
  }
  return chain;
}

double steady_of(const relkit::io::ParsedModel& model) {
  if (model.fault_tree) return model.fault_tree->top_probability_limit();
  if (model.graph) return model.graph->reliability(-1.0);
  return model.rbd->availability();
}

}  // namespace

void layers_model_zoo(const RunConfig& config, Tracer& tracer, Checks& checks,
                      LayerMetrics& out, OwnPass* own) {
  const std::vector<ZooModel> round = make_round(config.seed);
  zoo_negative_cases(round, checks);
  std::vector<std::string> bodies(round.size());
  std::uint64_t failed = 0;

  // Daemon pass: traced and untraced rounds alternate; daemon CPU per
  // request from /proc, queue wait from the access log, write time from
  // the daemon's own sampled spans.
  {
    Daemon daemon(config, "layers");
    if (!daemon.ready()) {
      checks.expect("zoo.layers_daemon_ready", false, "daemon not ready");
      return;
    }
    // The run's own workload alternates untraced and traced rounds for
    // the overhead ratio; for another workload's traced run a few rounds
    // give the layer figures.
    const std::size_t pairs =
        own != nullptr ? block_count(config.seconds, kBlocksPerSecond) / 2 : 10;
    std::vector<double> plain, traced;
    BlockTimer timer;
    const double cpu0 = process_cpu_seconds(daemon.pid());
    for (std::size_t i = 0; i < 2 * pairs; ++i) {
      const bool with_spans = i % 2 == 1;
      const Clock::time_point t0 = Clock::now();
      post_round(daemon, round, bodies, with_spans ? &tracer : nullptr,
                 nullptr);
      (with_spans ? traced : plain).push_back(timer.add_block(seconds_since(t0)));
      for (std::size_t m = 0; m < round.size(); ++m) {
        std::uint64_t failures = 0;
        check_reply(round[m], bodies[m], checks, failures);
        if (own != nullptr) {
          ++own->attempted;
          own->failed += failures;
        }
      }
    }
    const double cpu1 = process_cpu_seconds(daemon.pid());
    const double requests = 2.0 * pairs * static_cast<double>(round.size());
    out.push_back({"serve.daemon_cpu_us", (cpu1 - cpu0) / requests * 1e6, "us",
                   static_cast<std::size_t>(requests)});
    if (own != nullptr) {
      own->overhead = quantile(traced, 0.5) / quantile(plain, 0.5);
    }
    daemon.stop();

    std::ifstream log(daemon.log_path());
    std::vector<double> waits;
    for (std::string line; std::getline(log, line);) {
      if (line.find("\"path\":\"/solve\"") == std::string::npos) continue;
      waits.push_back(field_after(line, 0, "\"queue_wait_s\":") * 1e6);
    }
    out.push_back({"serve.queue_wait_us", mean(waits), "us", waits.size()});
    std::ifstream trace(daemon.trace_path());
    const std::string text((std::istreambuf_iterator<char>(trace)),
                           std::istreambuf_iterator<char>());
    std::vector<double> writes;
    const std::string key = "\"name\":\"serve.write\"";
    for (std::size_t at = text.find(key); at != std::string::npos;
         at = text.find(key, at + key.size())) {
      writes.push_back(field_after(text, at, "\"dur\":"));
    }
    out.push_back({"serve.write_us", mean(writes), "us", writes.size()});
  }

  // In-process passes over the same bodies, each over the whole round so
  // the solution cache sees the daemon's access pattern. The first of the
  // two repetitions warms the cache; cache figures come from the second.
  auto& cache = relkit::markov::SolutionCache::instance();
  cache.clear();
  std::uint64_t hits = 0, lookups = 0;
  for (int rep = 0; rep < 2; ++rep) {
    for (const ZooModel& m : round) {
      Span span(&tracer, "serve.json_parse");
      const auto parsed = relkit::serve::parse_json(m.request);
      checks.expect("zoo.layers_json_roundtrip",
                    parsed.ok && parsed.value.get("model") != nullptr &&
                        parsed.value.get("model")->as_string() == m.text,
                    m.name);
    }
    const std::uint64_t h0 = cache.hits(), l0 = cache.hits() + cache.misses();
    for (const ZooModel& m : round) {
      relkit::serve::SolveSpec spec;
      spec.inline_text = m.text;
      relkit::serve::SolveOutcome outcome;
      {
        Span span(&tracer, "serve.solve_model");
        outcome = relkit::serve::solve_model(spec);
      }
      check_reply(m, "{" + outcome.fields + "}", checks, failed);
    }
    if (rep == 1) {
      hits = cache.hits() - h0;
      lookups = cache.hits() + cache.misses() - l0;
    }
    for (const ZooModel& m : round) {
      if (m.known_fault) continue;
      relkit::io::ParsedModel model;
      {
        Span span(&tracer, "io.parse");
        model = relkit::io::parse_model_string(m.text);
      }
      double steady = 0.0;
      {
        Span span(&tracer, "bdd.eval");
        steady = steady_of(model);
      }
      checks.expect("zoo.model_vs_oracle",
                    close(steady, m.expected, 1e-9, 1e-14), m.name);
    }
    for (const ZooModel& m : round) {
      if (m.known_fault) continue;
      for (const Pool& p : m.pools) {
        const relkit::markov::Ctmc chain = pool_chain(p);
        std::vector<double> pi, kernel;
        {
          Span span(&tracer, "markov.pool_solve");
          pi = chain.steady_state();
        }
        relkit::Matrix q = chain.dense_generator();
        {
          Span span(&tracer, "markov.gth_kernel");
          kernel = relkit::gth_steady_state(std::move(q));
        }
        const std::vector<double> want =
            oracle::pool_distribution(p.n, p.lambda, p.mu);
        double worst = 0.0, worst_kernel = 0.0;
        for (std::size_t i = 0; i < want.size(); ++i) {
          worst = std::max(worst, std::fabs(pi[i] - want[i]) / want[i]);
          worst_kernel =
              std::max(worst_kernel, std::fabs(kernel[i] - want[i]) / want[i]);
        }
        checks.expect("zoo.pool_chain_vs_birth_death",
                      worst <= 1e-9 && worst_kernel <= 1e-9,
                      m.name + " rel err " + std::to_string(worst));
      }
    }
  }
  {
    const std::vector<double> want = oracle::pool_distribution(4, 5e-4, 0.25);
    std::vector<double> bad = want;
    bad[0] *= 1.0 + 1e-6;
    checks.negative("zoo.pool_chain_vs_birth_death",
                    std::fabs(bad[0] - want[0]) / want[0] > 1e-9,
                    "pi[0] x(1+1e-6)");
    checks.negative("zoo.layers_json_roundtrip",
                    round[0].text + " " != round[0].text,
                    "model text with one extra byte");
  }

  // One enabled span with a per-thread collector, as the daemon records a
  // sampled request.
  std::vector<double> span_ns;
  {
    relkit::obs::set_enabled(true);
    auto& obs_tracer = relkit::obs::Tracer::instance();
    auto sink = std::make_shared<relkit::obs::ThreadFilterSink>(
        obs_tracer.thread_index());
    obs_tracer.add_sink(sink);
    for (int b = 0; b < 40; ++b) {
      const Clock::time_point t0 = Clock::now();
      for (int i = 0; i < 1000; ++i) relkit::obs::Span span("relbench.span");
      span_ns.push_back(seconds_since(t0) * 1e6);  // ns per span
      sink->take();
    }
    obs_tracer.remove_sink(sink);
    relkit::obs::set_enabled(false);
  }

  auto per_call_us = [&](const char* name) {
    const std::vector<double> d = tracer.durations(name);
    return Metric{std::string(name) + "_us", mean(d) * 1e6, "us", d.size()};
  };
  const Metric parse = per_call_us("io.parse");
  Metric pool = per_call_us("markov.pool_solve");
  pool.name = "markov.pool_solve_us";
  Metric kernel = per_call_us("markov.gth_kernel");
  kernel.name = "markov.gth_kernel_us";
  out.push_back(parse);
  out.push_back(pool);
  out.push_back(kernel);
  out.push_back({"markov.tax_ratio", pool.value / kernel.value, "ratio",
                 pool.samples});
  out.push_back(per_call_us("bdd.eval"));
  out.push_back({"markov.cache_hit_ratio",
                 lookups ? static_cast<double>(hits) / lookups : 0.0, "ratio",
                 lookups});
  out.push_back({"markov.cache_lookups", static_cast<double>(lookups), "count",
                 1});
  out.push_back(per_call_us("serve.solve_model"));
  out.push_back(per_call_us("serve.json_parse"));
  out.push_back({"obs.span_ns", quantile(span_ns, 0.1), "ns", span_ns.size()});
  std::printf("layers model_zoo: cache %llu hits of %llu lookups per round\n",
              static_cast<unsigned long long>(hits),
              static_cast<unsigned long long>(lookups));
}

}  // namespace relbench
