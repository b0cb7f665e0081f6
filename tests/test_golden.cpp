// Golden regression tests: pinned numbers for the case-study models of
// EXPERIMENTS.md and the docs. These are change detectors — if a refactor
// moves any of these values, either the refactor is wrong or the golden
// value must be bumped consciously in the same commit, never silently.
//
// Two kinds of pin:
//   * case-study values (webservice/cluster/raid/bridge/georedundant) are
//     pinned to 1e-12 relative, loose enough to survive benign
//     last-bit noise in the BDD/GTH paths, tight enough to catch any real
//     numerical change;
//   * the jobs = 1 stationary solve is pinned EXACTLY (EXPECT_EQ on every
//     component) — the determinism contract says jobs = 1 is the
//     historical sequential path bit for bit, so any drift here is a
//     broken contract, not noise.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "io/model_parser.hpp"
#include "markov/ctmc.hpp"
#include "markov/solution_cache.hpp"

using namespace relkit;

namespace {

std::string model_path(const char* name) {
  return std::string(RELKIT_EXAMPLES_DIR) + "/" + name;
}

void expect_rel(double expected, double actual, const char* what) {
  const double scale = std::abs(expected) > 0.0 ? std::abs(expected) : 1.0;
  EXPECT_NEAR(expected, actual, 1e-12 * scale) << what;
}

}  // namespace

TEST(Golden, WebserviceFaultTree) {
  const auto m = io::parse_model_file(model_path("webservice.ftree"));
  ASSERT_NE(m.fault_tree, nullptr);
  expect_rel(0.0020118490657928495, m.fault_tree->top_probability_limit(),
             "steady-state top probability");
  expect_rel(0.0020118490657664266, m.fault_tree->top_probability(100.0),
             "top probability at t=100");
}

TEST(Golden, ClusterHierarchicalAvailability) {
  // Three `event ... markov` pools solved through the robust chain feed a
  // series RBD — the tutorial's two-level composition.
  const auto m = io::parse_model_file(model_path("cluster.rbd"));
  ASSERT_NE(m.rbd, nullptr);
  expect_rel(0.9998765427117744, m.rbd->availability(),
             "cluster steady-state availability");
}

TEST(Golden, GeoredundantRepeatedSubchain) {
  // Two identical markov pools: the second solve is a SolutionCache hit
  // and must not change the answer.
  auto& cache = markov::SolutionCache::instance();
  cache.clear();
  const std::uint64_t hits_before = cache.hits();
  const auto m = io::parse_model_file(model_path("georedundant.rbd"));
  ASSERT_NE(m.rbd, nullptr);
  expect_rel(0.99999998996380135, m.rbd->availability(),
             "georedundant steady-state availability");
  EXPECT_GT(cache.hits(), hits_before);
}

TEST(Golden, RaidRbd) {
  const auto m = io::parse_model_file(model_path("raid.rbd"));
  ASSERT_NE(m.rbd, nullptr);
  expect_rel(0.0, m.rbd->availability(), "raid availability");
  expect_rel(0.99949900149110316, m.rbd->reliability(100.0),
             "raid reliability at t=100");
}

TEST(Golden, BridgeRelgraph) {
  const auto m = io::parse_model_file(model_path("bridge.relgraph"));
  ASSERT_NE(m.graph, nullptr);
  expect_rel(0.97848000000000002, m.graph->reliability(-1.0),
             "bridge steady-state s-t reliability");
  expect_rel(0.97848000000000002, m.graph->reliability_factoring(-1.0),
             "bridge factoring cross-check");
}

// The bit-identical pin for the sequential state-space path: a fixed
// 12-state birth-death chain solved by forced SOR at jobs = 1 must
// reproduce the pre-parallelism values exactly, component by component. If
// this test fails, the SOR kernel's jobs = 1 path is no longer the
// historical sequential loop.
TEST(Golden, Jobs1SteadyStateBits) {
  markov::Ctmc c;
  c.add_states(12);
  for (std::size_t i = 0; i + 1 < 12; ++i) {
    c.add_transition(i, i + 1, 0.3 + 0.05 * static_cast<double>(i));
    c.add_transition(i + 1, i, 1.1 - 0.04 * static_cast<double>(i));
  }
  markov::SteadyStateOptions opts;
  opts.dense_threshold = 0;
  opts.solver = robust::SolverChoice::kSor;
  opts.sor.tol = 1e-13;
  opts.jobs = 1;
  opts.use_cache = false;
  const std::vector<double> pi = c.steady_state(opts);
  const std::vector<double> pinned = {
      0.69295476815643187,    0.18898766404264336,
      0.062401587183940746,   0.024471210660419854,
      0.011236780405349967,   0.0059770108539695145,
      0.0036526177441573711,  0.0025483379611097516,
      0.002020023993636948,   0.0018128420456503041,
      0.0018373399112148654,  0.0020998170414753851,
  };
  ASSERT_EQ(pi.size(), pinned.size());
  for (std::size_t i = 0; i < pi.size(); ++i) {
    EXPECT_EQ(pi[i], pinned[i]) << "state " << i;
  }
}
