#include "markov/dtmc.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/error.hpp"
#include "common/linsolve.hpp"
#include "parallel/pool.hpp"

namespace relkit::markov {

std::size_t Dtmc::add_state(std::string name) {
  detail::require(!name.empty(), "Dtmc::add_state: empty name");
  detail::require(!index_.count(name),
                  "Dtmc::add_state: duplicate state '" + name + "'");
  const std::size_t id = names_.size();
  index_.emplace(name, id);
  names_.push_back(std::move(name));
  row_sums_.push_back(0.0);
  return id;
}

void Dtmc::add_transition(std::size_t from, std::size_t to, double prob) {
  detail::require(from < names_.size() && to < names_.size(),
                  "Dtmc::add_transition: state out of range");
  detail::require(prob > 0.0 && prob <= 1.0,
                  "Dtmc::add_transition: probability in (0,1]");
  detail::require(row_sums_[from] + prob <= 1.0 + 1e-9,
                  "Dtmc::add_transition: row sum exceeds 1 for state '" +
                      names_[from] + "'");
  transitions_.push_back({from, to, prob});
  row_sums_[from] += prob;
}

const std::string& Dtmc::state_name(std::size_t s) const {
  detail::require(s < names_.size(), "Dtmc::state_name: out of range");
  return names_[s];
}

std::size_t Dtmc::state_index(const std::string& name) const {
  const auto it = index_.find(name);
  detail::require(it != index_.end(),
                  "Dtmc::state_index: unknown state '" + name + "'");
  return it->second;
}

double Dtmc::row_sum(std::size_t s) const {
  detail::require(s < names_.size(), "Dtmc::row_sum: out of range");
  return row_sums_[s];
}

bool Dtmc::is_absorbing(std::size_t s) const { return row_sum(s) == 0.0; }

void Dtmc::validate_rows() const {
  for (std::size_t s = 0; s < names_.size(); ++s) {
    detail::require_model(
        row_sums_[s] == 0.0 || std::abs(row_sums_[s] - 1.0) < 1e-9,
        "Dtmc: row for state '" + names_[s] +
            "' sums to neither 0 (absorbing) nor 1");
  }
}

Matrix Dtmc::dense_matrix() const {
  validate_rows();
  const std::size_t n = names_.size();
  Matrix p(n, n);
  for (const auto& t : transitions_) p(t.from, t.to) += t.prob;
  for (std::size_t s = 0; s < n; ++s) {
    if (row_sums_[s] == 0.0) p(s, s) = 1.0;
  }
  return p;
}

SparseMatrix Dtmc::sparse_matrix() const {
  validate_rows();
  const std::size_t n = names_.size();
  SparseBuilder b(n, n);
  for (const auto& t : transitions_) b.add(t.from, t.to, t.prob);
  for (std::size_t s = 0; s < n; ++s) {
    if (row_sums_[s] == 0.0) b.add(s, s, 1.0);
  }
  return b.build();
}

std::vector<double> Dtmc::point_mass(std::size_t s) const {
  detail::require(s < names_.size(), "Dtmc::point_mass: out of range");
  std::vector<double> pi0(names_.size(), 0.0);
  pi0[s] = 1.0;
  return pi0;
}

std::vector<double> Dtmc::steady_state(std::size_t dense_threshold,
                                       unsigned jobs) const {
  validate_rows();
  if (names_.size() <= dense_threshold) {
    return gth_steady_state_dtmc(dense_matrix());
  }
  PowerOptions opts;
  opts.jobs = jobs;
  return power_steady_state(sparse_matrix(), opts).pi;
}

std::vector<double> Dtmc::transient(const std::vector<double>& pi0,
                                    std::size_t steps, unsigned jobs) const {
  detail::require(pi0.size() == names_.size(),
                  "Dtmc::transient: distribution size mismatch");
  const SparseMatrix p = sparse_matrix();
  const parallel::PoolLease lease(jobs);
  std::vector<double> v = pi0;
  std::vector<double> next;
  for (std::size_t i = 0; i < steps; ++i) {
    p.multiply_left(v, next, lease.get());
    v.swap(next);
  }
  return v;
}

DtmcAbsorbingAnalysis Dtmc::absorbing_analysis(
    const std::vector<double>& pi0) const {
  validate_rows();
  detail::require(pi0.size() == names_.size(),
                  "Dtmc::absorbing_analysis: distribution size mismatch");
  const std::size_t n = names_.size();

  std::vector<std::size_t> transient_states, tindex(n, SIZE_MAX);
  std::vector<std::size_t> absorbing_states;
  for (std::size_t s = 0; s < n; ++s) {
    if (is_absorbing(s)) {
      absorbing_states.push_back(s);
    } else {
      tindex[s] = transient_states.size();
      transient_states.push_back(s);
    }
  }
  detail::require_model(!absorbing_states.empty(),
                        "Dtmc::absorbing_analysis: no absorbing state");
  for (std::size_t s : absorbing_states) {
    detail::require_model(pi0[s] == 0.0,
                          "Dtmc::absorbing_analysis: initial mass on "
                          "absorbing state '" + names_[s] + "'");
  }

  // v = pi0_T (I - Q_TT)^{-1}: expected visits per transient state.
  const std::size_t m = transient_states.size();
  Matrix a(m, m);  // I - Q_TT
  for (std::size_t i = 0; i < m; ++i) a(i, i) = 1.0;
  for (const auto& t : transitions_) {
    if (tindex[t.from] == SIZE_MAX || tindex[t.to] == SIZE_MAX) continue;
    a(tindex[t.from], tindex[t.to]) -= t.prob;
  }
  std::vector<double> rhs(m, 0.0);
  for (std::size_t i = 0; i < m; ++i) rhs[i] = pi0[transient_states[i]];
  std::vector<double> visits;
  try {
    visits = lu_solve_transposed(a, rhs);
  } catch (const NumericalError&) {
    throw ModelError(
        "Dtmc::absorbing_analysis: some transient state cannot reach "
        "absorption");
  }

  DtmcAbsorbingAnalysis out;
  out.expected_visits.assign(n, 0.0);
  for (std::size_t i = 0; i < m; ++i) {
    out.expected_visits[transient_states[i]] = std::max(0.0, visits[i]);
    out.mean_steps_to_absorption += std::max(0.0, visits[i]);
  }
  out.absorption_probability.assign(n, 0.0);
  for (const auto& t : transitions_) {
    if (tindex[t.from] == SIZE_MAX || tindex[t.to] != SIZE_MAX) continue;
    out.absorption_probability[t.to] +=
        out.expected_visits[t.from] * t.prob;
  }
  return out;
}

}  // namespace relkit::markov
