// Solve diagnostics: SolveReport and ConvergenceError.
//
// Every solver that can fail numerically produces a SolveReport recording
// which methods were attempted, which fallback edges were taken, iteration
// counts, the final residual, wall time, and any warnings (renormalization,
// non-finite values repaired, budget stops). The report of the most recent
// solve on the current thread is retrievable via last_report() — this is
// what the CLI's --diagnostics flag prints.
//
// ConvergenceError extends NumericalError with the best partial result the
// solver produced and the full report, so callers can degrade gracefully
// instead of losing all the work (tutorial practice: cross-check partial
// iterative results against a second method before trusting them).
//
// Header-only so the base `common` module can use it without a link
// dependency on the robust module.
//
// Since the obs layer landed, SolveReport is no longer a parallel
// diagnostics mechanism: the robust solvers emit one obs::Span per attempt
// (carrying the same iterations/residual via span attributes), fill the
// matching AttemptDetail here from the same instrumentation point, and
// record_last_report() simply retains the final structured summary for
// last_report() / ConvergenceError consumers.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "obs/postmortem.hpp"
#include "robust/convergence_trace.hpp"

namespace relkit::robust {

/// Diagnostics of one (possibly multi-method) solve.
struct SolveReport {
  /// Per-attempt cost breakdown: one entry per method tried, in order —
  /// the same data the matching obs::Span carries as attributes.
  struct AttemptDetail {
    std::string method;
    std::size_t iterations = 0;
    /// Residual (or last delta) at the end of the attempt; NaN = unknown
    /// (e.g. the method threw before measuring one).
    double residual = std::nan("");
    bool accepted = false;  ///< true for the attempt whose answer was used
  };

  /// Method that produced the returned result ("gth", "sor", "power",
  /// "uniformization", "fixed-point", "monte-carlo"); empty on failure.
  std::string method;
  /// Methods attempted, in order.
  std::vector<std::string> attempts;
  /// Per-attempt iteration counts / final residuals, parallel to
  /// `attempts` when the solver records them (the robust chain does).
  std::vector<AttemptDetail> attempt_details;
  /// Fallback edges taken, e.g. "sor->power".
  std::vector<std::string> fallbacks;
  /// Non-fatal anomalies: renormalization drift, repaired values, budget
  /// stops, injected faults.
  std::vector<std::string> warnings;
  std::size_t iterations = 0;  ///< total across all attempts
  double residual = 0.0;       ///< verified post-solve residual
  /// A priori bound on the answer's error, in the answer's own norm, when
  /// the method has one (0 = none stated). Uniformization reports the
  /// Poisson truncation error plus its stationarity-detection error (L1
  /// for pi(t); in time units for the cumulative L(t)).
  double error_bound = 0.0;
  double wall_seconds = 0.0;
  bool converged = false;
  /// True when the result was served from the markov::SolutionCache rather
  /// than recomputed; `method`/`attempts` then describe the original solve.
  bool cache_hit = false;
  /// Bounded residual/iteration trajectory of the accepted (or last)
  /// iterative attempt — at most ConvergenceTrace::kMaxSamples points via
  /// stride doubling. Empty for direct methods (GTH) and cache hits.
  ConvergenceTrace convergence;

  void note_attempt(std::string m) { attempts.push_back(std::move(m)); }
  void note_fallback(const std::string& from, const std::string& to) {
    fallbacks.push_back(from + "->" + to);
  }
  void warn(std::string message) { warnings.push_back(std::move(message)); }

  /// Records the outcome of one attempt (iterations spent, final residual,
  /// whether its answer was accepted). Call after note_attempt.
  void note_attempt_result(const std::string& m, std::size_t its,
                           double res, bool accepted) {
    attempt_details.push_back({m, its, res, accepted});
  }

  /// Multi-line human-readable rendering (CLI --diagnostics).
  std::string summary() const {
    std::string out;
    out += "method:     " + (method.empty() ? std::string("<none>") : method);
    if (cache_hit) out += " (cached)";
    out += converged ? " (converged)\n" : " (NOT converged)\n";
    out += "iterations: " + std::to_string(iterations) + "\n";
    out += "residual:   " + std::to_string(residual) + "\n";
    if (error_bound > 0.0) {
      char buf[48];
      std::snprintf(buf, sizeof(buf), "error bound: %.3g\n", error_bound);
      out += buf;
    }
    out += "wall time:  " + std::to_string(wall_seconds) + " s\n";
    if (!attempt_details.empty()) {
      out += "attempts:\n";
      for (const auto& a : attempt_details) {
        out += "  " + a.method + ": " + std::to_string(a.iterations) +
               " iterations, residual " +
               (std::isnan(a.residual) ? std::string("n/a")
                                       : std::to_string(a.residual)) +
               (a.accepted ? " (accepted)\n" : " (rejected)\n");
      }
    } else if (!attempts.empty()) {
      out += "attempts:  ";
      for (const auto& a : attempts) out += " " + a;
      out += "\n";
    }
    if (!fallbacks.empty()) {
      out += "fallbacks: ";
      for (const auto& f : fallbacks) out += " " + f;
      out += "\n";
    }
    if (!convergence.empty()) {
      const auto samples = convergence.samples();
      out += "convergence: " + std::to_string(convergence.recorded()) +
             " checks recorded, " + std::to_string(samples.size()) +
             " kept (stride " + std::to_string(convergence.stride()) + ")\n";
      // Compact trajectory: up to 8 evenly spaced points ending on the
      // final residual, so --diagnostics shows the shape of the decay.
      constexpr std::size_t kShow = 8;
      const std::size_t step =
          samples.size() <= kShow ? 1 : (samples.size() - 1) / (kShow - 1);
      out += "  it->residual:";
      auto show = [&](std::size_t i) {
        char buf[48];
        std::snprintf(buf, sizeof(buf), " %llu:%.3g",
                      static_cast<unsigned long long>(samples[i].iteration),
                      samples[i].value);
        out += buf;
      };
      for (std::size_t i = 0; i < samples.size(); i += step) show(i);
      if ((samples.size() - 1) % step != 0) show(samples.size() - 1);
      out += "\n";
    }
    for (const auto& w : warnings) out += "warning: " + w + "\n";
    return out;
  }
};

namespace detail {
struct LastReportSlot {
  SolveReport report;
  bool valid = false;
};
inline LastReportSlot& last_report_slot() {
  thread_local LastReportSlot slot;
  return slot;
}
}  // namespace detail

/// Records `r` as the current thread's most recent solve report, and
/// mirrors a POD summary into the postmortem layer so a crash report can
/// say what the process was last solving.
inline void record_last_report(const SolveReport& r) {
  detail::last_report_slot() = {r, true};
  obs::postmortem::note_active_solve(
      r.method, static_cast<std::uint64_t>(r.iterations), r.residual,
      r.converged, r.wall_seconds,
      static_cast<std::uint32_t>(r.attempts.size()));
}

/// True once any solver on this thread has recorded a report.
inline bool has_last_report() { return detail::last_report_slot().valid; }

/// The most recent report (valid only if has_last_report()).
inline const SolveReport& last_report() {
  return detail::last_report_slot().report;
}

/// An iterative method ran out of budget or accuracy. Carries the best
/// partial result produced (may be empty when no iterate was ever finite)
/// and the full diagnostics report.
class ConvergenceError : public NumericalError {
 public:
  ConvergenceError(const std::string& what, std::vector<double> partial,
                   SolveReport report)
      : NumericalError(what),
        partial_(std::move(partial)),
        report_(std::move(report)) {}

  /// Best iterate at the time of failure (solver-specific interpretation;
  /// unnormalized quantities are normalized where meaningful).
  const std::vector<double>& partial_result() const { return partial_; }
  const SolveReport& report() const { return report_; }

 private:
  std::vector<double> partial_;
  SolveReport report_;
};

}  // namespace relkit::robust
