// Bounded residual/iteration time-series for iterative solvers.
//
// The tutorial's cost argument for state-space methods is ultimately about
// iterations to convergence; a SolveReport that only keeps the *final*
// residual hides whether a solve crawled linearly, plateaued, or diverged
// and recovered. ConvergenceTrace records the (iteration, residual) series
// a solver produces while staying strictly bounded in memory: it keeps at
// most kMaxSamples points by stride doubling — record every sample until
// the buffer fills, then drop every other retained point and double the
// stride, so a 10^5-iteration solve still yields <= 256 points spread
// evenly over the whole trajectory (plus the exact final point, which is
// always retained).
//
// Recording is unconditional (no obs::enabled() gate): the cost is a
// counter increment and a rare push_back, negligible next to the matvec or
// sweep each iteration performs, and the trace must be available to
// --diagnostics even when tracing is off.
//
// Header-only so `common` solvers can use it without a link dependency,
// like the rest of the robust diagnostics types.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace relkit::robust {

class ConvergenceTrace {
 public:
  static constexpr std::size_t kMaxSamples = 256;

  struct Sample {
    std::uint64_t iteration = 0;
    double value = 0.0;  ///< residual / delta / tail mass at that iteration
  };

  /// Records one point of the series. `iteration` is the solver's own
  /// iteration number (need not be contiguous — SOR checks every 8 sweeps).
  void record(std::uint64_t iteration, double value) {
    last_ = {iteration, value};
    have_last_ = true;
    // stride_ is a power of two, so the mask is the modulo without a
    // division on the per-step path of uniformization.
    if ((seen_++ & (stride_ - 1)) == 0) {
      samples_.push_back(last_);
      if (samples_.size() >= kMaxSamples) {
        // Decimate: keep every other point, double the stride.
        std::size_t w = 0;
        for (std::size_t r = 0; r < samples_.size(); r += 2) {
          samples_[w++] = samples_[r];
        }
        samples_.resize(w);
        stride_ *= 2;
      }
    }
  }

  bool empty() const { return !have_last_; }
  /// Total points ever recorded (before decimation).
  std::uint64_t recorded() const { return seen_; }
  /// Current keep-1-in-stride decimation factor (1 until the first
  /// compaction).
  std::uint64_t stride() const { return stride_; }

  /// Retained points in iteration order; the final recorded point is always
  /// included even when the stride would have skipped it. Size is bounded
  /// by kMaxSamples regardless of how many points were recorded.
  std::vector<Sample> samples() const {
    std::vector<Sample> out = samples_;
    if (have_last_ &&
        (out.empty() || out.back().iteration != last_.iteration)) {
      out.push_back(last_);
    }
    return out;
  }

  void clear() {
    samples_.clear();
    seen_ = 0;
    stride_ = 1;
    have_last_ = false;
  }

 private:
  std::vector<Sample> samples_;
  Sample last_;
  std::uint64_t seen_ = 0;
  std::uint64_t stride_ = 1;
  bool have_last_ = false;
};

}  // namespace relkit::robust
