#include "common/sparse.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "obs/hw_counters.hpp"
#include "obs/obs.hpp"
#include "parallel/pool.hpp"

namespace relkit {

void SparseMatrix::multiply(const std::vector<double>& x,
                            std::vector<double>& y,
                            parallel::ThreadPool* pool) const {
  detail::require(x.size() == cols_ && &x != &y,
                  "SparseMatrix::multiply: size mismatch or aliased buffers");
  y.resize(rows_);
  const auto rows = [&](std::size_t begin, std::size_t end) {
    for (std::size_t r = begin; r < end; ++r) {
      double acc = 0.0;
      for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        acc += values_[k] * x[cols_idx_[k]];
      }
      y[r] = acc;
    }
  };
  if (pool == nullptr || pool->jobs() <= 1) {
    rows(0, rows_);
    return;
  }

  obs::Span span("markov.matvec");
  obs::HwCounterGroup hw_counters(span);
  span.set("rows", rows_);
  span.set("nnz", nnz());
  span.set("jobs", static_cast<std::uint64_t>(pool->jobs()));
  span.set("kind", "right");
  pool->for_chunks(rows_, parallel::default_chunk(rows_), rows);
}

std::vector<double> SparseMatrix::multiply(const std::vector<double>& x,
                                           parallel::ThreadPool* pool) const {
  std::vector<double> y;
  multiply(x, y, pool);
  return y;
}

void SparseMatrix::multiply_left(const std::vector<double>& x,
                                 std::vector<double>& y,
                                 parallel::ThreadPool* pool) const {
  detail::require(x.size() == rows_ && &x != &y,
                  "SparseMatrix::multiply_left: size mismatch or aliased "
                  "buffers");
  const auto scatter = [&](std::size_t begin, std::size_t end,
                           std::vector<double>& out) {
    for (std::size_t r = begin; r < end; ++r) {
      const double xr = x[r];
      if (xr == 0.0) continue;
      for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
        out[cols_idx_[k]] += xr * values_[k];
      }
    }
  };
  if (pool == nullptr || pool->jobs() <= 1) {
    y.assign(cols_, 0.0);
    scatter(0, rows_, y);
    return;
  }

  obs::Span span("markov.matvec");
  obs::HwCounterGroup hw_counters(span);
  span.set("rows", rows_);
  span.set("nnz", nnz());
  span.set("jobs", static_cast<std::uint64_t>(pool->jobs()));
  span.set("kind", "left");
  y = parallel::reduce_chunks<std::vector<double>>(
      *pool, rows_, parallel::default_chunk(rows_),
      std::vector<double>(cols_, 0.0),
      [&](std::size_t begin, std::size_t end) {
        std::vector<double> part(cols_, 0.0);
        scatter(begin, end, part);
        return part;
      },
      [](std::vector<double>& acc, const std::vector<double>& part) {
        for (std::size_t c = 0; c < acc.size(); ++c) acc[c] += part[c];
      });
}

bool SparseMatrix::all_finite() const {
  for (const double v : values_) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

double SparseMatrix::max_abs() const {
  double worst = 0.0;
  for (const double v : values_) worst = std::max(worst, std::abs(v));
  return worst;
}

double SparseMatrix::at(std::size_t r, std::size_t c) const {
  detail::require(r < rows_ && c < cols_, "SparseMatrix::at: out of range");
  const auto first = cols_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r]);
  const auto last = cols_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[r + 1]);
  const auto it = std::lower_bound(first, last, c);
  if (it == last || *it != c) return 0.0;
  return values_[static_cast<std::size_t>(it - cols_idx_.begin())];
}

SparseMatrix SparseMatrix::transposed() const {
  SparseBuilder b(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      b.add(cols_idx_[k], r, values_[k]);
    }
  }
  return b.build();
}

std::vector<std::vector<double>> SparseMatrix::to_dense() const {
  std::vector<std::vector<double>> d(rows_, std::vector<double>(cols_, 0.0));
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      d[r][cols_idx_[k]] += values_[k];
    }
  }
  return d;
}

void SparseBuilder::add(std::size_t r, std::size_t c, double value) {
  detail::require(r < rows_ && c < cols_, "SparseBuilder::add: out of range");
  if (value == 0.0) return;
  triplets_.push_back({r, c, value});
}

SparseMatrix SparseBuilder::build() {
  std::sort(triplets_.begin(), triplets_.end(),
            [](const Triplet& a, const Triplet& b) {
              return a.r != b.r ? a.r < b.r : a.c < b.c;
            });
  SparseMatrix m;
  m.rows_ = rows_;
  m.cols_ = cols_;
  m.row_ptr_.assign(rows_ + 1, 0);
  std::size_t i = 0;
  while (i < triplets_.size()) {
    const std::size_t r = triplets_[i].r;
    const std::size_t c = triplets_[i].c;
    double v = 0.0;
    while (i < triplets_.size() && triplets_[i].r == r && triplets_[i].c == c) {
      v += triplets_[i].v;
      ++i;
    }
    if (v != 0.0) {
      m.cols_idx_.push_back(c);
      m.values_.push_back(v);
      ++m.row_ptr_[r + 1];
    }
  }
  for (std::size_t r = 0; r < rows_; ++r) m.row_ptr_[r + 1] += m.row_ptr_[r];
  triplets_.clear();
  return m;
}

}  // namespace relkit
