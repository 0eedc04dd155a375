// Dense row-major matrix storage and non-owning views.
//
// The distance matrix, every block of the block-cyclic layout, and every
// staging buffer in the offload engine are Matrix<T> / MatrixView<T>.
// Views carry an explicit leading dimension so kernels can operate on
// sub-blocks of a larger allocation without copying — the same convention
// as BLAS.
#pragma once

#include <cstddef>
#include <utility>

#include "util/aligned_buffer.hpp"
#include "util/check.hpp"

namespace parfw {

/// Non-owning mutable view of an m x n row-major block with leading
/// dimension ld (ld >= n).
template <typename T>
class MatrixView {
 public:
  MatrixView() = default;
  MatrixView(T* data, std::size_t rows, std::size_t cols, std::size_t ld)
      : data_(data), rows_(rows), cols_(cols), ld_(ld) {
    PARFW_DCHECK(ld >= cols);
  }

  T* data() const noexcept { return data_; }
  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t ld() const noexcept { return ld_; }
  bool empty() const noexcept { return rows_ == 0 || cols_ == 0; }

  T& operator()(std::size_t i, std::size_t j) const noexcept {
    PARFW_DCHECK(i < rows_ && j < cols_);
    return data_[i * ld_ + j];
  }

  /// Sub-block [r0, r0+nr) x [c0, c0+nc).
  MatrixView sub(std::size_t r0, std::size_t c0, std::size_t nr,
                 std::size_t nc) const {
    PARFW_DCHECK(r0 + nr <= rows_ && c0 + nc <= cols_);
    return MatrixView(data_ + r0 * ld_ + c0, nr, nc, ld_);
  }

  void fill(const T& v) const {
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j) data_[i * ld_ + j] = v;
  }

  /// Copy `src` into this view (dimensions must match).
  void copy_from(MatrixView<const T> src) const {
    PARFW_CHECK(src.rows() == rows_ && src.cols() == cols_);
    for (std::size_t i = 0; i < rows_; ++i)
      for (std::size_t j = 0; j < cols_; ++j)
        data_[i * ld_ + j] = src(i, j);
  }

  operator MatrixView<const T>() const noexcept {
    return MatrixView<const T>(data_, rows_, cols_, ld_);
  }

 private:
  T* data_ = nullptr;
  std::size_t rows_ = 0, cols_ = 0, ld_ = 0;
};

/// Owning dense row-major matrix (contiguous: ld == cols).
template <typename T>
class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols)
      : buf_(rows * cols), rows_(rows), cols_(cols) {}
  Matrix(std::size_t rows, std::size_t cols, const T& init) : Matrix(rows, cols) {
    view().fill(init);
  }

  Matrix(Matrix&&) noexcept = default;
  Matrix& operator=(Matrix&&) noexcept = default;

  /// Deep copy must be requested explicitly (these can be gigabytes).
  Matrix clone() const {
    Matrix out(rows_, cols_);
    out.view().copy_from(view());
    return out;
  }

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  std::size_t size() const noexcept { return rows_ * cols_; }
  T* data() noexcept { return buf_.data(); }
  const T* data() const noexcept { return buf_.data(); }

  T& operator()(std::size_t i, std::size_t j) noexcept {
    PARFW_DCHECK(i < rows_ && j < cols_);
    return buf_[i * cols_ + j];
  }
  const T& operator()(std::size_t i, std::size_t j) const noexcept {
    PARFW_DCHECK(i < rows_ && j < cols_);
    return buf_[i * cols_ + j];
  }

  MatrixView<T> view() noexcept {
    return MatrixView<T>(buf_.data(), rows_, cols_, cols_);
  }
  MatrixView<const T> view() const noexcept {
    return MatrixView<const T>(buf_.data(), rows_, cols_, cols_);
  }
  MatrixView<T> sub(std::size_t r0, std::size_t c0, std::size_t nr,
                    std::size_t nc) {
    return view().sub(r0, c0, nr, nc);
  }
  MatrixView<const T> sub(std::size_t r0, std::size_t c0, std::size_t nr,
                          std::size_t nc) const {
    return view().sub(r0, c0, nr, nc);
  }

 private:
  AlignedBuffer<T> buf_;
  std::size_t rows_ = 0, cols_ = 0;
};

/// Leading dimension for a scratch buffer the SRGEMM kernels stream as B
/// (one row per k step): the smallest ld >= cols whose byte stride is an
/// odd number of 64-byte lines. Rows stay line-aligned on an aligned base,
/// and an odd line stride is coprime with every power-of-two set count, so
/// successive rows spread over all cache sets instead of piling onto the
/// few a 4 KiB-multiple stride (n = 1024, 4096, ... floats) maps them to.
/// Idempotent. Only engine-owned scratch uses it: Matrix itself stays
/// contiguous (ld == cols), since checkpoints and serving read data()
/// as one dense block.
template <typename T>
constexpr std::size_t padded_ld(std::size_t cols) {
  constexpr std::size_t kLine = 64;
  static_assert(kLine % sizeof(T) == 0, "element size must divide a line");
  constexpr std::size_t per_line = kLine / sizeof(T);
  std::size_t lines = (cols + per_line - 1) / per_line;
  if (lines % 2 == 0) ++lines;
  return lines * per_line;
}

/// Max |a-b| over two equally-shaped views; used by tests and the
/// end-to-end output validation the paper describes in §5.1.
template <typename T>
double max_abs_diff(MatrixView<const T> a, MatrixView<const T> b) {
  PARFW_CHECK(a.rows() == b.rows() && a.cols() == b.cols());
  double worst = 0;
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double d = static_cast<double>(a(i, j)) - static_cast<double>(b(i, j));
      worst = std::max(worst, d < 0 ? -d : d);
    }
  return worst;
}

}  // namespace parfw
