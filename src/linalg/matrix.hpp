// Dense row-major matrix/vector containers used by the applications.
//
// Deliberately minimal: the paper treats BLAS as a black box (cuBLAS/MKL);
// the reproduction needs correct kernels with known flop counts, not tuned
// ones. All functional app payloads (GEMV, C-means distances, GMM E/M
// steps) run on these types.
#pragma once

#include <cstddef>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace prs::linalg {

/// std::allocator whose value-initializing construct() default-initializes
/// instead: resize() leaves trivial elements unwritten, so the first write
/// of an element is also the first touch of its page.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) {
    ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
  }
};

template <typename T>
class Matrix {
 public:
  using Storage = std::vector<T, DefaultInitAllocator<T>>;

  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, T fill = T{})
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  /// A rows x cols matrix whose elements are not written: the caller must
  /// write every one before reading it. Parallel writers then first-touch
  /// their own pages instead of the constructing thread touching all.
  static Matrix uninitialized(std::size_t rows, std::size_t cols) {
    Matrix m;
    m.rows_ = rows;
    m.cols_ = cols;
    m.data_.resize(rows * cols);
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  T& operator()(std::size_t r, std::size_t c) {
    PRS_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  const T& operator()(std::size_t r, std::size_t c) const {
    PRS_REQUIRE(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Pointer to the start of row r (contiguous, cols() elements).
  T* row(std::size_t r) {
    PRS_REQUIRE(r < rows_, "row index out of range");
    return data_.data() + r * cols_;
  }
  const T* row(std::size_t r) const {
    PRS_REQUIRE(r < rows_, "row index out of range");
    return data_.data() + r * cols_;
  }

  T* data() { return data_.data(); }
  const T* data() const { return data_.data(); }

  Storage& storage() { return data_; }
  const Storage& storage() const { return data_; }

  bool operator==(const Matrix&) const = default;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  Storage data_;
};

using MatrixF = Matrix<float>;
using MatrixD = Matrix<double>;

}  // namespace prs::linalg
