// Dense linear algebra for MNA systems.
//
// Circuit matrices in this library are small (tens of unknowns), so a dense
// LU with partial pivoting is both simpler and faster than a sparse solver.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace snnfi::spice {

/// Row-major dense matrix of doubles.
class Matrix {
public:
    Matrix() = default;
    Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

    std::size_t rows() const noexcept { return rows_; }
    std::size_t cols() const noexcept { return cols_; }

    double& at(std::size_t r, std::size_t c);
    double at(std::size_t r, std::size_t c) const;
    double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
    double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

    void fill(double value);
    /// Row-major storage, rows() * cols() elements.
    double* data() noexcept { return data_.data(); }
    const double* data() const noexcept { return data_.data(); }
    std::span<double> row(std::size_t r);
    std::span<const double> row(std::size_t r) const;

    /// y = A x (sizes must agree).
    std::vector<double> multiply(std::span<const double> x) const;

private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    std::vector<double> data_;
};

/// In-place LU factorisation with partial pivoting.
/// Returns false if the matrix is numerically singular.
///
/// One instance can be reused across factorisations: once it has held a
/// matrix of a given dimension, refactorising one of the same dimension
/// allocates nothing.
class LuFactorization {
public:
    /// Factorises a copy of `a` (must be square).
    bool factorize(const Matrix& a);
    /// Solves A x = b into `x` using the stored factors. factorize() must
    /// have succeeded. b.size() and x.size() must equal the matrix
    /// dimension and b must not overlap x; otherwise throws
    /// std::invalid_argument and leaves `x` untouched.
    void solve_into(std::span<const double> b, std::span<double> x) const;
    /// solve_into() into a new vector.
    std::vector<double> solve(std::span<const double> b) const;

    std::size_t dimension() const noexcept { return n_; }

private:
    std::size_t n_ = 0;
    Matrix lu_;
    std::vector<std::size_t> pivot_;
};

/// Convenience: solves A x = b once; throws std::runtime_error on singular A.
std::vector<double> solve_linear_system(const Matrix& a, std::span<const double> b);

}  // namespace snnfi::spice
