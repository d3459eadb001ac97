#include "spice/linear.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

namespace snnfi::spice {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

double& Matrix::at(std::size_t r, std::size_t c) {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
}

double Matrix::at(std::size_t r, std::size_t c) const {
    if (r >= rows_ || c >= cols_) throw std::out_of_range("Matrix::at");
    return data_[r * cols_ + c];
}

void Matrix::fill(double value) { data_.assign(data_.size(), value); }

std::span<double> Matrix::row(std::size_t r) {
    if (r >= rows_) throw std::out_of_range("Matrix::row");
    return {data_.data() + r * cols_, cols_};
}

std::span<const double> Matrix::row(std::size_t r) const {
    if (r >= rows_) throw std::out_of_range("Matrix::row");
    return {data_.data() + r * cols_, cols_};
}

std::vector<double> Matrix::multiply(std::span<const double> x) const {
    if (x.size() != cols_) throw std::invalid_argument("Matrix::multiply: size mismatch");
    std::vector<double> y(rows_, 0.0);
    for (std::size_t r = 0; r < rows_; ++r) {
        double acc = 0.0;
        const double* row_ptr = data_.data() + r * cols_;
        for (std::size_t c = 0; c < cols_; ++c) acc += row_ptr[c] * x[c];
        y[r] = acc;
    }
    return y;
}

bool LuFactorization::factorize(const Matrix& a) {
    if (a.rows() != a.cols()) throw std::invalid_argument("LuFactorization: non-square");
    n_ = a.rows();
    lu_ = a;  // reuses the existing storage when the dimension is unchanged
    pivot_.resize(n_);
    for (std::size_t i = 0; i < n_; ++i) pivot_[i] = i;

    double* const lu = lu_.data();
    for (std::size_t k = 0; k < n_; ++k) {
        double* const row_k = lu + k * n_;
        // Partial pivot: largest magnitude in column k at/below the diagonal.
        std::size_t best = k;
        double best_mag = std::abs(row_k[k]);
        for (std::size_t r = k + 1; r < n_; ++r) {
            const double mag = std::abs(lu[r * n_ + k]);
            if (mag > best_mag) {
                best_mag = mag;
                best = r;
            }
        }
        if (best_mag < 1e-300) return false;  // numerically singular
        if (best != k) {
            std::swap(pivot_[k], pivot_[best]);
            std::swap_ranges(row_k, row_k + n_, lu + best * n_);
        }
        const double diag_inv = 1.0 / row_k[k];
        for (std::size_t r = k + 1; r < n_; ++r) {
            double* const row_r = lu + r * n_;
            const double factor = row_r[k] * diag_inv;
            row_r[k] = factor;
            if (factor == 0.0) continue;
            // Each element is updated once from row k: the elements are
            // independent, so the order of this loop cannot change a result.
            for (std::size_t c = k + 1; c < n_; ++c) row_r[c] -= factor * row_k[c];
        }
    }
    return true;
}

void LuFactorization::solve_into(std::span<const double> b, std::span<double> x) const {
    if (b.size() != n_ || x.size() != n_)
        throw std::invalid_argument("LuFactorization::solve_into: size mismatch");
    const std::less<const double*> before;
    if (n_ > 0 && before(b.data(), x.data() + n_) && before(x.data(), b.data() + n_))
        throw std::invalid_argument("LuFactorization::solve_into: b overlaps x");
    const double* const lu = lu_.data();
    double* const out = x.data();
    // Forward substitution with row permutation.
    for (std::size_t r = 0; r < n_; ++r) {
        const double* const row = lu + r * n_;
        double acc = b[pivot_[r]];
        for (std::size_t c = 0; c < r; ++c) acc -= row[c] * out[c];
        out[r] = acc;
    }
    // Backward substitution.
    for (std::size_t r = n_; r-- > 0;) {
        const double* const row = lu + r * n_;
        double acc = out[r];
        for (std::size_t c = r + 1; c < n_; ++c) acc -= row[c] * out[c];
        out[r] = acc / row[r];
    }
}

std::vector<double> LuFactorization::solve(std::span<const double> b) const {
    std::vector<double> x(n_);
    solve_into(b, x);
    return x;
}

std::vector<double> solve_linear_system(const Matrix& a, std::span<const double> b) {
    LuFactorization lu;
    if (!lu.factorize(a)) throw std::runtime_error("solve_linear_system: singular matrix");
    return lu.solve(b);
}

}  // namespace snnfi::spice
