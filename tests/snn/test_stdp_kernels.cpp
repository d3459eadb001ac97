// STDP kernel properties: DenseConnection::learn / ::normalize (the
// row-major kernels::stdp_learn / normalize_columns) must be
// BIT-identical to the column-walk reference in stdp_reference.hpp over
// multi-step sequences — across widths on and off the padding grid,
// spike counts, edge weights a fault patch can leave behind, and
// zero/+inf/NaN-sum columns — and must keep the layer's invariants.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "snn/connection.hpp"
#include "stdp_reference.hpp"
#include "util/random.hpp"

namespace snnfi::snn {
namespace {

StdpParams rates(float wmin) {
    StdpParams p;
    p.nu_pre = 0.05f;
    p.nu_post = 0.2f;
    p.wmin = wmin;
    p.wmax = 1.0f;
    return p;
}

Matrix random_weights(util::Rng& rng, std::size_t rows, std::size_t cols,
                      double lo, double hi) {
    Matrix w(rows, cols);
    for (std::size_t r = 0; r < rows; ++r) {
        for (float& x : w.row(r)) x = static_cast<float>(rng.uniform(lo, hi));
    }
    return w;
}

/// Plants the values a fault patch can leave in the matrix: NaN (quiet
/// and signaling), +/-inf, -0.0, and weights outside [wmin, wmax]. Column
/// 2 sums to zero, column 3 to +inf, column 4 to NaN, column 5 is
/// negative.
void plant_edges(Matrix& w) {
    const float inf = std::numeric_limits<float>::infinity();
    const float qnan = std::numeric_limits<float>::quiet_NaN();
    const float snan = std::numeric_limits<float>::signaling_NaN();
    const std::size_t n = w.cols();
    w(0, 0) = -0.0f;
    w(1, 0) = 1.5f;
    w(2, 0) = -0.25f;
    if (n < 13) return;
    for (std::size_t r = 0; r < w.rows(); ++r) {
        w(r, 2) = 0.0f;
        w(r, 5) = -0.1f;
    }
    w(4, 3) = inf;
    w(5, 4) = snan;
    w(6, 4) = qnan;
    w(7, 6) = -inf;
    w(8, 7) = snan;
    w(9, n - 1) = 3.0f;
}

bool same_state(const DenseConnection& conn, const reference::StdpState& ref) {
    const Matrix& a = conn.weights();
    const Matrix& b = ref.weights;
    const auto same = [](std::span<const float> x, std::span<const float> y) {
        return x.size() == y.size() &&
               std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
    };
    return same({a.data(), a.rows() * a.stride()}, {b.data(), b.rows() * b.stride()}) &&
           same(conn.trace_pre(), ref.trace_pre) &&
           same(conn.trace_post(), ref.trace_post);
}

/// k spiking posts: 0, 1, 2 or all of them, at random positions.
std::vector<std::uint8_t> post_pattern(util::Rng& rng, std::size_t n,
                                       std::size_t mode) {
    std::vector<std::uint8_t> spiked(n, 0);
    const std::size_t k = mode == 3 ? n : std::min(mode, n);
    for (std::size_t placed = 0; placed < k;) {
        const std::size_t j = static_cast<std::size_t>(rng.below(n));
        if (!spiked[j]) {
            spiked[j] = 1;
            ++placed;
        }
    }
    return spiked;
}

/// Empty, full, or a random ascending ~30% subset of the pre neurons.
std::vector<std::uint32_t> pre_pattern(util::Rng& rng, std::size_t n_pre,
                                       std::size_t mode) {
    std::vector<std::uint32_t> active;
    for (std::uint32_t i = 0; i < n_pre; ++i) {
        if (mode == 1 || (mode == 2 && rng.uniform() < 0.3)) active.push_back(i);
    }
    return active;
}

TEST(StdpKernels, LearnAndNormalizeBitIdenticalToColumnWalk) {
    const std::size_t n_pre = 37;
    const float norm_total = 5.0f;
    util::Rng rng(2024);
    for (const float wmin : {0.0f, 0.05f}) {
        const StdpParams params = rates(wmin);
        for (const std::size_t n_post : {1u, 13u, 16u, 17u, 100u}) {
            Matrix init = random_weights(rng, n_pre, n_post, 0.0, 1.2);
            plant_edges(init);
            DenseConnection conn(init, params, norm_total);
            reference::StdpState ref(init);
            const float decay = conn.trace_decay();
            // Normalise first so the planted zero/+inf/NaN-sum columns
            // meet normalize before learning perturbs them.
            conn.normalize();
            reference::normalize(ref.weights, norm_total);
            ASSERT_TRUE(same_state(conn, ref)) << "n_post=" << n_post;
            for (std::size_t step = 0; step < 48; ++step) {
                // Posts cycle fastest, so the first four steps potentiate
                // with no pre event yet: every pre trace is 0 and the
                // planted edge weights are still in place.
                const auto active = pre_pattern(rng, n_pre, (step / 4) % 3);
                const auto spiked = post_pattern(rng, n_post, step % 4);
                conn.learn(active, spiked);
                reference::learn(ref, params, decay, active, spiked);
                ASSERT_TRUE(same_state(conn, ref))
                    << "learn: wmin=" << wmin << " n_post=" << n_post
                    << " step=" << step;
                if (step % 12 == 11) {
                    conn.normalize();
                    reference::normalize(ref.weights, norm_total);
                    ASSERT_TRUE(same_state(conn, ref))
                        << "normalize: wmin=" << wmin << " n_post=" << n_post
                        << " step=" << step;
                }
            }
        }
    }
}

/// A column whose sum is not positive keeps its exact bits — a signaling
/// NaN stays signaling (a scale by 1.0f would quiet it) — while a +inf
/// sum scales its column by 0, as the column walk does.
TEST(StdpKernels, NormalizeSkipsNonPositiveSumColumnsBitExactly) {
    util::Rng rng(7);
    Matrix init = random_weights(rng, 20, 13, 0.0, 1.0);
    plant_edges(init);
    DenseConnection conn(init, rates(0.0f), 4.0f);
    conn.normalize();
    const Matrix& w = conn.weights();
    for (const std::size_t col : {2u, 4u, 5u, 7u}) {
        for (std::size_t r = 0; r < w.rows(); ++r) {
            const float a = w(r, col);
            const float b = init(r, col);
            EXPECT_EQ(std::memcmp(&a, &b, sizeof(float)), 0)
                << "col " << col << " row " << r;
        }
    }
    EXPECT_TRUE(std::isnan(w(4, 3)));  // inf * 0
    EXPECT_EQ(w(0, 3), 0.0f);
}

TEST(StdpKernels, NormalizeHitsNormTotalOnPositiveFiniteColumns) {
    util::Rng rng(11);
    for (const std::size_t n_post : {1u, 13u, 100u}) {
        Matrix init = random_weights(rng, 784, n_post, 0.0, 0.3);
        if (n_post > 1) {
            for (std::size_t r = 0; r < init.rows(); ++r) init(r, 0) = 0.0f;
        }
        const float norm_total = 78.4f;
        DenseConnection conn(init, rates(0.0f), norm_total);
        conn.normalize();
        for (std::size_t j = 0; j < n_post; ++j) {
            const float before = init.column_sum(j);
            const float after = conn.weights().column_sum(j);
            if (before > 0.0f && std::isfinite(before))
                EXPECT_NEAR(after, norm_total, 1e-4f * norm_total) << "col " << j;
            else
                EXPECT_EQ(after, before) << "col " << j;
        }
    }
}

/// Without fault patches every weight starts in [wmin, wmax], and the
/// clamps keep it there through any spike sequence. (normalize is left
/// out: rescaling a column may legitimately exceed wmax.)
TEST(StdpKernels, UnfaultedLearningStaysWithinBounds) {
    util::Rng rng(13);
    for (const float wmin : {0.0f, 0.1f}) {
        const StdpParams params = rates(wmin);
        DenseConnection conn(random_weights(rng, 64, 17, wmin, 1.0), params, 0.0f);
        for (std::size_t step = 0; step < 400; ++step) {
            const auto active = pre_pattern(rng, 64, step % 3);
            const auto spiked = post_pattern(rng, 17, step % 4);
            conn.learn(active, spiked);
        }
        for (const float w : conn.weights().to_vector()) {
            EXPECT_GE(w, params.wmin);
            EXPECT_LE(w, params.wmax);
        }
    }
}

}  // namespace
}  // namespace snnfi::snn
