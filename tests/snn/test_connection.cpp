#include "snn/connection.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace snnfi::snn {
namespace {

StdpParams test_params() {
    StdpParams p;
    p.nu_pre = 0.1f;
    p.nu_post = 0.2f;
    p.trace_tau_ms = 20.0f;
    p.wmin = 0.0f;
    p.wmax = 1.0f;
    return p;
}

TEST(DenseConnection, InitialWeightsInRangeAndNormalized) {
    util::Rng rng(3);
    DenseConnection conn(10, 4, test_params(), /*norm_total=*/2.0f, rng);
    for (std::size_t j = 0; j < 4; ++j)
        EXPECT_NEAR(conn.weights().column_sum(j), 2.0f, 1e-4);
    for (const float w : conn.weights().to_vector()) EXPECT_GE(w, 0.0f);
}

TEST(DenseConnection, PropagateSumsActiveRows) {
    util::Rng rng(3);
    DenseConnection conn(3, 2, test_params(), /*norm_total=*/0.0f, rng);
    conn.weights().fill(0.0f);
    conn.weights()(0, 0) = 1.0f;
    conn.weights()(0, 1) = 2.0f;
    conn.weights()(2, 0) = 5.0f;
    std::vector<float> out(2, 0.0f);
    const std::vector<std::uint32_t> active = {0, 2};
    conn.propagate(active, out);
    EXPECT_FLOAT_EQ(out[0], 6.0f);
    EXPECT_FLOAT_EQ(out[1], 2.0f);
    std::vector<float> too_small(1, 0.0f);
    EXPECT_THROW(conn.propagate(active, too_small), std::invalid_argument);
    // Oversized (padded) outputs are allowed: extra lanes only ever
    // accumulate the all-zero padding of the weight rows.
    std::vector<float> padded(3, 7.0f);
    conn.propagate(active, padded);
    EXPECT_FLOAT_EQ(padded[0], 13.0f);
    EXPECT_FLOAT_EQ(padded[1], 9.0f);
    EXPECT_FLOAT_EQ(padded[2], 7.0f);
}

TEST(DenseConnection, PreEventDepressesViaPostTrace) {
    util::Rng rng(3);
    DenseConnection conn(2, 1, test_params(), 0.0f, rng);
    conn.weights().fill(0.5f);
    // First a post spike (sets post trace), then a pre spike: depression.
    conn.learn({}, std::vector<std::uint8_t>{1});
    const float w_before = conn.weights()(0, 0);
    conn.learn(std::vector<std::uint32_t>{0}, std::vector<std::uint8_t>{0});
    EXPECT_LT(conn.weights()(0, 0), w_before);
    // Pre neuron 1 never spiked: untouched.
    EXPECT_FLOAT_EQ(conn.weights()(1, 0), w_before);
}

TEST(DenseConnection, PostEventPotentiatesViaPreTrace) {
    util::Rng rng(3);
    DenseConnection conn(2, 1, test_params(), 0.0f, rng);
    conn.weights().fill(0.5f);
    conn.learn(std::vector<std::uint32_t>{0}, std::vector<std::uint8_t>{0});  // pre trace
    const float w_before = conn.weights()(0, 0);
    conn.learn({}, std::vector<std::uint8_t>{1});  // post spike
    EXPECT_GT(conn.weights()(0, 0), w_before);
    EXPECT_FLOAT_EQ(conn.weights()(1, 0), 0.5f);  // no pre trace on input 1
}

TEST(DenseConnection, WeightsClampedToBounds) {
    util::Rng rng(3);
    StdpParams params = test_params();
    params.nu_pre = 10.0f;
    params.nu_post = 10.0f;
    DenseConnection conn(1, 1, params, 0.0f, rng);
    conn.weights().fill(0.5f);
    conn.learn({}, std::vector<std::uint8_t>{1});          // post trace = 1
    conn.learn(std::vector<std::uint32_t>{0}, std::vector<std::uint8_t>{0});
    EXPECT_FLOAT_EQ(conn.weights()(0, 0), 0.0f);           // clamped at wmin
    conn.learn(std::vector<std::uint32_t>{0}, std::vector<std::uint8_t>{0});
    conn.learn({}, std::vector<std::uint8_t>{1});
    EXPECT_FLOAT_EQ(conn.weights()(0, 0), 1.0f);           // clamped at wmax
}

TEST(DenseConnection, LearningToggle) {
    util::Rng rng(3);
    DenseConnection conn(1, 1, test_params(), 0.0f, rng);
    conn.weights().fill(0.5f);
    conn.set_learning(false);
    conn.learn({}, std::vector<std::uint8_t>{1});
    conn.learn(std::vector<std::uint32_t>{0}, std::vector<std::uint8_t>{0});
    EXPECT_FLOAT_EQ(conn.weights()(0, 0), 0.5f);
    EXPECT_FALSE(conn.learning_enabled());
}

TEST(DenseConnection, TracesDecayAndReset) {
    util::Rng rng(3);
    DenseConnection conn(1, 1, test_params(), 0.0f, rng);
    conn.weights().fill(0.5f);
    conn.learn({}, std::vector<std::uint8_t>{1});  // post trace = 1
    // Let the trace decay for many steps, then a pre event: small change.
    for (int step = 0; step < 200; ++step) conn.learn({}, std::vector<std::uint8_t>{0});
    const float w_before = conn.weights()(0, 0);
    conn.learn(std::vector<std::uint32_t>{0}, std::vector<std::uint8_t>{0});
    EXPECT_NEAR(conn.weights()(0, 0), w_before, 1e-5);

    conn.weights().fill(0.5f);
    conn.reset_traces();  // clear the pre trace left by the first phase
    conn.learn({}, std::vector<std::uint8_t>{1});  // post spike, no pre trace
    EXPECT_FLOAT_EQ(conn.weights()(0, 0), 0.5f);   // nothing to potentiate
    conn.reset_traces();
    conn.learn(std::vector<std::uint32_t>{0}, std::vector<std::uint8_t>{0});
    EXPECT_FLOAT_EQ(conn.weights()(0, 0), 0.5f);  // trace cleared -> no change
}

/// learn validates its inputs before touching any state: a post vector
/// of the wrong length (a longer one would write past the traces and
/// into the padding lanes) or an out-of-range pre index (past the
/// matrix) throws and leaves weights and both traces bit-identical.
TEST(DenseConnection, LearnRejectsBadInputsWithoutStateChange) {
    util::Rng rng(3);
    DenseConnection conn(3, 2, test_params(), 0.0f, rng);
    conn.learn(std::vector<std::uint32_t>{0, 2}, std::vector<std::uint8_t>{1, 0});
    conn.learn(std::vector<std::uint32_t>{1}, std::vector<std::uint8_t>{0, 1});
    const std::vector<float> weights = conn.weights().to_vector();
    const std::vector<float> pre(conn.trace_pre().begin(), conn.trace_pre().end());
    const std::vector<float> post(conn.trace_post().begin(), conn.trace_post().end());
    const auto unchanged = [&] {
        return conn.weights().to_vector() == weights &&
               std::equal(pre.begin(), pre.end(), conn.trace_pre().begin()) &&
               std::equal(post.begin(), post.end(), conn.trace_post().begin());
    };
    EXPECT_THROW(conn.learn(std::vector<std::uint32_t>{0},
                            std::vector<std::uint8_t>{1, 1, 1}),
                 std::invalid_argument);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(conn.learn(std::vector<std::uint32_t>{0},
                            std::vector<std::uint8_t>{1}),
                 std::invalid_argument);
    EXPECT_TRUE(unchanged());
    EXPECT_THROW(conn.learn(std::vector<std::uint32_t>{0, 3},
                            std::vector<std::uint8_t>{1, 1}),
                 std::invalid_argument);
    EXPECT_TRUE(unchanged());
    // The padding lanes of the weight rows stay zero as well.
    for (std::size_t r = 0; r < conn.n_pre(); ++r) {
        const auto padded = conn.weights().padded_row(r);
        for (std::size_t j = conn.n_post(); j < padded.size(); ++j)
            EXPECT_EQ(padded[j], 0.0f);
    }
}

TEST(DenseConnection, NormalizePreservesBudget) {
    util::Rng rng(3);
    DenseConnection conn(4, 2, test_params(), 3.0f, rng);
    conn.weights()(0, 0) = 0.9f;
    conn.normalize();
    EXPECT_NEAR(conn.weights().column_sum(0), 3.0f, 1e-4);
    EXPECT_NEAR(conn.weights().column_sum(1), 3.0f, 1e-4);
}

TEST(OneToOneConnection, DeliversOnlyToPartner) {
    OneToOneConnection conn(3, 22.5f);
    std::vector<float> out(3, 0.0f);
    conn.propagate(std::vector<std::uint8_t>{0, 1, 0}, out);
    EXPECT_FLOAT_EQ(out[0], 0.0f);
    EXPECT_FLOAT_EQ(out[1], 22.5f);
    EXPECT_FLOAT_EQ(out[2], 0.0f);
    EXPECT_THROW(conn.propagate(std::vector<std::uint8_t>{1}, out),
                 std::invalid_argument);
}

TEST(LateralInhibition, AllButSelf) {
    LateralInhibitionConnection conn(3, -10.0f);
    std::vector<float> out(3, 0.0f);
    conn.propagate(std::vector<std::uint8_t>{1, 0, 1}, out);
    EXPECT_FLOAT_EQ(out[0], -10.0f);  // sees the other spike only
    EXPECT_FLOAT_EQ(out[1], -20.0f);  // sees both
    EXPECT_FLOAT_EQ(out[2], -10.0f);
}

TEST(LateralInhibition, NoSpikesNoEffect) {
    LateralInhibitionConnection conn(4, -10.0f);
    std::vector<float> out(4, 1.0f);
    conn.propagate(std::vector<std::uint8_t>{0, 0, 0, 0}, out);
    for (const float x : out) EXPECT_FLOAT_EQ(x, 1.0f);
}

/// Property: the O(n) aggregated lateral inhibition equals the naive
/// all-pairs implementation for random spike patterns.
class LateralEquivalence : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LateralEquivalence, MatchesNaive) {
    util::Rng rng(GetParam());
    const std::size_t n = 37;
    LateralInhibitionConnection conn(n, -7.5f);
    std::vector<std::uint8_t> spiked(n);
    for (auto& s : spiked) s = rng.bernoulli(0.3);

    std::vector<float> fast(n, 0.0f);
    conn.propagate(spiked, fast);

    std::vector<float> naive(n, 0.0f);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i != j && spiked[j]) naive[i] += -7.5f;
        }
    }
    for (std::size_t i = 0; i < n; ++i) EXPECT_FLOAT_EQ(fast[i], naive[i]) << i;
}

INSTANTIATE_TEST_SUITE_P(Patterns, LateralEquivalence,
                         ::testing::Values(1u, 2u, 3u, 17u, 255u));

}  // namespace
}  // namespace snnfi::snn
