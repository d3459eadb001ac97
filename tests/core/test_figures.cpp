// Paper-figure shape checks on quick registry scenarios. The whole suite
// shares one quick Session, so circuit characterisations are simulated
// once and reused across figures, as in `run --experiment=all --quick`.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/scenario.hpp"
#include "core/session.hpp"

namespace snnfi::core {
namespace {

TEST(RunOptions, QuickShrinksWorkload) {
    RunOptions options;
    options.quick = true;
    EXPECT_LT(options.samples(), options.train_samples);
    EXPECT_LT(options.neurons(), options.n_neurons);
    options.quick = false;
    EXPECT_EQ(options.samples(), options.train_samples);
}

class Figures : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        RunOptions options;
        options.quick = true;
        session_ = std::make_unique<Session>(options);
    }
    static void TearDownTestSuite() { session_.reset(); }

    static util::ResultTable table(const std::string& id) {
        return session_->run(id).table;
    }

    static std::unique_ptr<Session> session_;
};

std::unique_ptr<Session> Figures::session_;

TEST_F(Figures, Fig5bShapeMatchesPaper) {
    const auto fig = table("fig5b");
    ASSERT_EQ(fig.num_rows(), 3u);  // quick grid: 0.8, 1.0, 1.2
    // Amplitude strictly increasing with VDD.
    const auto amps = fig.numeric_column(1);
    EXPECT_LT(amps[0], amps[1]);
    EXPECT_LT(amps[1], amps[2]);
    // Change percentages bracket the paper's -32/+32.
    EXPECT_NEAR(fig.number_at(0, 2), -30.0, 6.0);
    EXPECT_NEAR(fig.number_at(2, 2), +30.0, 6.0);
}

TEST_F(Figures, Fig6aShapeMatchesPaper) {
    const auto fig = table("fig6a");
    ASSERT_EQ(fig.num_rows(), 6u);  // 2 neurons x 3 VDDs
    // First row: AH at 0.8 V, about -18%.
    EXPECT_NEAR(fig.number_at(0, 3), -18.0, 4.0);
    // Last row: I&F at 1.2 V, positive change.
    EXPECT_GT(fig.number_at(5, 3), 10.0);
}

TEST_F(Figures, Fig9bRobustDriverFlat) {
    const auto fig = table("fig9b");
    for (std::size_t r = 0; r < fig.num_rows(); ++r)
        EXPECT_LT(std::abs(fig.number_at(r, 2)), 1.0);
}

TEST_F(Figures, Fig9cDroopShrinksWithRatio) {
    const auto fig = table("fig9c");
    ASSERT_EQ(fig.num_rows(), 2u);  // ratios 1 and 32
    EXPECT_GT(fig.number_at(1, 2), fig.number_at(0, 2));  // less droop
}

TEST_F(Figures, Fig10aComparatorFlat) {
    const auto fig = table("fig10a");
    for (std::size_t r = 0; r < fig.num_rows(); ++r)
        EXPECT_LT(std::abs(fig.number_at(r, 2)), 1.5);
}

TEST_F(Figures, Fig3WaveformSummaryHasSpikes) {
    EXPECT_GE(table("fig3").number_at(0, 1), 2.0);  // spike count row
}

TEST_F(Figures, OverheadTableCoversAllDefenses) {
    const auto fig = table("overheads");
    EXPECT_EQ(fig.num_rows(), 5u);
    EXPECT_EQ(fig.columns().size(), 5u);
}

}  // namespace
}  // namespace snnfi::core
