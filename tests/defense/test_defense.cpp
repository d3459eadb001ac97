#include <gtest/gtest.h>

#include "attack/scenarios.hpp"
#include "data/synthetic_digits.hpp"
#include "defense/defenses.hpp"
#include "defense/detector.hpp"
#include "defense/overhead.hpp"
#include "util/thread_pool.hpp"

namespace snnfi::defense {
namespace {

const circuits::Characterizer& shared_characterizer() {
    static const circuits::Characterizer instance{circuits::CharacterizationConfig{}};
    return instance;
}

attack::AttackSuite tiny_suite() {
    attack::AttackRunConfig config;
    config.network.n_neurons = 50;
    config.train_samples = 300;
    config.eval_window = 100;
    return attack::AttackSuite(data::make_synthetic_dataset(300, 42), config);
}

// ---------------------------------------------------------------- detector
TEST(Detector, DecisionRule) {
    DummyNeuronDetector detector;
    EXPECT_FALSE(detector.flags(105.0, 100.0));  // 5% deviation
    EXPECT_TRUE(detector.flags(111.0, 100.0));   // 11%
    EXPECT_TRUE(detector.flags(89.0, 100.0));
    EXPECT_TRUE(detector.flags(50.0, 0.0));      // degenerate golden count
}

TEST(Detector, CustomThreshold) {
    DetectorConfig config;
    config.threshold_pct = 25.0;
    DummyNeuronDetector detector(config);
    EXPECT_FALSE(detector.flags(120.0, 100.0));
    EXPECT_TRUE(detector.flags(75.0, 100.0));
}

TEST(Detector, SweepFlagsAttackVoltages) {
    // Fig. 10c: +/-20% VDD must trip the 10% rule; nominal must not.
    DetectorConfig config;
    config.cell.sim_window = 60e-6;
    DummyNeuronDetector detector(config);
    const auto readings = detector.sweep({0.8, 1.0, 1.2});
    ASSERT_EQ(readings.size(), 3u);
    EXPECT_TRUE(readings[0].flagged);
    EXPECT_FALSE(readings[1].flagged);
    EXPECT_TRUE(readings[2].flagged);
}

TEST(Detector, DetectionEdges) {
    DetectorConfig config;
    config.cell.sim_window = 60e-6;
    DummyNeuronDetector detector(config);
    const auto [low, high] = detector.detection_edges({0.8, 0.9, 1.0, 1.1, 1.2});
    EXPECT_GT(low, 0.0);   // some low-side voltage trips
    EXPECT_GT(high, 1.0);  // some high-side voltage trips
}

TEST(Detector, PooledSweepMatchesSerial) {
    DetectorConfig config;
    config.cell.sim_window = 60e-6;
    DummyNeuronDetector detector(config);
    const std::vector<double> vdds = {1.2, 1.0, 0.8, 1.0};
    util::ThreadPool pool(4);
    const auto serial = detector.sweep(vdds);
    const auto pooled = detector.sweep(vdds, &pool);
    ASSERT_EQ(serial.size(), vdds.size());
    ASSERT_EQ(pooled.size(), vdds.size());
    for (std::size_t i = 0; i < vdds.size(); ++i) {
        EXPECT_EQ(serial[i].vdd, pooled[i].vdd);
        EXPECT_EQ(serial[i].spike_count, pooled[i].spike_count);
        EXPECT_EQ(serial[i].deviation_pct, pooled[i].deviation_pct);
        EXPECT_EQ(serial[i].flagged, pooled[i].flagged);
    }
}

// ---------------------------------------------------------------- overhead
void expect_same_report(const OverheadReport& expected, const OverheadReport& actual) {
    EXPECT_EQ(expected.defense, actual.defense);
    EXPECT_EQ(expected.baseline_power_w, actual.baseline_power_w) << expected.defense;
    EXPECT_EQ(expected.secured_power_w, actual.secured_power_w) << expected.defense;
    EXPECT_EQ(expected.power_overhead_pct, actual.power_overhead_pct) << expected.defense;
    EXPECT_EQ(expected.baseline_area_um2, actual.baseline_area_um2) << expected.defense;
    EXPECT_EQ(expected.secured_area_um2, actual.secured_area_um2) << expected.defense;
    EXPECT_EQ(expected.area_overhead_pct, actual.area_overhead_pct) << expected.defense;
    EXPECT_EQ(expected.paper_power_overhead_pct, actual.paper_power_overhead_pct)
        << expected.defense;
    EXPECT_EQ(expected.paper_area_note, actual.paper_area_note) << expected.defense;
}

TEST(Overhead, AllEqualsSingleReports) {
    // all() batches the distinct power simulations; every report must equal
    // its single-report method, field for field, with or without a pool.
    OverheadAnalyzer analyzer(shared_characterizer());
    const std::vector<OverheadReport> singles = {
        analyzer.robust_driver(), analyzer.transistor_sizing(32.0),
        analyzer.comparator_ah(), analyzer.bandgap(150), analyzer.dummy_neuron(80)};
    util::ThreadPool pool(4);
    for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr), &pool}) {
        const auto reports = analyzer.all(150, 80, p);
        ASSERT_EQ(reports.size(), singles.size());
        for (std::size_t i = 0; i < singles.size(); ++i)
            expect_same_report(singles[i], reports[i]);
    }
}

TEST(Overhead, ComparatorCostsPower) {
    OverheadAnalyzer analyzer(shared_characterizer());
    const auto report = analyzer.comparator_ah();
    EXPECT_GT(report.power_overhead_pct, 0.0);  // OTA bias current (paper: 11%)
    EXPECT_LT(report.power_overhead_pct, 100.0);
    EXPECT_GT(report.secured_power_w, report.baseline_power_w);
}

TEST(Overhead, RobustDriverReport) {
    OverheadAnalyzer analyzer(shared_characterizer());
    const auto report = analyzer.robust_driver();
    EXPECT_GT(report.power_overhead_pct, 0.0);
    EXPECT_GT(report.baseline_area_um2, 0.0);
    EXPECT_DOUBLE_EQ(report.paper_power_overhead_pct, 3.0);
}

TEST(Overhead, BandgapAmortizesAcrossNeurons) {
    OverheadAnalyzer analyzer(shared_characterizer());
    const auto small = analyzer.bandgap(200);
    const auto large = analyzer.bandgap(2000);
    EXPECT_GT(small.area_overhead_pct, large.area_overhead_pct);
    EXPECT_GT(small.area_overhead_pct, 0.0);
}

TEST(Overhead, DummyNeuronAboutOnePercent) {
    OverheadAnalyzer analyzer(shared_characterizer());
    const auto report = analyzer.dummy_neuron(100);
    EXPECT_GT(report.area_overhead_pct, 0.3);
    EXPECT_LT(report.area_overhead_pct, 3.0);
    EXPECT_GT(report.power_overhead_pct, 0.3);
    EXPECT_LT(report.power_overhead_pct, 5.0);
}

TEST(Overhead, AllReportsPresent) {
    OverheadAnalyzer analyzer(shared_characterizer());
    const auto reports = analyzer.all();
    ASSERT_EQ(reports.size(), 5u);
    for (const auto& report : reports) {
        EXPECT_FALSE(report.defense.empty());
        EXPECT_GT(report.baseline_power_w, 0.0);
    }
}

// ---------------------------------------------------------------- defenses
TEST(DefenseSuite, BandgapRecoversAccuracy) {
    auto suite = tiny_suite();
    DefenseSuite defenses(suite, shared_characterizer());

    // Undefended attack at 0.8 V collapses...
    const auto calibration = attack::VddCalibration::paper_reference();
    const auto undefended = suite.attack5_vdd(calibration, {0.8});
    EXPECT_LT(undefended[0].degradation_pct, -40.0);

    // ...the bandgap-clamped threshold keeps accuracy near the baseline.
    const auto defended = defenses.bandgap_vthr(circuits::BandgapModel{}, {0.8});
    ASSERT_EQ(defended.size(), 1u);
    EXPECT_GT(defended[0].accuracy, 0.8 * suite.baseline_accuracy());
    EXPECT_LT(std::abs(defended[0].residual_threshold_delta_pct), 0.6);
}

TEST(DefenseSuite, ComparatorRecoversAccuracy) {
    auto suite = tiny_suite();
    DefenseSuite defenses(suite, shared_characterizer());
    const auto defended = defenses.comparator_first_stage({0.8});
    ASSERT_EQ(defended.size(), 1u);
    EXPECT_LT(std::abs(defended[0].residual_threshold_delta_pct), 1.5);
    // Online accuracy at this scale is trajectory-noisy; the residual
    // corruption must stay far from the collapse regime (compare against
    // the undefended -20% attack which lands near chance).
    EXPECT_GT(defended[0].accuracy, 0.55 * suite.baseline_accuracy());
    attack::FaultSpec undefended;
    undefended.layer = attack::TargetLayer::kBoth;
    undefended.threshold_delta = -0.18;
    EXPECT_GT(defended[0].accuracy, 2.0 * suite.run(undefended).accuracy);
}

TEST(DefenseSuite, SizingReducesResidualCorruption) {
    auto suite = tiny_suite();
    DefenseSuite defenses(suite, shared_characterizer());
    const auto defended = defenses.transistor_sizing(32.0, {0.8});
    ASSERT_EQ(defended.size(), 1u);
    // Residual droop must beat the unsecured -18%.
    EXPECT_GT(defended[0].residual_threshold_delta_pct, -16.0);
    EXPECT_LT(defended[0].residual_threshold_delta_pct, -5.0);
}

TEST(DefenseSuite, RobustDriverKeepsGainNearUnity) {
    auto suite = tiny_suite();
    DefenseSuite defenses(suite, shared_characterizer());
    const auto defended = defenses.robust_driver({0.8, 1.2});
    ASSERT_EQ(defended.size(), 2u);
    for (const auto& outcome : defended) {
        EXPECT_NEAR(outcome.residual_gain, 1.0, 0.02);
        EXPECT_GT(outcome.accuracy, 0.75 * suite.baseline_accuracy());
    }
}

}  // namespace
}  // namespace snnfi::defense
