// LIF behaviour of the production step (NetworkRuntime): one driven
// excitatory neuron on a hand-built NetworkModel, fed a hand-built
// SpikeRaster, its state read back through the runtime's inspectors.
//
// Every case runs on a 1-neuron layer and on an 8-neuron layer whose
// other neurons have zero input weights. A fault on neuron 0 then takes
// the dense scalar loop (1 of 1 neurons overridden) and the hybrid redo
// (1 of 8), and a clean runtime takes the vector kernel, so each
// behaviour is checked on every dispatch path of advance_step. The idle
// neurons never fire and lateral inhibition skips the neuron's own IL
// partner, so neuron 0 sees the same drive in both layers.
#include "snn/runtime.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <initializer_list>
#include <memory>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

namespace snnfi::snn {
namespace {

constexpr std::size_t kSteps = 33;
constexpr OverlayLayer kExc = OverlayLayer::kExcitatory;
const std::size_t kNeuron0[] = {0};

DiehlCookConfig lif_config(std::size_t n_neurons, std::size_t steps = kSteps) {
    DiehlCookConfig cfg;
    cfg.n_input = 1;
    cfg.n_neurons = n_neurons;
    cfg.steps_per_sample = steps;
    return cfg;
}

/// One input pixel wired to excitatory neuron 0 only, with `theta0` as
/// neuron 0's adaptive threshold.
std::shared_ptr<const NetworkModel> lif_model(const DiehlCookConfig& cfg,
                                              float weight, float theta0 = 0.0f) {
    Matrix weights(1, cfg.n_neurons);
    weights(0, 0) = weight;
    std::vector<float> theta(cfg.n_neurons, 0.0f);
    theta[0] = theta0;
    return std::make_shared<const NetworkModel>(cfg, std::move(weights),
                                                std::move(theta));
}

/// The pixel spikes on exactly `spike_steps` (ascending).
SpikeRaster raster(std::size_t steps, std::initializer_list<std::size_t> spike_steps) {
    SpikeRaster out;
    out.offsets.assign(1, 0);
    auto next = spike_steps.begin();
    for (std::size_t t = 0; t < steps; ++t) {
        if (next != spike_steps.end() && *next == t) {
            out.indices.push_back(0);
            ++next;
        }
        out.offsets.push_back(static_cast<std::uint32_t>(out.indices.size()));
    }
    return out;
}

/// The pixel spikes on every step.
SpikeRaster constant_raster(std::size_t steps) {
    SpikeRaster out;
    out.offsets.assign(1, 0);
    for (std::size_t t = 0; t < steps; ++t) {
        out.indices.push_back(0);
        out.offsets.push_back(static_cast<std::uint32_t>(out.indices.size()));
    }
    return out;
}

/// Spikes of neuron 0 over one sample; checks the idle neurons stayed
/// silent.
std::uint32_t spikes(NetworkRuntime& runtime, const SpikeRaster& input) {
    SampleActivity activity;
    runtime.run_sample_into(input, activity);
    EXPECT_EQ(activity.total_exc_spikes, activity.exc_counts[0]);
    return activity.exc_counts[0];
}

/// Parameter: the excitatory layer size (1 or 8).
class LifRuntime : public ::testing::TestWithParam<std::size_t> {
protected:
    std::size_t layer_size() const { return GetParam(); }
    DiehlCookConfig config(std::size_t steps = kSteps) const {
        return lif_config(layer_size(), steps);
    }
    std::shared_ptr<const NetworkModel> model(float weight, float theta0 = 0.0f) const {
        return lif_model(config(), weight, theta0);
    }
};

TEST_P(LifRuntime, IntegratesLeaksAndFires) {
    NetworkRuntime runtime(model(6.6f));
    // One 6.6 mV input stays under the 13 mV rest-to-threshold distance;
    // two on consecutive steps cross it; two 40 steps apart leak away.
    EXPECT_EQ(spikes(runtime, raster(kSteps, {0})), 0u);
    EXPECT_EQ(spikes(runtime, raster(kSteps, {0, 1})), 1u);
    NetworkRuntime long_gap(lif_model(config(60), 6.6f));
    EXPECT_EQ(spikes(long_gap, raster(60, {0, 40})), 0u);
    EXPECT_TRUE(runtime.fast_path_active());
}

TEST_P(LifRuntime, DeadNeuronNeverFires) {
    FaultOverlay dead;
    dead.force_state(kExc, kNeuron0, NeuronFault::kDead);
    NetworkRuntime nominal(model(20.0f));
    NetworkRuntime faulted(model(20.0f), dead);
    EXPECT_EQ(faulted.forced_state(kExc, 0), NeuronFault::kDead);
    EXPECT_GT(spikes(nominal, constant_raster(kSteps)), 0u);
    EXPECT_EQ(spikes(faulted, constant_raster(kSteps)), 0u);
    EXPECT_FALSE(faulted.fast_path_active());
}

TEST_P(LifRuntime, SaturatedNeuronFiresEveryStepThroughRefractoriness) {
    FaultOverlay saturated;
    saturated.force_state(kExc, kNeuron0, NeuronFault::kSaturated);
    // No input at all, yet the neuron fires on every step: neither the
    // threshold nor the 5-step refractory period holds it back.
    NetworkRuntime runtime(model(0.0f), saturated);
    EXPECT_EQ(runtime.forced_state(kExc, 0), NeuronFault::kSaturated);
    EXPECT_EQ(spikes(runtime, raster(kSteps, {})), kSteps);
    // Each forced spike still adds theta_plus.
    EXPECT_GT(runtime.exc_theta()[0], 0.0f);
}

TEST_P(LifRuntime, RefractoryOverrideStretchesRecovery) {
    // 20 mV per step fires the neuron on the first step out of refractory,
    // so it spikes once per (refractory + 1) steps: ceil(33 / 6) nominally
    // and ceil(33 / 11) with a 10-step override.
    FaultOverlay stretched;
    stretched.override_refractory(kExc, kNeuron0, 10);
    NetworkRuntime nominal(model(20.0f));
    NetworkRuntime faulted(model(20.0f), stretched);
    EXPECT_EQ(nominal.refractory_steps(kExc, 0), 5);
    EXPECT_EQ(faulted.refractory_steps(kExc, 0), 10);
    EXPECT_EQ(spikes(nominal, constant_raster(kSteps)), 6u);
    EXPECT_EQ(spikes(faulted, constant_raster(kSteps)), 3u);
}

TEST_P(LifRuntime, InputGainScalesTheNeuronsDrive) {
    FaultOverlay doubled;
    doubled.scale_input_gain(kExc, kNeuron0, 2.0f);
    NetworkRuntime nominal(model(7.0f));
    NetworkRuntime faulted(model(7.0f), doubled);
    EXPECT_EQ(spikes(nominal, raster(kSteps, {0})), 0u);  // 7 mV < 13 mV
    EXPECT_EQ(spikes(faulted, raster(kSteps, {0})), 1u);  // 14 mV

    faulted.set_overlay({});
    EXPECT_FLOAT_EQ(faulted.input_gain(kExc, 0), 1.0f);
    EXPECT_EQ(spikes(faulted, raster(kSteps, {0})), 0u);
}

TEST_P(LifRuntime, ThresholdScaleMovesTheDistanceToRest) {
    FaultOverlay lowered;
    lowered.scale_threshold(kExc, kNeuron0, 0.8f);  // 13 mV -> 10.4 mV
    NetworkRuntime runtime(model(11.0f), lowered);
    EXPECT_NEAR(runtime.effective_threshold(kExc, 0), -65.0 + 13.0 * 0.8, 1e-4);
    EXPECT_EQ(spikes(runtime, raster(kSteps, {0})), 1u);
    if (layer_size() > 1) {
        EXPECT_NEAR(runtime.effective_threshold(kExc, 1), -52.0, 1e-4);
    }
    runtime.set_overlay({});
    EXPECT_FLOAT_EQ(runtime.threshold_scale(kExc, 0), 1.0f);
    EXPECT_EQ(spikes(runtime, raster(kSteps, {0})), 0u);
}

TEST_P(LifRuntime, ThresholdFaultDoesNotScaleTheta) {
    // theta = 2 mV, distance scaled by 0.5: threshold = -65 + 6.5 + 2.
    // Had theta been scaled too, it would sit 1 mV lower and an 8 mV input
    // (v = -57 mV) would fire.
    FaultOverlay halved;
    halved.scale_threshold(kExc, kNeuron0, 0.5f);
    NetworkRuntime below(model(8.0f, 2.0f), halved);
    NetworkRuntime above(model(9.0f, 2.0f), halved);
    EXPECT_NEAR(below.effective_threshold(kExc, 0), -65.0 + 13.0 * 0.5 + 2.0, 1e-4);
    EXPECT_EQ(spikes(below, raster(kSteps, {0})), 0u);
    EXPECT_EQ(spikes(above, raster(kSteps, {0})), 1u);
}

TEST_P(LifRuntime, ThetaGrowsPerSpikeAndRaisesThreshold) {
    NetworkRuntime runtime(model(20.0f));
    const float before = runtime.effective_threshold(kExc, 0);
    EXPECT_EQ(spikes(runtime, raster(kSteps, {0})), 1u);
    const float theta_plus = runtime.config().excitatory.theta_plus;
    // The default theta decay (1e7 ms) is negligible over one sample.
    EXPECT_NEAR(runtime.exc_theta()[0], theta_plus, 1e-6);
    EXPECT_NEAR(runtime.effective_threshold(kExc, 0), before + theta_plus, 1e-5);
    if (layer_size() > 1) {
        EXPECT_EQ(runtime.exc_theta()[1], 0.0f);
    }
}

TEST_P(LifRuntime, ThetaDecays) {
    DiehlCookConfig cfg = config(51);
    cfg.excitatory.theta_decay_ms = 10.0f;  // fast decay for the test
    NetworkRuntime runtime(lif_model(cfg, 20.0f));
    EXPECT_EQ(spikes(runtime, raster(51, {0})), 1u);
    // Spike at step 0, then 50 steps of decay by exp(-1/10).
    const double expected = cfg.excitatory.theta_plus * std::exp(-50.0 / 10.0);
    EXPECT_NEAR(runtime.exc_theta()[0], expected, 1e-3 * expected);
    EXPECT_LT(runtime.exc_theta()[0], 0.05f * cfg.excitatory.theta_plus);
}

TEST_P(LifRuntime, ThetaSurvivesTheSampleBoundaryReset) {
    NetworkRuntime runtime(model(20.0f));
    // The first sample fires on its last step. Had the sample boundary kept
    // that spike's refractory counter, the next sample's step-0 input could
    // not fire; it does, while theta carries over and keeps growing.
    EXPECT_EQ(spikes(runtime, raster(kSteps, {kSteps - 1})), 1u);
    const float theta = runtime.exc_theta()[0];
    EXPECT_GT(theta, 0.0f);
    EXPECT_EQ(spikes(runtime, raster(kSteps, {0})), 1u);
    EXPECT_GT(runtime.exc_theta()[0], theta);

    // Restoring a captured theta is the runtime's reset_adaptation.
    runtime.set_exc_theta(std::vector<float>(layer_size(), 0.0f));
    EXPECT_EQ(runtime.exc_theta()[0], 0.0f);
}

INSTANTIATE_TEST_SUITE_P(LayerSizes, LifRuntime, ::testing::Values(1u, 8u),
                         [](const auto& info) {
                             return "n" + std::to_string(info.param);
                         });

TEST(LifRuntimeValidation, RejectsNonPositiveTauAndMisshapenRasters) {
    DiehlCookConfig bad_exc = lif_config(1);
    bad_exc.excitatory.lif.tau_ms = 0.0f;
    EXPECT_THROW(NetworkRuntime(lif_model(bad_exc, 1.0f)), std::invalid_argument);
    DiehlCookConfig bad_inh = lif_config(1);
    bad_inh.inhibitory.tau_ms = -1.0f;
    EXPECT_THROW(NetworkRuntime(lif_model(bad_inh, 1.0f)), std::invalid_argument);

    NetworkRuntime runtime(lif_model(lif_config(1), 1.0f));
    SampleActivity activity;
    EXPECT_THROW(runtime.run_sample_into(raster(kSteps - 1, {0}), activity),
                 std::invalid_argument);
}

/// Parameters: layer size, threshold delta. The distance semantics
/// (scale 1 + delta) and the paper's value semantics (v_thresh scaled by
/// 1 + delta) move the threshold in opposite directions, and the neuron
/// fires exactly at the threshold the runtime reports.
class ThresholdSemanticsSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, float>> {};

TEST_P(ThresholdSemanticsSweep, ValueSemanticsInvertsEffect) {
    const auto [n, delta] = GetParam();
    FaultOverlay distance;
    distance.scale_threshold(kExc, kNeuron0, 1.0f + delta);
    FaultOverlay value;
    value.shift_threshold_value(kExc, kNeuron0, delta);

    const DiehlCookConfig cfg = lif_config(n);
    const double nominal = -52.0;
    const float distance_th =
        NetworkRuntime(lif_model(cfg, 0.0f), distance).effective_threshold(kExc, 0);
    const float value_th =
        NetworkRuntime(lif_model(cfg, 0.0f), value).effective_threshold(kExc, 0);
    EXPECT_NEAR(value_th, -52.0 * (1.0 + delta), 1e-3);
    if (delta < 0.0f) {
        EXPECT_LT(distance_th, nominal);  // easier
        EXPECT_GT(value_th, nominal);     // harder
    } else {
        EXPECT_GT(distance_th, nominal);
        EXPECT_LT(value_th, nominal);
    }

    for (const auto& [overlay, threshold] :
         {std::pair{distance, distance_th}, std::pair{value, value_th}}) {
        const float to_threshold = threshold + 65.0f;
        NetworkRuntime under(lif_model(cfg, to_threshold - 0.25f), overlay);
        NetworkRuntime over(lif_model(cfg, to_threshold + 0.25f), overlay);
        EXPECT_EQ(spikes(under, raster(kSteps, {0})), 0u);
        // At least one spike: a threshold pushed below v_reset (value
        // semantics at +20%: -62.4 mV) re-fires after every refractory
        // period without further input.
        EXPECT_GE(spikes(over, raster(kSteps, {0})), 1u);
    }
}

INSTANTIATE_TEST_SUITE_P(Deltas, ThresholdSemanticsSweep,
                         ::testing::Combine(::testing::Values(1u, 8u),
                                            ::testing::Values(-0.2f, -0.1f, 0.1f,
                                                              0.2f)));

}  // namespace
}  // namespace snnfi::snn
