// BatchRunner's raster step loop: the image + Rng overload is a thin
// encode-then-replay wrapper, bad input throws before any replica or the
// Rng is touched, a runtime rebuilt mid-stream with its adaptive
// thresholds carried over continues exactly where the old one stopped,
// and the per-sample telemetry tally counts what one record per step
// would.
#include <gtest/gtest.h>

#include <cstring>

#include "data/synthetic_digits.hpp"
#include "obs/metrics.hpp"
#include "snn/model.hpp"
#include "snn/runtime.hpp"
#include "snn/trainer.hpp"

namespace snnfi::snn {
namespace {

DiehlCookConfig tiny_config() {
    DiehlCookConfig cfg;
    cfg.n_neurons = 20;
    cfg.steps_per_sample = 120;
    return cfg;
}

std::shared_ptr<const NetworkModel> trained_model() {
    static const std::shared_ptr<const NetworkModel> model = [] {
        const auto dataset = data::make_synthetic_dataset(30, 5);
        NetworkRuntime runtime(NetworkModel::random(tiny_config(), 9));
        (void)Trainer(runtime, 15).run(dataset);
        return runtime.freeze();
    }();
    return model;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// The three member kinds a campaign batch mixes.
struct Members {
    FaultOverlay patched;
    OverlaySchedule schedule;

    Members() {
        patched.set_weight(3, 1, 1.0f).set_weight(200, 4, 0.0f).flip_weight_bit(
            410, 7, 30);
        std::vector<std::size_t> all(tiny_config().n_neurons);
        for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
        FaultOverlay glitch;
        glitch.shift_threshold_value(OverlayLayer::kExcitatory, all, -0.18f);
        glitch.set_driver_gain(0.68f);
        // Runs to the end of the sample, so the segment is still active
        // when a sample returns — a later begin_sample would retract it.
        schedule = {{60, tiny_config().steps_per_sample, glitch}};
    }

    std::vector<NetworkRuntime> build(const std::shared_ptr<const NetworkModel>& model) const {
        std::vector<NetworkRuntime> runtimes;
        runtimes.reserve(3);
        runtimes.emplace_back(model);
        runtimes.emplace_back(model, patched);
        runtimes.emplace_back(model);
        runtimes.back().set_schedule(schedule);
        return runtimes;
    }
};

std::vector<NetworkRuntime*> pointers(std::vector<NetworkRuntime>& runtimes) {
    std::vector<NetworkRuntime*> out;
    for (NetworkRuntime& runtime : runtimes) out.push_back(&runtime);
    return out;
}

void expect_same_activity(const SampleActivity& a, const SampleActivity& b,
                          const std::string& where) {
    EXPECT_EQ(a.exc_counts, b.exc_counts) << where;
    EXPECT_EQ(a.total_exc_spikes, b.total_exc_spikes) << where;
    EXPECT_EQ(a.total_inh_spikes, b.total_inh_spikes) << where;
}

TEST(BatchRaster, RasterOverloadMatchesImageOverloadBitForBit) {
    const auto dataset = data::make_synthetic_dataset(6, 7);
    const auto model = trained_model();
    const Members members;
    auto via_image = members.build(model);
    auto via_raster = members.build(model);
    BatchRunner image_batch(*model, pointers(via_image));
    BatchRunner raster_batch(*model, pointers(via_raster));

    util::Rng image_rng(0x51);
    util::Rng raster_rng(0x51);
    PoissonEncoder encoder(model->config().encoder);
    SpikeRaster raster;
    std::vector<SampleActivity> a(3);
    std::vector<SampleActivity> b(3);
    for (std::size_t i = 0; i < dataset.size(); ++i) {
        image_batch.run_sample_into(dataset.images[i], image_rng, a);
        encoder.set_image(dataset.images[i]);
        encoder.encode(raster_rng, model->config().steps_per_sample, raster);
        raster_batch.run_sample_into(raster, b);
        for (std::size_t k = 0; k < 3; ++k) {
            const std::string where =
                "sample " + std::to_string(i) + " member " + std::to_string(k);
            expect_same_activity(a[k], b[k], where);
            EXPECT_TRUE(same_bits(via_image[k].exc_theta(), via_raster[k].exc_theta()))
                << where;
        }
    }
    EXPECT_EQ(image_rng.snapshot(), raster_rng.snapshot());
    // The members did real, distinct work.
    EXPECT_GT(a[0].total_exc_spikes, 0u);
    EXPECT_NE(a[0].exc_counts, a[2].exc_counts);
}

TEST(BatchRaster, ThrowingCallLeavesRngAndMembersUntouched) {
    const auto dataset = data::make_synthetic_dataset(3, 7);
    const auto model = trained_model();
    const DiehlCookConfig& config = model->config();
    const Members members;
    auto runtimes = members.build(model);
    auto twins = members.build(model);
    BatchRunner batch(*model, pointers(runtimes));
    BatchRunner twin_batch(*model, pointers(twins));

    util::Rng rng(0x77);
    util::Rng twin_rng(0x77);
    std::vector<SampleActivity> activities(3);
    std::vector<SampleActivity> twin_activities(3);
    batch.run_sample_into(dataset.images[0], rng, activities);
    twin_batch.run_sample_into(dataset.images[0], twin_rng, twin_activities);

    // Snapshot of everything a call could disturb before it throws.
    const util::Rng::Snapshot rng_before = rng.snapshot();
    const std::vector<SampleActivity> activities_before = activities;
    std::vector<std::vector<float>> theta_before;
    for (const NetworkRuntime& runtime : runtimes)
        theta_before.emplace_back(runtime.exc_theta().begin(), runtime.exc_theta().end());
    // The glitch segment is still in force after the sample: begin_sample
    // would retract it, so this scale proves begin_sample never ran.
    const float glitched_scale = runtimes[2].threshold_scale(OverlayLayer::kExcitatory, 0);
    ASSERT_NE(glitched_scale, 1.0f);

    PoissonEncoder encoder(config.encoder);
    encoder.set_image(dataset.images[1]);
    util::Rng scratch(0x99);
    SpikeRaster good;
    encoder.encode(scratch, config.steps_per_sample, good);
    ASSERT_GT(good.indices.size(), 2u);
    SpikeRaster short_raster;
    encoder.encode(scratch, config.steps_per_sample - 1, short_raster);
    SpikeRaster out_of_range = good;
    out_of_range.indices.back() = static_cast<std::uint32_t>(config.n_input);
    SpikeRaster unordered;
    unordered.offsets.assign(config.steps_per_sample + 1, 2);
    unordered.offsets[0] = 0;
    unordered.indices = {9, 4};

    const std::vector<float> short_image(config.n_input - 1, 0.5f);
    std::vector<SampleActivity> too_few(2);
    too_few[0] = activities[0];
    too_few[1] = activities[1];
    EXPECT_THROW(batch.run_sample_into(short_image, rng, activities),
                 std::invalid_argument);
    EXPECT_THROW(batch.run_sample_into(dataset.images[1], rng, too_few),
                 std::invalid_argument);
    EXPECT_THROW(batch.run_sample_into(good, too_few), std::invalid_argument);
    EXPECT_THROW(batch.run_sample_into(short_raster, activities), std::invalid_argument);
    EXPECT_THROW(batch.run_sample_into(out_of_range, activities), std::invalid_argument);
    EXPECT_THROW(batch.run_sample_into(unordered, activities), std::invalid_argument);

    EXPECT_EQ(rng.snapshot(), rng_before);
    for (std::size_t k = 0; k < 3; ++k) {
        expect_same_activity(activities[k], activities_before[k],
                             "member " + std::to_string(k));
        EXPECT_TRUE(same_bits(runtimes[k].exc_theta(), theta_before[k])) << k;
    }
    for (std::size_t k = 0; k < 2; ++k)
        expect_same_activity(too_few[k], activities_before[k], "short batch");
    EXPECT_EQ(runtimes[2].threshold_scale(OverlayLayer::kExcitatory, 0), glitched_scale);

    // ...and the batch carries on exactly like one that never saw the
    // failed calls.
    for (std::size_t i = 1; i < dataset.size(); ++i) {
        batch.run_sample_into(dataset.images[i], rng, activities);
        twin_batch.run_sample_into(dataset.images[i], twin_rng, twin_activities);
        for (std::size_t k = 0; k < 3; ++k)
            expect_same_activity(activities[k], twin_activities[k],
                                 "after throw, member " + std::to_string(k));
    }
}

TEST(BatchRaster, RebuiltRuntimeWithCarriedThetaMatchesUninterrupted) {
    const auto dataset = data::make_synthetic_dataset(7, 13);
    const auto model = trained_model();
    const Members members;
    auto whole = members.build(model);
    BatchRunner whole_batch(*model, pointers(whole));
    util::Rng whole_rng(0xAB);
    util::Rng split_rng(0xAB);

    std::vector<SampleActivity> a(3);
    std::vector<SampleActivity> b(3);
    std::vector<std::vector<float>> carried(3);
    const std::size_t cut[] = {0, 3, 5, 7};  // three rebuilt stretches
    for (std::size_t part = 0; part + 1 < std::size(cut); ++part) {
        auto rebuilt = members.build(model);
        for (std::size_t k = 0; k < 3 && part > 0; ++k)
            rebuilt[k].set_exc_theta(carried[k]);
        BatchRunner batch(*model, pointers(rebuilt));
        for (std::size_t i = cut[part]; i < cut[part + 1]; ++i) {
            whole_batch.run_sample_into(dataset.images[i], whole_rng, a);
            batch.run_sample_into(dataset.images[i], split_rng, b);
            for (std::size_t k = 0; k < 3; ++k)
                expect_same_activity(a[k], b[k],
                                     "sample " + std::to_string(i) + " member " +
                                         std::to_string(k));
        }
        for (std::size_t k = 0; k < 3; ++k) {
            EXPECT_TRUE(same_bits(rebuilt[k].exc_theta(), whole[k].exc_theta())) << k;
            carried[k].assign(rebuilt[k].exc_theta().begin(),
                              rebuilt[k].exc_theta().end());
        }
    }
    // Inference moved the thresholds, so carrying them was load-bearing.
    EXPECT_FALSE(same_bits(whole[0].exc_theta(), model->exc_theta()));
}

TEST(BatchRaster, SetExcThetaValidatesSize) {
    const auto model = trained_model();
    NetworkRuntime runtime(model);
    const std::vector<float> before(runtime.exc_theta().begin(),
                                    runtime.exc_theta().end());
    const std::vector<float> wrong(model->n_neurons() + 1, 1.0f);
    EXPECT_THROW(runtime.set_exc_theta(wrong), std::invalid_argument);
    EXPECT_TRUE(same_bits(runtime.exc_theta(), before));
    const std::vector<float> theta(model->n_neurons(), 2.5f);
    runtime.set_exc_theta(theta);
    EXPECT_TRUE(same_bits(runtime.exc_theta(), theta));
}

TEST(BatchRaster, TelemetryTallyEqualsOneRecordPerStep) {
    const auto dataset = data::make_synthetic_dataset(1, 21);
    const auto model = trained_model();
    const std::size_t steps = model->config().steps_per_sample;
    SpikeRaster raster;
    util::Rng rng(0x5A);
    PoissonEncoder encoder(model->config().encoder);
    encoder.set_image(dataset.images[0]);
    encoder.encode(rng, steps, raster);

    const Members members;
    auto runtimes = members.build(model);
    BatchRunner batch(*model, pointers(runtimes));
    std::vector<SampleActivity> activities(runtimes.size());
    obs::set_enabled(true);
    runtimes[0].run_sample_into(raster, activities[0]);  // registers the instruments
    obs::Registry& registry = obs::Registry::global();
    obs::Histogram& histogram = registry.histogram("snn.active_fraction", {});
    obs::Counter& fast = registry.counter("snn.steps.fast");
    obs::Counter& scalar = registry.counter("snn.steps.scalar");

    std::vector<std::uint64_t> per_step(histogram.counts().size(), 0);
    double last = 0.0;
    const double inv_input = 1.0 / static_cast<double>(model->n_input());
    for (std::size_t t = 0; t < steps; ++t) {
        last = static_cast<double>(raster.at(t).size()) * inv_input;
        ++per_step[histogram.bucket(last)];
    }
    // One standalone sample, then one batch sample of three members: the
    // batch records its shared input once per step, its paths per member.
    for (const std::size_t members_run : {std::size_t{1}, runtimes.size()}) {
        const std::vector<std::uint64_t> before = histogram.counts();
        const std::uint64_t paths_before = fast.value() + scalar.value();
        if (members_run == 1) {
            runtimes[0].run_sample_into(raster, activities[0]);
        } else {
            batch.run_sample_into(raster, activities);
        }
        const std::vector<std::uint64_t> after = histogram.counts();
        for (std::size_t b = 0; b < after.size(); ++b)
            EXPECT_EQ(after[b] - before[b], per_step[b]) << "bucket " << b;
        EXPECT_EQ(fast.value() + scalar.value() - paths_before, steps * members_run);
        EXPECT_EQ(registry.gauge("snn.active_fraction.last").value(), last);
    }
    obs::set_enabled(false);
}

}  // namespace
}  // namespace snnfi::snn
