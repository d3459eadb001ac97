// Lockstep group training over a shared spike raster: a group member's
// training must be bit-identical to training it alone, and a raster replay
// must be bit-identical to the image path that encodes it.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>
#include <memory>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "snn/encoding.hpp"
#include "snn/runtime.hpp"
#include "snn/trainer.hpp"

namespace snnfi::snn {
namespace {

DiehlCookConfig tiny_config() {
    DiehlCookConfig cfg;
    cfg.n_neurons = 20;
    cfg.steps_per_sample = 80;
    return cfg;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

std::vector<std::size_t> random_subset(util::Rng& rng, std::size_t n) {
    return rng.sample_indices(n, 1 + static_cast<std::size_t>(rng.below(n / 2)));
}

/// A random mix of every overlay op kind the runtime expands.
FaultOverlay random_overlay(util::Rng& rng, const DiehlCookConfig& config) {
    const std::size_t n = config.n_neurons;
    FaultOverlay overlay;
    overlay.set_driver_gain(static_cast<float>(rng.uniform(0.8, 1.2)));
    const OverlayLayer layer =
        rng.bernoulli(0.5) ? OverlayLayer::kExcitatory : OverlayLayer::kInhibitory;
    overlay.scale_threshold(layer, random_subset(rng, n),
                            static_cast<float>(rng.uniform(0.7, 1.3)));
    overlay.scale_input_gain(OverlayLayer::kExcitatory, random_subset(rng, n),
                             static_cast<float>(rng.uniform(0.5, 1.5)));
    overlay.scale_driver_gain(random_subset(rng, n),
                              static_cast<float>(rng.uniform(0.5, 1.5)));
    if (rng.bernoulli(0.5)) {
        overlay.force_state(layer, rng.sample_indices(n, 1), NeuronFault::kDead);
        overlay.override_refractory(OverlayLayer::kInhibitory, rng.sample_indices(n, 2),
                                    1);
    }
    overlay.set_weight(static_cast<std::size_t>(rng.below(config.n_input)),
                       static_cast<std::size_t>(rng.below(n)), 0.7f);
    return overlay;
}

FaultOverlay saturate_all(std::size_t n) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    FaultOverlay overlay;
    overlay.force_state(OverlayLayer::kExcitatory, all, NeuronFault::kSaturated);
    return overlay;
}

void expect_same_result(const TrainResult& a, const TrainResult& b) {
    EXPECT_EQ(a.train_accuracy, b.train_accuracy);
    EXPECT_EQ(a.retro_accuracy, b.retro_accuracy);
    EXPECT_EQ(a.test_accuracy, b.test_accuracy);
    EXPECT_EQ(a.total_exc_spikes, b.total_exc_spikes);
    EXPECT_EQ(a.total_inh_spikes, b.total_inh_spikes);
    EXPECT_EQ(a.mean_exc_spikes_per_sample, b.mean_exc_spikes_per_sample);
}

void expect_same_state(NetworkRuntime& a, NetworkRuntime& b) {
    const auto frozen_a = a.freeze();
    const auto frozen_b = b.freeze();
    EXPECT_TRUE(same_bits(frozen_a->input_weights().to_vector(),
                          frozen_b->input_weights().to_vector()));
    EXPECT_TRUE(same_bits(frozen_a->exc_theta(), frozen_b->exc_theta()));
    EXPECT_TRUE(a.rng().snapshot() == b.rng().snapshot());
}

TEST(GroupTraining, MembersMatchSoloTrainingBitExact) {
    const DiehlCookConfig config = tiny_config();
    const auto model = NetworkModel::random(config, 17);
    const auto train = data::make_synthetic_dataset(40, 5);
    const auto test = data::make_synthetic_dataset(12, 6);
    util::Rng overlay_rng(23);

    // Members 0..3 carry random static overlays; member 4 is clean and has
    // a step-axis schedule installed only for samples [10, 25).
    constexpr std::size_t kMembers = 5;
    constexpr std::size_t kScheduled = kMembers - 1;
    std::vector<FaultOverlay> overlays;
    for (std::size_t m = 0; m < kScheduled; ++m)
        overlays.push_back(random_overlay(overlay_rng, config));
    overlays.emplace_back();
    const OverlaySchedule schedule = {{20, 60, saturate_all(config.n_neurons)}};
    const auto window_hook = [&](NetworkRuntime& runtime, std::size_t index) {
        const bool inside = index >= 10 && index < 25;
        if (inside && runtime.schedule().empty()) runtime.set_schedule(schedule);
        if (!inside && !runtime.schedule().empty()) runtime.set_schedule({});
    };

    std::deque<NetworkRuntime> grouped;
    std::vector<NetworkRuntime*> members;
    for (const FaultOverlay& overlay : overlays) {
        grouped.emplace_back(model, overlay);
        members.push_back(&grouped.back());
    }
    Trainer group(members, 15);
    const std::vector<TrainResult> results =
        group.run_group(train, &test, [&](std::size_t member, std::size_t index) {
            if (member == kScheduled) window_hook(grouped[member], index);
        });
    ASSERT_EQ(results.size(), kMembers);

    for (std::size_t m = 0; m < kMembers; ++m) {
        SCOPED_TRACE(m);
        NetworkRuntime solo(model, overlays[m]);
        SampleHook hook;
        if (m == kScheduled) hook = [&](std::size_t index) { window_hook(solo, index); };
        const TrainResult expected = Trainer(solo, 15).run(train, &test, hook);
        expect_same_result(results[m], expected);
        expect_same_state(grouped[m], solo);

        // Trainer-free oracle: the same samples through the image path,
        // which encodes from the runtime's own stream.
        NetworkRuntime direct(model, overlays[m]);
        direct.set_learning(true);
        for (std::size_t i = 0; i < train.size(); ++i) {
            if (m == kScheduled) window_hook(direct, i);
            (void)direct.run_sample(train.images[i]);
        }
        direct.set_learning(false);
        for (const auto& image : test.images) (void)direct.run_sample(image);
        expect_same_state(grouped[m], direct);
    }
    // The faults really differ: not every member trained alike.
    EXPECT_NE(results[0].total_exc_spikes, results[kScheduled].total_exc_spikes);
}

TEST(GroupTraining, RejectsMismatchedStreamsAndBadGroups) {
    const auto model = NetworkModel::random(tiny_config(), 3);
    const auto train = data::make_synthetic_dataset(10, 1);
    NetworkRuntime a(model);
    NetworkRuntime b(model);
    b.rng().reseed(99);
    Trainer mismatched({&a, &b}, 5);
    EXPECT_THROW(mismatched.run_group(train), std::invalid_argument);

    EXPECT_THROW(Trainer(std::vector<NetworkRuntime*>{}, 5), std::invalid_argument);
    EXPECT_THROW(Trainer({&a, nullptr}, 5), std::invalid_argument);
    EXPECT_THROW(Trainer({&a, &a}, 5), std::invalid_argument);
    DiehlCookConfig other = tiny_config();
    other.steps_per_sample += 1;
    NetworkRuntime longer(NetworkModel::random(other, 3));
    EXPECT_THROW(Trainer({&a, &longer}, 5), std::invalid_argument);

    NetworkRuntime c(model);
    Trainer pair({&a, &c}, 5);
    EXPECT_THROW(pair.run(train), std::logic_error);
}

TEST(SpikeRasterReplay, MatchesImagePathBitExact) {
    const DiehlCookConfig config = tiny_config();
    const auto model = NetworkModel::random(config, 41);
    const auto data = data::make_synthetic_dataset(6, 2);
    FaultOverlay overlay;
    overlay.set_driver_gain(1.1f).set_weight(100, 3, 0.9f);

    for (const bool learning : {false, true}) {
        SCOPED_TRACE(learning);
        NetworkRuntime by_image(model, overlay);
        NetworkRuntime by_raster(model, overlay);
        by_image.set_learning(learning);
        by_raster.set_learning(learning);
        PoissonEncoder encoder(config.encoder);
        SpikeRaster raster;
        SampleActivity replayed;
        for (const auto& image : data.images) {
            const SampleActivity direct = by_image.run_sample(image);
            encoder.set_image(image);
            encoder.encode(by_raster.rng(), config.steps_per_sample, raster);
            by_raster.run_sample_into(raster, replayed);
            EXPECT_EQ(direct.exc_counts, replayed.exc_counts);
            EXPECT_EQ(direct.total_exc_spikes, replayed.total_exc_spikes);
            EXPECT_EQ(direct.total_inh_spikes, replayed.total_inh_spikes);
        }
        expect_same_state(by_image, by_raster);
    }
}

TEST(SpikeRasterReplay, RejectsMalformedRasters) {
    const DiehlCookConfig config = tiny_config();
    NetworkRuntime runtime(NetworkModel::random(config, 1));
    PoissonEncoder encoder(config.encoder);
    encoder.set_image(std::vector<float>(config.n_input, 0.5f));
    util::Rng rng(4);
    SpikeRaster good;
    encoder.encode(rng, config.steps_per_sample, good);
    SampleActivity activity;
    EXPECT_NO_THROW(runtime.run_sample_into(good, activity));

    SpikeRaster short_raster;
    encoder.encode(rng, config.steps_per_sample - 1, short_raster);
    EXPECT_THROW(runtime.run_sample_into(short_raster, activity), std::invalid_argument);

    SpikeRaster out_of_range = good;
    out_of_range.indices.back() = static_cast<std::uint32_t>(config.n_input);
    EXPECT_THROW(runtime.run_sample_into(out_of_range, activity), std::invalid_argument);

    SpikeRaster unordered = good;
    ASSERT_GE(unordered.at(0).size(), 2u);
    std::swap(unordered.indices[0], unordered.indices[1]);
    EXPECT_THROW(runtime.run_sample_into(unordered, activity), std::invalid_argument);

    SpikeRaster truncated = good;
    truncated.indices.pop_back();
    EXPECT_THROW(runtime.run_sample_into(truncated, activity), std::invalid_argument);
}

}  // namespace
}  // namespace snnfi::snn
