// EncodedStream: one encoded training pass, stored packed and replayed.
// A replay must hold the encoder's own bytes and leave the encoder's RNG
// state; the packed reader must reject every malformed input; and a
// Trainer that replays a stream must be bit-identical to one that encodes.
#include <gtest/gtest.h>

#include <deque>
#include <vector>

#include "data/synthetic_digits.hpp"
#include "snn/encoding.hpp"
#include "snn/runtime.hpp"
#include "snn/trainer.hpp"

namespace snnfi::snn {
namespace {

SpikeRaster make_raster(const std::vector<std::vector<std::uint32_t>>& rows) {
    SpikeRaster raster;
    raster.offsets.push_back(0);
    for (const auto& row : rows) {
        raster.indices.insert(raster.indices.end(), row.begin(), row.end());
        raster.offsets.push_back(static_cast<std::uint32_t>(raster.indices.size()));
    }
    return raster;
}

void expect_same_raster(const SpikeRaster& a, const SpikeRaster& b) {
    EXPECT_EQ(a.offsets, b.offsets);
    EXPECT_EQ(a.indices, b.indices);
}

std::vector<std::uint8_t> packed(const SpikeRaster& raster) {
    std::vector<std::uint8_t> bytes;
    pack_raster(raster, bytes);
    return bytes;
}

TEST(EncodedStream, DecodeEqualsEncodeForEverySample) {
    const Dataset data = data::make_synthetic_dataset(12, 3);
    constexpr std::size_t kSteps = 120;
    const PoissonEncoderConfig config;
    util::Rng streamed(41);
    const util::Rng::Snapshot start = streamed.snapshot();
    const EncodedStream stream(data.images, streamed, config, kSteps);
    EXPECT_EQ(stream.size(), data.size());
    EXPECT_EQ(stream.steps(), kSteps);
    EXPECT_EQ(stream.n_input(), data.image_size);
    EXPECT_EQ(stream.start(), start);

    util::Rng encoded(41);
    PoissonEncoder encoder(config);
    SpikeRaster expected;
    SpikeRaster replayed;
    std::size_t spikes = 0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        SCOPED_TRACE(i);
        encoder.set_image(data.images[i]);
        encoder.encode(encoded, kSteps, expected);
        stream.decode(i, replayed);
        expect_same_raster(replayed, expected);
        spikes += expected.indices.size();
    }
    EXPECT_EQ(stream.end(), encoded.snapshot());
    EXPECT_EQ(streamed.snapshot(), encoded.snapshot());
    // Compact: well under the 4 bytes per spike of the uint32 form.
    EXPECT_LT(stream.bytes(), 2 * spikes);
    EXPECT_THROW(stream.decode(data.size(), replayed), std::out_of_range);
}

TEST(EncodedStream, EmptyPassAndMismatchedImages) {
    util::Rng rng(5);
    const util::Rng::Snapshot start = rng.snapshot();
    const EncodedStream empty({}, rng, {}, 50);
    EXPECT_EQ(empty.size(), 0u);
    EXPECT_EQ(empty.start(), start);
    EXPECT_EQ(empty.end(), start);

    const std::vector<std::vector<float>> ragged = {std::vector<float>(10, 0.5f),
                                                    std::vector<float>(11, 0.5f)};
    EXPECT_THROW(EncodedStream(ragged, rng, {}, 50), std::invalid_argument);
    EXPECT_EQ(rng.snapshot(), start);  // rejected before any draw
}

TEST(EncodedStream, EdgeRastersRoundTrip) {
    std::vector<std::uint32_t> all(784);
    for (std::uint32_t i = 0; i < all.size(); ++i) all[i] = i;
    const std::vector<SpikeRaster> rasters = {
        make_raster({}),                           // zero steps
        make_raster({{}, {}, {}}),                 // only empty steps
        make_raster({all}),                        // every pixel, count >= 128
        make_raster({{0}, {783}, {0, 783}}),       // the extreme indices
        make_raster({{127, 255}, {128, 257, 783}}),  // gaps of 127, 128 and more
        make_raster({{}, all, {}, {5}, {}}),
    };
    for (std::size_t r = 0; r < rasters.size(); ++r) {
        SCOPED_TRACE(r);
        const SpikeRaster& raster = rasters[r];
        SpikeRaster out = make_raster({{1, 2, 3}, {4}});  // stale content
        unpack_raster(packed(raster), raster.steps(), 784, out);
        expect_same_raster(out, raster);
    }
    // Gaps past two LEB128 bytes on a wider input.
    const SpikeRaster wide = make_raster({{16383, 16384, 2113663, 4000000}});
    SpikeRaster out;
    unpack_raster(packed(wide), 1, 4000001, out);
    expect_same_raster(out, wide);
}

TEST(EncodedStream, StrictReaderRejectsMalformedInput) {
    const SpikeRaster raster = make_raster({{0, 3, 200}, {}, {783}, {1, 2}});
    const std::vector<std::uint8_t> good = packed(raster);
    const std::size_t steps = raster.steps();
    SpikeRaster out;

    // Truncated at every length.
    for (std::size_t n = 0; n < good.size(); ++n) {
        SCOPED_TRACE(n);
        EXPECT_THROW(unpack_raster({good.data(), n}, steps, 784, out),
                     std::invalid_argument);
    }
    // Trailing bytes.
    std::vector<std::uint8_t> trailing = good;
    trailing.push_back(0);
    EXPECT_THROW(unpack_raster(trailing, steps, 784, out), std::invalid_argument);
    // Out-of-range indices: 783 is not below an input of 783.
    EXPECT_THROW(unpack_raster(good, steps, 783, out), std::invalid_argument);
    // A count larger than the input.
    EXPECT_THROW(unpack_raster(std::vector<std::uint8_t>{5, 0, 0, 0, 0, 0}, 1, 4, out),
                 std::invalid_argument);
    // Overlong and past-32-bit values.
    EXPECT_THROW(unpack_raster(std::vector<std::uint8_t>{0x80, 0x00}, 1, 784, out),
                 std::invalid_argument);
    EXPECT_THROW(unpack_raster(std::vector<std::uint8_t>{1, 0xFF, 0xFF, 0xFF, 0xFF, 0x1F},
                               1, 784, out),
                 std::invalid_argument);

    // Flipped bytes: the continuation bit on the last byte truncates, and a
    // flip that inflates the first count runs out of input. The encoding is
    // canonical, so any single-bit flip either throws or yields a raster
    // that is still valid and differs from the original.
    std::vector<std::uint8_t> flipped = good;
    flipped.back() ^= 0x80;
    EXPECT_THROW(unpack_raster(flipped, steps, 784, out), std::invalid_argument);
    flipped = good;
    flipped.front() ^= 0x40;
    EXPECT_THROW(unpack_raster(flipped, steps, 784, out), std::invalid_argument);
    for (std::size_t at = 0; at < good.size(); ++at) {
        for (int bit = 0; bit < 8; ++bit) {
            flipped = good;
            flipped[at] ^= static_cast<std::uint8_t>(1u << bit);
            try {
                unpack_raster(flipped, steps, 784, out);
            } catch (const std::invalid_argument&) {
                continue;
            }
            EXPECT_NO_THROW(out.validate(steps, 784)) << at << ":" << bit;
            EXPECT_TRUE(out.offsets != raster.offsets || out.indices != raster.indices)
                << at << ":" << bit;
        }
    }

    // The writer refuses rows that are not strictly ascending.
    std::vector<std::uint8_t> sink;
    EXPECT_THROW(pack_raster(make_raster({{4, 4}}), sink), std::invalid_argument);
    EXPECT_THROW(pack_raster(make_raster({{9, 2}}), sink), std::invalid_argument);
}

// ------------------------------------------------------- Trainer replay

DiehlCookConfig tiny_config() {
    DiehlCookConfig cfg;
    cfg.n_neurons = 16;
    cfg.steps_per_sample = 60;
    return cfg;
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
    EXPECT_EQ(frozen_a->input_weights().to_vector(), frozen_b->input_weights().to_vector());
    const std::span<const float> theta_a = frozen_a->exc_theta();
    const std::span<const float> theta_b = frozen_b->exc_theta();
    EXPECT_EQ(std::vector<float>(theta_a.begin(), theta_a.end()),
              std::vector<float>(theta_b.begin(), theta_b.end()));
    EXPECT_EQ(a.rng().snapshot(), b.rng().snapshot());
}

/// Member m's overlay: a driver-gain fault on every other member.
FaultOverlay member_overlay(std::size_t m) {
    FaultOverlay overlay;
    if (m % 2 == 1) overlay.set_driver_gain(0.8f);
    return overlay;
}

TEST(EncodedStreamTrainer, ReplayMatchesEncodingInGroupsOfOneAndThree) {
    const DiehlCookConfig config = tiny_config();
    const auto model = NetworkModel::random(config, 11);
    const Dataset train = data::make_synthetic_dataset(30, 7);
    const Dataset test = data::make_synthetic_dataset(8, 8);
    std::vector<std::size_t> all(config.n_neurons);
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    FaultOverlay dip;
    dip.shift_threshold_value(OverlayLayer::kExcitatory, all, -0.15f);
    const OverlaySchedule schedule = {{10, 40, dip}};

    for (const std::size_t members : {1u, 3u}) {
        SCOPED_TRACE(members);
        std::deque<NetworkRuntime> replaying;
        std::deque<NetworkRuntime> encoding;
        std::vector<NetworkRuntime*> replay_group;
        std::vector<NetworkRuntime*> encode_group;
        for (std::size_t m = 0; m < members; ++m) {
            replaying.emplace_back(model, member_overlay(m));
            encoding.emplace_back(model, member_overlay(m));
            replay_group.push_back(&replaying.back());
            encode_group.push_back(&encoding.back());
        }
        // The last member trains under a glitch for samples [5, 20).
        const auto hook_for = [&](std::deque<NetworkRuntime>& runtimes) {
            return [&, members](std::size_t member, std::size_t index) {
                if (member != members - 1) return;
                if (index == 5) runtimes[member].set_schedule(schedule);
                if (index == 20) runtimes[member].set_schedule({});
            };
        };
        util::Rng rng = model->init_rng();
        const EncodedStream stream(train.images, rng, config.encoder,
                                   config.steps_per_sample);
        const std::vector<TrainResult> replayed =
            Trainer(replay_group, 10).run_group(train, stream, &test, hook_for(replaying));
        const std::vector<TrainResult> encoded =
            Trainer(encode_group, 10).run_group(train, &test, hook_for(encoding));
        ASSERT_EQ(replayed.size(), members);
        ASSERT_EQ(encoded.size(), members);
        for (std::size_t m = 0; m < members; ++m) {
            SCOPED_TRACE(m);
            expect_same_result(replayed[m], encoded[m]);
            expect_same_state(replaying[m], encoding[m]);
        }
        // Without a test set every member ends at the stream's end.
        NetworkRuntime solo(model);
        (void)Trainer(solo, 10).run_group(train, stream);
        EXPECT_EQ(solo.rng().snapshot(), stream.end());
    }
}

TEST(EncodedStreamTrainer, MismatchedStreamThrowsAndLeavesMembersUntouched) {
    const DiehlCookConfig config = tiny_config();
    const auto model = NetworkModel::random(config, 13);
    const Dataset train = data::make_synthetic_dataset(12, 4);
    const auto build = [&](util::Rng rng, std::span<const std::vector<float>> images,
                           PoissonEncoderConfig encoder, std::size_t steps) {
        return EncodedStream(images, rng, encoder, steps);
    };
    PoissonEncoderConfig faster = config.encoder;
    faster.max_rate_hz *= 2.0;
    std::vector<std::vector<float>> narrow;
    for (const auto& image : train.images) narrow.emplace_back(image.begin(), image.end() - 1);

    std::vector<EncodedStream> bad;
    bad.push_back(build(util::Rng(999), train.images, config.encoder,
                        config.steps_per_sample));  // start
    bad.push_back(build(model->init_rng(),
                        std::span(train.images).first(train.size() - 1), config.encoder,
                        config.steps_per_sample));  // size
    bad.push_back(build(model->init_rng(), train.images, config.encoder,
                        config.steps_per_sample + 1));  // steps
    bad.push_back(build(model->init_rng(), train.images, faster,
                        config.steps_per_sample));  // encoder config
    bad.push_back(build(model->init_rng(), narrow, config.encoder,
                        config.steps_per_sample));  // input size

    for (std::size_t b = 0; b < bad.size(); ++b) {
        SCOPED_TRACE(b);
        NetworkRuntime a(model);
        NetworkRuntime c(model, member_overlay(1));
        bool hooked = false;
        EXPECT_THROW((void)Trainer({&a, &c}, 4).run_group(
                         train, bad[b], nullptr,
                         [&](std::size_t, std::size_t) { hooked = true; }),
                     std::invalid_argument);
        EXPECT_FALSE(hooked);
        EXPECT_FALSE(a.learning_enabled());
        NetworkRuntime fresh(model);
        expect_same_state(a, fresh);
        expect_same_state(c, fresh);
    }
}

}  // namespace
}  // namespace snnfi::snn
