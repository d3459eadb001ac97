#include "snn/encoding.hpp"

#include <gtest/gtest.h>

namespace snnfi::snn {
namespace {

TEST(PoissonEncoder, ZeroImageProducesNoSpikes) {
    PoissonEncoder encoder;
    encoder.set_image(std::vector<float>(100, 0.0f));
    util::Rng rng(1);
    std::vector<std::uint32_t> active;
    for (int step = 0; step < 100; ++step) {
        encoder.step(rng, active);
        EXPECT_TRUE(active.empty());
    }
}

TEST(PoissonEncoder, RateMatchesIntensity) {
    PoissonEncoderConfig config;
    config.max_rate_hz = 100.0;
    config.dt_ms = 1.0;
    PoissonEncoder encoder(config);
    std::vector<float> image(2, 0.0f);
    image[0] = 1.0f;   // 100 Hz -> p = 0.1/step
    image[1] = 0.25f;  // 25 Hz -> p = 0.025/step
    encoder.set_image(image);

    util::Rng rng(7);
    std::vector<std::uint32_t> active;
    int count0 = 0, count1 = 0;
    const int steps = 40000;
    for (int step = 0; step < steps; ++step) {
        encoder.step(rng, active);
        for (const auto idx : active) {
            if (idx == 0) ++count0;
            if (idx == 1) ++count1;
        }
    }
    EXPECT_NEAR(static_cast<double>(count0) / steps, 0.1, 0.01);
    EXPECT_NEAR(static_cast<double>(count1) / steps, 0.025, 0.005);
}

TEST(PoissonEncoder, DeterministicGivenSeed) {
    PoissonEncoder encoder;
    std::vector<float> image(50, 0.3f);
    encoder.set_image(image);
    util::Rng rng_a(99), rng_b(99);
    SpikeRaster raster_a, raster_b;
    encoder.encode(rng_a, 200, raster_a);
    encoder.encode(rng_b, 200, raster_b);
    EXPECT_EQ(raster_a.offsets, raster_b.offsets);
    EXPECT_EQ(raster_a.indices, raster_b.indices);
}

TEST(PoissonEncoder, EncodeMatchesRepeatedStepsOverLongStream) {
    // Several images back to back on one stream, one raster reused: every
    // step's row, the spike total and the final RNG state must equal what
    // step() produces, draw for draw.
    util::Rng image_rng(5);
    util::Rng stepped(77), encoded(77);
    PoissonEncoder encoder;
    SpikeRaster raster;
    std::vector<std::uint32_t> active;
    for (const std::size_t steps : {1000u, 0u, 3000u, 250u}) {
        std::vector<float> image(784, 0.0f);
        for (float& x : image) {
            if (image_rng.bernoulli(0.3)) x = static_cast<float>(image_rng.uniform());
        }
        encoder.set_image(image);
        encoder.encode(encoded, steps, raster);
        ASSERT_EQ(raster.steps(), steps);
        std::size_t total = 0;
        for (std::size_t t = 0; t < steps; ++t) {
            encoder.step(stepped, active);
            const std::span<const std::uint32_t> row = raster.at(t);
            ASSERT_EQ(std::vector<std::uint32_t>(row.begin(), row.end()), active)
                << "step " << t;
            total += active.size();
        }
        EXPECT_EQ(raster.indices.size(), total);
        EXPECT_NO_THROW(raster.validate(steps, image.size()));
        EXPECT_TRUE(encoded.snapshot() == stepped.snapshot());
    }
}

TEST(PoissonEncoder, IntensityClampedToUnitRange) {
    PoissonEncoderConfig config;
    config.max_rate_hz = 500.0;
    config.dt_ms = 1.0;
    PoissonEncoder encoder(config);
    std::vector<float> image = {5.0f, -2.0f};  // clamp to 1 and 0
    encoder.set_image(image);
    util::Rng rng(3);
    std::vector<std::uint32_t> active;
    int count0 = 0, count1 = 0;
    for (int step = 0; step < 2000; ++step) {
        encoder.step(rng, active);
        for (const auto idx : active) {
            if (idx == 0) ++count0;
            if (idx == 1) ++count1;
        }
    }
    EXPECT_NEAR(count0 / 2000.0, 0.5, 0.05);  // p clamped at rate*dt = 0.5
    EXPECT_EQ(count1, 0);
}

TEST(PoissonEncoder, ProbabilityCappedAtOne) {
    PoissonEncoderConfig config;
    config.max_rate_hz = 5000.0;  // p would exceed 1
    PoissonEncoder encoder(config);
    encoder.set_image(std::vector<float>{1.0f});
    util::Rng rng(5);
    std::vector<std::uint32_t> active;
    for (int step = 0; step < 100; ++step) {
        encoder.step(rng, active);
        ASSERT_EQ(active.size(), 1u);  // fires every step, never more
    }
}

TEST(PoissonEncoder, SizeTracksImage) {
    PoissonEncoder encoder;
    encoder.set_image(std::vector<float>(784, 0.5f));
    EXPECT_EQ(encoder.size(), 784u);
}

/// Property: total spike count scales linearly with intensity.
class EncoderRateSweep : public ::testing::TestWithParam<float> {};

TEST_P(EncoderRateSweep, MeanRateProportionalToIntensity) {
    const float intensity = GetParam();
    PoissonEncoderConfig config;
    config.max_rate_hz = 128.0;
    PoissonEncoder encoder(config);
    encoder.set_image(std::vector<float>(20, intensity));
    util::Rng rng(31);
    std::vector<std::uint32_t> active;
    std::size_t total = 0;
    const int steps = 20000;
    for (int step = 0; step < steps; ++step) {
        encoder.step(rng, active);
        total += active.size();
    }
    const double expected = 20.0 * intensity * 0.128 * steps / 1000.0 * 1000.0;
    const double measured = static_cast<double>(total);
    EXPECT_NEAR(measured, expected, expected * 0.05 + 20.0);
}

INSTANTIATE_TEST_SUITE_P(Intensities, EncoderRateSweep,
                         ::testing::Values(0.1f, 0.3f, 0.5f, 0.9f));

}  // namespace
}  // namespace snnfi::snn
