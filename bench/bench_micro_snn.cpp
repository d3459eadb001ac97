// Microbenchmarks of the SNN training kernels (google-benchmark).
#include <benchmark/benchmark.h>

#include "data/synthetic_digits.hpp"
#include "snn/encoding.hpp"
#include "snn/runtime.hpp"
#include "snn/trainer.hpp"

namespace {

using namespace snnfi;

void BM_PoissonEncoderStep(benchmark::State& state) {
    util::Rng rng(5);
    data::SyntheticDigitsConfig cfg;
    const auto image = data::render_digit(8, rng, cfg);
    snn::PoissonEncoder encoder;
    encoder.set_image(image);
    std::vector<std::uint32_t> active;
    for (auto _ : state) {
        encoder.step(rng, active);
        benchmark::DoNotOptimize(active.data());
    }
}
BENCHMARK(BM_PoissonEncoderStep);

void BM_EncodedStreamDecode(benchmark::State& state) {
    // Replays one 250-step sample of the image above from a packed
    // stream: what a training group pays per sample instead of encoding.
    constexpr std::size_t kSteps = 250;
    util::Rng rng(5);
    data::SyntheticDigitsConfig cfg;
    const std::vector<std::vector<float>> images = {data::render_digit(8, rng, cfg)};
    const snn::EncodedStream stream(images, rng, {}, kSteps);
    snn::SpikeRaster raster;
    for (auto _ : state) {
        stream.decode(0, raster);
        benchmark::DoNotOptimize(raster.indices.data());
    }
    state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(kSteps));
}
BENCHMARK(BM_EncodedStreamDecode);

void BM_RenderDigit(benchmark::State& state) {
    util::Rng rng(5);
    data::SyntheticDigitsConfig cfg;
    std::size_t label = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(data::render_digit(label, rng, cfg));
        label = (label + 1) % 10;
    }
}
BENCHMARK(BM_RenderDigit);

void BM_NetworkSample(benchmark::State& state) {
    snn::DiehlCookConfig cfg;
    cfg.n_neurons = static_cast<std::size_t>(state.range(0));
    snn::NetworkRuntime runtime(snn::NetworkModel::random(cfg, 7));
    runtime.set_learning(true);
    util::Rng rng(5);
    const auto image = data::render_digit(3, rng, {});
    for (auto _ : state) {
        benchmark::DoNotOptimize(runtime.run_sample(image));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cfg.steps_per_sample));
}
BENCHMARK(BM_NetworkSample)->Arg(50)->Arg(100)->Arg(200);

void BM_ScheduledSample(benchmark::State& state) {
    // The scheduled-overlay hot path: a mid-sample glitch segment swapped
    // in and out every sample (inference mode, trained-model weights not
    // required for the kernel cost).
    snn::DiehlCookConfig cfg;
    cfg.n_neurons = static_cast<std::size_t>(state.range(0));
    snn::NetworkRuntime runtime(snn::NetworkModel::random(cfg, 7));
    std::vector<std::size_t> all(cfg.n_neurons);
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    snn::FaultOverlay glitch;
    glitch.shift_threshold_value(snn::OverlayLayer::kExcitatory, all, -0.18f);
    glitch.set_driver_gain(0.68f);
    runtime.set_schedule({{cfg.steps_per_sample / 4, cfg.steps_per_sample / 2,
                           std::move(glitch)}});
    util::Rng rng(5);
    const auto image = data::render_digit(3, rng, {});
    for (auto _ : state) {
        benchmark::DoNotOptimize(runtime.run_sample(image));
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(cfg.steps_per_sample));
}
BENCHMARK(BM_ScheduledSample)->Arg(50)->Arg(100)->Arg(200);

void BM_Training100Samples(benchmark::State& state) {
    const auto dataset = data::make_synthetic_dataset(100, 42);
    for (auto _ : state) {
        snn::NetworkRuntime runtime(
            snn::NetworkModel::random(snn::DiehlCookConfig{}, 7));
        snn::Trainer trainer(runtime);
        benchmark::DoNotOptimize(trainer.run(dataset));
    }
    state.SetItemsProcessed(state.iterations() * 100);
}
BENCHMARK(BM_Training100Samples)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
