#include "snn/encoding.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace snnfi::snn {

PoissonEncoder::PoissonEncoder(PoissonEncoderConfig config) : config_(config) {}

void PoissonEncoder::set_image(std::span<const float> image) {
    probabilities_.assign(image.size(), 0.0f);
    active_pixels_.clear();
    thresholds_.clear();
    const double p_full = config_.max_rate_hz * config_.dt_ms * 1e-3;
    for (std::size_t i = 0; i < image.size(); ++i) {
        const float intensity = std::clamp(image[i], 0.0f, 1.0f);
        if (intensity <= 0.0f) continue;
        const float p = static_cast<float>(
            std::min(1.0, static_cast<double>(intensity) * p_full));
        probabilities_[i] = p;
        active_pixels_.push_back(static_cast<std::uint32_t>(i));
        // For integer x in [0, 2^53): x*2^-53 < p  ⟺  x < ceil(p*2^53).
        // p -> double and the scale by 2^53 are both exact, so this is the
        // same predicate `uniform() < p` evaluates — not an approximation.
        thresholds_.push_back(static_cast<std::uint64_t>(
            std::ceil(static_cast<double>(p) * 0x1.0p53)));
    }
}

namespace {

/// One timestep's Bernoulli pass over the active pixels into `dst` (room
/// for every active pixel); returns the number of spikes written. Callers
/// pass a local copy of the stream so the xoshiro state stays in registers
/// instead of being stored and reloaded through a reference on every draw.
inline std::size_t draw_step(util::Rng& rng, const std::uint32_t* pixels,
                             const std::uint64_t* thresholds, std::size_t n_active,
                             std::uint32_t* dst) {
    std::size_t count = 0;
    // Branch-free Bernoulli loop: always stage the candidate pixel, advance
    // the write cursor only on success. Draw order (one next_u64 per active
    // pixel, ascending) is the determinism contract — kernels downstream
    // assume the emitted indices are ascending, and any reordering here
    // changes every golden in the repo.
    for (std::size_t k = 0; k < n_active; ++k) {
        const std::uint64_t draw = rng.next_u64() >> 11;
        dst[count] = pixels[k];
        count += static_cast<std::size_t>(draw < thresholds[k]);
    }
    return count;
}

}  // namespace

void PoissonEncoder::step(util::Rng& rng, std::vector<std::uint32_t>& out) const {
    const std::size_t n_active = active_pixels_.size();
    out.resize(n_active);
    util::Rng local = rng;
    const std::size_t count = draw_step(local, active_pixels_.data(),
                                        thresholds_.data(), n_active, out.data());
    rng = local;
    out.resize(count);
}

void PoissonEncoder::encode(util::Rng& rng, std::size_t steps, SpikeRaster& out) const {
    const std::size_t n_active = active_pixels_.size();
    if (n_active != 0 && steps > std::numeric_limits<std::uint32_t>::max() / n_active)
        throw std::length_error("PoissonEncoder::encode: raster exceeds 2^32 spikes");
    out.offsets.resize(steps + 1);
    out.offsets[0] = 0;
    out.indices.clear();
    util::Rng local = rng;
    std::size_t total = 0;
    for (std::size_t t = 0; t < steps; ++t) {
        // Room for every active pixel past the spikes so far. Each step
        // grows the vector only by the previous step's spike count, so the
        // zero-fill stays small and the capacity is reused across samples.
        out.indices.resize(total + n_active);
        total += draw_step(local, active_pixels_.data(), thresholds_.data(), n_active,
                           out.indices.data() + total);
        out.offsets[t + 1] = static_cast<std::uint32_t>(total);
    }
    rng = local;
    out.indices.resize(total);
}

void SpikeRaster::validate(std::size_t steps, std::size_t n_input) const {
    if (offsets.size() != steps + 1 || offsets.front() != 0 ||
        offsets.back() != indices.size())
        throw std::invalid_argument("SpikeRaster: offsets do not span the steps");
    for (std::size_t t = 0; t < steps; ++t) {
        if (offsets[t + 1] < offsets[t])
            throw std::invalid_argument("SpikeRaster: offsets not ascending");
        const std::span<const std::uint32_t> row = at(t);
        for (std::size_t k = 0; k < row.size(); ++k) {
            if (row[k] >= n_input || (k > 0 && row[k] <= row[k - 1]))
                throw std::invalid_argument(
                    "SpikeRaster: indices not ascending below n_input");
        }
    }
}

}  // namespace snnfi::snn
