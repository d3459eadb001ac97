// Poisson rate encoding of images into spike trains (BindsNET-style).
//
// Pixel intensity in [0,1] maps to a firing rate of intensity*max_rate_hz;
// each simulation step of dt draws an independent Bernoulli with
// p = rate*dt. Only pixels with non-zero intensity are visited.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/random.hpp"

namespace snnfi::snn {

struct PoissonEncoderConfig {
    double max_rate_hz = 128.0;  ///< rate of a full-intensity pixel
    double dt_ms = 1.0;          ///< simulation step
};

/// One sample's input spike train in CSR form: the ascending input indices
/// that spike at step t are indices[offsets[t], offsets[t+1]). Encoding a
/// new sample into the same raster reuses its capacity, so a training loop
/// that replays one raster per sample allocates nothing at steady state.
struct SpikeRaster {
    std::vector<std::uint32_t> offsets;  ///< steps() + 1 entries, offsets[0] == 0
    std::vector<std::uint32_t> indices;

    std::size_t steps() const noexcept {
        return offsets.empty() ? 0 : offsets.size() - 1;
    }
    std::span<const std::uint32_t> at(std::size_t step) const noexcept {
        return {indices.data() + offsets[step], offsets[step + 1] - offsets[step]};
    }
    /// Throws std::invalid_argument unless the raster spans `steps` steps
    /// and every step lists strictly ascending indices below `n_input`.
    void validate(std::size_t steps, std::size_t n_input) const;
};

/// Stateless per-step spike generator over one image.
class PoissonEncoder {
public:
    explicit PoissonEncoder(PoissonEncoderConfig config = {});

    /// Binds the encoder to an image (intensities in [0,1]). Pixels outside
    /// [0,1] are clamped. Resets internal step bookkeeping.
    void set_image(std::span<const float> image);

    /// Samples the active input indices for one timestep into `out`
    /// (cleared first). Deterministic given the Rng stream.
    void step(util::Rng& rng, std::vector<std::uint32_t>& out) const;

    /// Samples `steps` timesteps into `out`: the same draws, in the same
    /// order, as `steps` calls to step(), so `rng` ends in the same state.
    void encode(util::Rng& rng, std::size_t steps, SpikeRaster& out) const;

    std::size_t size() const noexcept { return probabilities_.size(); }

private:
    PoissonEncoderConfig config_;
    /// Per-pixel Bernoulli probability; parallel array of active indices.
    std::vector<float> probabilities_;
    std::vector<std::uint32_t> active_pixels_;  ///< pixels with p > 0
    /// ceil(p * 2^53) per active pixel, parallel to active_pixels_. Lets
    /// step() test `draw < threshold` on the raw 53-bit draw instead of
    /// converting to double — bit-identical to `uniform() < p` because both
    /// the scaling of the draw by 2^-53 and of p by 2^53 are exact.
    std::vector<std::uint64_t> thresholds_;
};

}  // namespace snnfi::snn
