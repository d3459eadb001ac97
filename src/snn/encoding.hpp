// Poisson rate encoding of images into spike trains (BindsNET-style).
//
// Pixel intensity in [0,1] maps to a firing rate of intensity*max_rate_hz;
// each simulation step of dt draws an independent Bernoulli with
// p = rate*dt. Only pixels with non-zero intensity are visited.
//
// An EncodedStream holds one encoded pass over a dataset in a compact byte
// format, so every consumer of the same (images, RNG state) pass replays
// the rasters instead of drawing them again.
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
    bool operator==(const PoissonEncoderConfig&) const = default;
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
    /// Counts one sample in `snn.encode.samples` while telemetry is on.
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

/// Appends `raster` to `out` in the compact format: per step, a LEB128
/// spike count, then LEB128 gaps (the first index, then
/// index - previous - 1). Throws std::invalid_argument on indices that are
/// not strictly ascending within a step.
void pack_raster(const SpikeRaster& raster, std::vector<std::uint8_t>& out);

/// Strict inverse of pack_raster over exactly `bytes`, reusing the capacity
/// of `out`. Throws std::invalid_argument on truncated input, a value past
/// 32 bits or in a non-canonical (overlong) form, an index >= `n_input`,
/// or bytes left over after `steps` steps. What it returns always passes
/// SpikeRaster::validate(steps, n_input).
void unpack_raster(std::span<const std::uint8_t> bytes, std::size_t steps,
                   std::size_t n_input, SpikeRaster& out);

/// One encoded pass over a sequence of images: the rasters that
/// PoissonEncoder::encode draws for images[0], images[1], ... in order
/// from one RNG stream, stored packed (about 1.1 bytes per spike) and
/// replayed by decode(). A replayed raster holds the same indices the
/// encoder produced, so a consumer that decodes instead of encoding is
/// bit-identical by construction.
class EncodedStream {
public:
    /// Encodes every image (all of one size, else std::invalid_argument)
    /// and advances `rng` exactly as images.size() encode() calls would.
    /// Records an `snn.stream` span tagged with the sample count and the
    /// byte size.
    EncodedStream(std::span<const std::vector<float>> images, util::Rng& rng,
                  PoissonEncoderConfig config, std::size_t steps);

    std::size_t size() const noexcept { return samples_.size(); }
    std::size_t steps() const noexcept { return steps_; }
    std::size_t n_input() const noexcept { return n_input_; }
    const PoissonEncoderConfig& config() const noexcept { return config_; }
    /// The stream state before the first sample and after the last one.
    const util::Rng::Snapshot& start() const noexcept { return start_; }
    const util::Rng::Snapshot& end() const noexcept { return end_; }
    /// Packed size of all samples, in bytes.
    std::size_t bytes() const noexcept { return bytes_; }

    /// Writes sample `i` into `out`, reusing its capacity. Throws
    /// std::out_of_range when i >= size().
    void decode(std::size_t i, SpikeRaster& out) const;

private:
    PoissonEncoderConfig config_;
    std::size_t steps_ = 0;
    std::size_t n_input_ = 0;
    util::Rng::Snapshot start_;
    util::Rng::Snapshot end_;
    /// One exact-size buffer per sample: no doubling growth of one large
    /// buffer, so building the stream peaks near its final size.
    std::vector<std::vector<std::uint8_t>> samples_;
    std::size_t bytes_ = 0;
};

}  // namespace snnfi::snn
