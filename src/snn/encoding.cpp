#include "snn/encoding.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"

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
    static obs::Counter& encoded_samples =
        obs::Registry::global().counter("snn.encode.samples");
    encoded_samples.add();
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

namespace {

/// Writes `value` as LEB128 at `cursor` (room for 5 bytes); returns the
/// byte past it.
inline std::uint8_t* put_varint(std::uint32_t value, std::uint8_t* cursor) {
    while (value >= 0x80) {
        *cursor++ = static_cast<std::uint8_t>(value | 0x80);
        value >>= 7;
    }
    *cursor++ = static_cast<std::uint8_t>(value);
    return cursor;
}

/// Bounds-checked LEB128 reader over one packed raster.
class VarintReader {
public:
    explicit VarintReader(std::span<const std::uint8_t> bytes)
        : cursor_(bytes.data()), end_(bytes.data() + bytes.size()) {}

    std::uint32_t next() {
        // Most values are gaps below 128: one byte, no continuation.
        if (cursor_ != end_ && *cursor_ < 0x80) return *cursor_++;
        return next_multibyte();
    }
    bool done() const noexcept { return cursor_ == end_; }

private:
    std::uint32_t next_multibyte() {
        std::uint32_t value = 0;
        for (int shift = 0;; shift += 7) {
            if (cursor_ == end_)
                throw std::invalid_argument("unpack_raster: truncated input");
            const std::uint8_t byte = *cursor_++;
            // The fifth byte may carry only the top 4 bits and must end.
            if (shift == 28 && byte > 0x0F)
                throw std::invalid_argument("unpack_raster: value past 32 bits");
            value |= static_cast<std::uint32_t>(byte & 0x7F) << shift;
            if ((byte & 0x80) == 0) {
                if (byte == 0 && shift > 0)
                    throw std::invalid_argument("unpack_raster: overlong value");
                return value;
            }
        }
    }

    const std::uint8_t* cursor_;
    const std::uint8_t* end_;
};

}  // namespace

void pack_raster(const SpikeRaster& raster, std::vector<std::uint8_t>& out) {
    // Room for the worst case, 5 bytes per count and per gap; trimmed below.
    const std::size_t base = out.size();
    out.resize(base + 5 * (raster.steps() + raster.indices.size()));
    std::uint8_t* cursor = out.data() + base;
    for (std::size_t t = 0; t < raster.steps(); ++t) {
        const std::span<const std::uint32_t> row = raster.at(t);
        cursor = put_varint(static_cast<std::uint32_t>(row.size()), cursor);
        std::uint32_t next = 0;  // smallest index the row may still hold
        for (const std::uint32_t index : row) {
            if (index < next) {
                out.resize(base);
                throw std::invalid_argument("pack_raster: indices not ascending");
            }
            cursor = put_varint(index - next, cursor);
            next = index + 1;
        }
    }
    out.resize(static_cast<std::size_t>(cursor - out.data()));
}

void unpack_raster(std::span<const std::uint8_t> bytes, std::size_t steps,
                   std::size_t n_input, SpikeRaster& out) {
    if (bytes.size() > std::numeric_limits<std::uint32_t>::max())
        throw std::invalid_argument("unpack_raster: input past 2^32 bytes");
    VarintReader reader(bytes);
    out.offsets.resize(steps + 1);
    out.offsets[0] = 0;
    // Every index takes at least one byte, so the input size bounds the
    // spike total: size once, write through a pointer, trim at the end.
    out.indices.resize(bytes.size());
    std::uint32_t* indices = out.indices.data();
    std::size_t total = 0;
    for (std::size_t t = 0; t < steps; ++t) {
        // A row lists distinct indices below n_input.
        const std::size_t count = reader.next();
        if (count > n_input)
            throw std::invalid_argument("unpack_raster: spike count out of range");
        std::uint64_t next = 0;
        for (std::size_t k = 0; k < count; ++k) {
            const std::uint64_t index = next + reader.next();
            if (index >= n_input)
                throw std::invalid_argument("unpack_raster: index >= n_input");
            indices[total++] = static_cast<std::uint32_t>(index);
            next = index + 1;
        }
        out.offsets[t + 1] = static_cast<std::uint32_t>(total);
    }
    if (!reader.done()) throw std::invalid_argument("unpack_raster: trailing bytes");
    out.indices.resize(total);
}

EncodedStream::EncodedStream(std::span<const std::vector<float>> images, util::Rng& rng,
                             PoissonEncoderConfig config, std::size_t steps)
    : config_(config),
      steps_(steps),
      n_input_(images.empty() ? 0 : images.front().size()),
      start_(rng.snapshot()) {
    for (const std::vector<float>& image : images) {
        if (image.size() != n_input_)
            throw std::invalid_argument("EncodedStream: images differ in size");
    }
    obs::Span span("snn.stream");
    PoissonEncoder encoder(config_);
    SpikeRaster raster;
    std::vector<std::uint8_t> packed;
    samples_.reserve(images.size());
    for (const std::vector<float>& image : images) {
        encoder.set_image(image);
        encoder.encode(rng, steps_, raster);
        packed.clear();
        pack_raster(raster, packed);
        samples_.emplace_back(packed.begin(), packed.end());
        bytes_ += packed.size();
    }
    end_ = rng.snapshot();
    span.tag("samples", static_cast<double>(samples_.size()));
    span.tag("bytes", static_cast<double>(bytes_));
}

void EncodedStream::decode(std::size_t i, SpikeRaster& out) const {
    if (i >= samples_.size()) throw std::out_of_range("EncodedStream::decode: index");
    unpack_raster(samples_[i], steps_, n_input_, out);
}

}  // namespace snnfi::snn
