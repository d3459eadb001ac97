#include "snn/connection.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace snnfi::snn {

DenseConnection::DenseConnection(std::size_t n_pre, std::size_t n_post,
                                 StdpParams params, float norm_total, util::Rng& rng,
                                 float init_max)
    : weights_(n_pre, n_post), stdp_(params), norm_total_(norm_total) {
    if (n_pre == 0 || n_post == 0)
        throw std::invalid_argument("DenseConnection: empty dimension");
    // Row-major logical order — the same RNG draw sequence as the
    // historical contiguous-storage init (padding lanes consume none).
    for (std::size_t r = 0; r < n_pre; ++r) {
        for (float& w : weights_.row(r))
            w = static_cast<float>(rng.uniform()) * init_max;
    }
    init_state();
    if (norm_total_ > 0.0f) normalize();
}

DenseConnection::DenseConnection(Matrix initial, StdpParams params, float norm_total)
    : weights_(std::move(initial)), stdp_(params), norm_total_(norm_total) {
    if (weights_.rows() == 0 || weights_.cols() == 0)
        throw std::invalid_argument("DenseConnection: empty dimension");
    init_state();
}

void DenseConnection::init_state() {
    learn_params_.trace_decay = std::exp(-stdp_.dt_ms / stdp_.trace_tau_ms);
    learn_params_.nu_pre = stdp_.nu_pre;
    learn_params_.nu_post = stdp_.nu_post;
    learn_params_.wmin = stdp_.wmin;
    learn_params_.wmax = stdp_.wmax;
    trace_pre_.assign(weights_.rows(), 0.0f);
    trace_post_.assign(weights_.cols(), 0.0f);
    post_list_.assign(weights_.cols(), 0);
    col_sums_.assign(weights_.stride(), 0.0f);
    col_factors_.assign(weights_.stride(), 0.0f);
}

void DenseConnection::propagate(std::span<const std::uint32_t> active_pre,
                                std::span<float> out) const {
    if (out.size() < n_post())
        throw std::invalid_argument("DenseConnection::propagate: size mismatch");
    // Blocked kernel over the padded storage; a padded `out` (the
    // runtime's drive buffer) skips the scalar tail, a logical one caps
    // the write at n_post — bit-identical over the logical prefix.
    const std::size_t n = std::min(out.size(), weights_.stride());
    kernels::accumulate_rows(weights_.data(), weights_.stride(), active_pre,
                             out.data(), n);
}

void DenseConnection::learn(std::span<const std::uint32_t> active_pre,
                            std::span<const std::uint8_t> post_spiked) {
    if (post_spiked.size() != n_post())
        throw std::invalid_argument("DenseConnection::learn: post size mismatch");
    for (const std::uint32_t pre : active_pre) {
        if (pre >= n_pre())
            throw std::invalid_argument("DenseConnection::learn: pre index out of range");
    }
    if (!learning_enabled_) return;
    kernels::stdp_learn(learn_params_, weights_.data(), weights_.stride(), n_pre(), n_post(),
                        active_pre, post_spiked.data(), trace_pre_.data(),
                        trace_post_.data(), post_list_.data());
}

void DenseConnection::normalize() {
    if (norm_total_ <= 0.0f) return;
    kernels::normalize_columns(weights_.data(), weights_.stride(), n_pre(),
                               weights_.stride(), norm_total_, col_sums_.data(),
                               col_factors_.data());
}

void DenseConnection::reset_traces() {
    trace_pre_.assign(trace_pre_.size(), 0.0f);
    trace_post_.assign(trace_post_.size(), 0.0f);
}

void OneToOneConnection::propagate(std::span<const std::uint8_t> pre_spiked,
                                   std::span<float> out) const {
    if (pre_spiked.size() != n_ || out.size() != n_)
        throw std::invalid_argument("OneToOneConnection::propagate: size mismatch");
    for (std::size_t i = 0; i < n_; ++i) {
        if (pre_spiked[i]) out[i] += weight_;
    }
}

void LateralInhibitionConnection::propagate(std::span<const std::uint8_t> pre_spiked,
                                            std::span<float> out) const {
    if (pre_spiked.size() != n_ || out.size() != n_)
        throw std::invalid_argument(
            "LateralInhibitionConnection::propagate: size mismatch");
    std::size_t total_spikes = 0;
    for (const std::uint8_t s : pre_spiked) total_spikes += s;
    if (total_spikes == 0) return;
    // Uniform weights: each post neuron receives w * (total minus its own
    // pre partner's spike).
    const float w = weight_;
    for (std::size_t i = 0; i < n_; ++i) {
        const float contributions =
            static_cast<float>(total_spikes) - static_cast<float>(pre_spiked[i]);
        out[i] += w * contributions;
    }
}

}  // namespace snnfi::snn
