// Column-walk STDP reference: the pre-kernel DenseConnection::learn and
// ::normalize, kept verbatim in shape as the oracle for the row-major
// kernels (kernels::stdp_learn / normalize_columns). The equivalence
// property tests and bench_kernel compare against it bit for bit.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "snn/connection.hpp"
#include "snn/tensor.hpp"

namespace snnfi::snn::reference {

/// Weights and traces of one learned connection.
struct StdpState {
    Matrix weights;
    std::vector<float> trace_pre;
    std::vector<float> trace_post;

    explicit StdpState(Matrix w)
        : weights(std::move(w)), trace_pre(weights.rows(), 0.0f),
          trace_post(weights.cols(), 0.0f) {}
};

/// One STDP step: decay, pre-event depression rows, then one strided
/// column walk per spiking post neuron.
inline void learn(StdpState& s, const StdpParams& p, float trace_decay,
                  std::span<const std::uint32_t> active_pre,
                  std::span<const std::uint8_t> post_spiked) {
    for (float& t : s.trace_pre) t *= trace_decay;
    for (float& t : s.trace_post) t *= trace_decay;
    for (const std::uint32_t pre : active_pre) {
        auto row = s.weights.row(pre);
        for (std::size_t j = 0; j < row.size(); ++j)
            row[j] = std::max(p.wmin, row[j] - p.nu_pre * s.trace_post[j]);
        s.trace_pre[pre] = 1.0f;
    }
    for (std::size_t j = 0; j < post_spiked.size(); ++j) {
        if (!post_spiked[j]) continue;
        for (std::size_t i = 0; i < s.weights.rows(); ++i) {
            float& w = s.weights(i, j);
            w = std::min(p.wmax, w + p.nu_post * s.trace_pre[i]);
        }
        s.trace_post[j] = 1.0f;
    }
}

/// Per-column normalisation: a strided column sum, then a strided
/// column scale for every column whose sum is > 0.
inline void normalize(Matrix& w, float norm_total) {
    if (norm_total <= 0.0f) return;
    for (std::size_t j = 0; j < w.cols(); ++j) {
        const float total = w.column_sum(j);
        if (!(total > 0.0f)) continue;
        const float factor = norm_total / total;
        for (std::size_t r = 0; r < w.rows(); ++r) w(r, j) *= factor;
    }
}

}  // namespace snnfi::snn::reference
