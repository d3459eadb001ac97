// Synaptic connections of the Diehl&Cook topology.
//
//   input --(dense, STDP-learned)--> excitatory
//   excitatory --(one-to-one, fixed)--> inhibitory
//   inhibitory --(all-but-self, fixed negative)--> excitatory
//
// Propagation is event-driven: only rows of spiking pre-neurons are
// touched, which keeps the 784x100 training loop fast.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "snn/kernels.hpp"
#include "snn/tensor.hpp"
#include "util/random.hpp"

namespace snnfi::snn {

struct StdpParams {
    // Defaults follow BindsNET's reference Diehl&Cook configuration
    // (eth_mnist: nu = (1e-4, 1e-2)), which the paper's setup is based on
    // ("as configured in [23]"). Interpreting the paper's quoted
    // 0.0004/0.0002 literally as depression/potentiation rates collapses
    // network activity (see EXPERIMENTS.md, baseline row).
    float nu_pre = 1e-4f;    ///< depression rate on pre-synaptic events
    float nu_post = 1e-2f;   ///< potentiation rate on post-synaptic events
    float trace_tau_ms = 20.0f;
    float dt_ms = 1.0f;
    float wmin = 0.0f;
    float wmax = 1.0f;
};

/// Dense all-to-all connection with PostPre STDP and per-post-neuron weight
/// normalisation (BindsNET norm semantics).
class DenseConnection {
public:
    DenseConnection(std::size_t n_pre, std::size_t n_post, StdpParams params,
                    float norm_total, util::Rng& rng, float init_max = 0.3f);

    /// Adopts an existing weight matrix verbatim (no random init, no
    /// normalisation): the NetworkRuntime's learning path starts from a
    /// NetworkModel's frozen weights.
    DenseConnection(Matrix initial, StdpParams params, float norm_total);

    std::size_t n_pre() const noexcept { return weights_.rows(); }
    std::size_t n_post() const noexcept { return weights_.cols(); }
    const Matrix& weights() const noexcept { return weights_; }
    Matrix& weights() noexcept { return weights_; }

    /// Accumulates w[pre][:] into `out` for each active pre index.
    void propagate(std::span<const std::uint32_t> active_pre,
                   std::span<float> out) const;

    /// One STDP step (kernels::stdp_learn): decays traces, applies
    /// pre-event depression and post-event potentiation, updates traces.
    /// Throws std::invalid_argument, before any state changes, unless
    /// post_spiked has n_post entries and every active index is < n_pre.
    void learn(std::span<const std::uint32_t> active_pre,
               std::span<const std::uint8_t> post_spiked);

    /// Rescales each post-neuron's total input weight to `norm_total`
    /// (kernels::normalize_columns).
    void normalize();

    /// Clears traces (between samples).
    void reset_traces();
    bool learning_enabled() const noexcept { return learning_enabled_; }
    void set_learning(bool enabled) noexcept { learning_enabled_ = enabled; }

    const StdpParams& params() const noexcept { return stdp_; }
    float trace_decay() const noexcept { return learn_params_.trace_decay; }
    std::span<const float> trace_pre() const noexcept { return trace_pre_; }
    std::span<const float> trace_post() const noexcept { return trace_post_; }

private:
    void init_state();

    Matrix weights_;
    StdpParams stdp_;
    float norm_total_;
    kernels::LearnParams learn_params_;  ///< stdp_ plus the trace decay
    bool learning_enabled_ = true;
    std::vector<float> trace_pre_;
    std::vector<float> trace_post_;
    // Kernel scratch, sized once so a training step never allocates.
    std::vector<std::uint32_t> post_list_;
    AlignedVector col_sums_;
    AlignedVector col_factors_;
};

/// Fixed-weight one-to-one excitation (EL -> IL).
class OneToOneConnection {
public:
    OneToOneConnection(std::size_t n, float weight) : n_(n), weight_(weight) {}
    std::size_t size() const noexcept { return n_; }
    float weight() const noexcept { return weight_; }

    void propagate(std::span<const std::uint8_t> pre_spiked,
                   std::span<float> out) const;

private:
    std::size_t n_;
    float weight_;
};

/// Fixed uniform lateral inhibition: every pre spike contributes `weight`
/// (negative) to every post neuron except its own index. Uniformity lets
/// propagation run in O(n) per step regardless of spike count.
class LateralInhibitionConnection {
public:
    LateralInhibitionConnection(std::size_t n, float weight) : n_(n), weight_(weight) {}
    std::size_t size() const noexcept { return n_; }
    float weight() const noexcept { return weight_; }

    void propagate(std::span<const std::uint8_t> pre_spiked,
                   std::span<float> out) const;

private:
    std::size_t n_;
    float weight_;
};

}  // namespace snnfi::snn
