// snn::kernels — the simulation hot path as free, stateless functions.
//
// Every fi/glitch campaign cell ultimately spends its time in two loops:
// the per-step input->excitatory drive accumulation and the fused
// LIF/DiehlCook neuron update; every training step adds the STDP update
// and, per sample, the weight normalisation. This header isolates them
// as plain kernels over raw spans so NetworkRuntime, BatchRunner and
// DenseConnection share one implementation — and so the property tests
// can pit each kernel against a naive scalar reference in isolation.
//
// Layout contract (shared with snn::Matrix, snn/tensor.hpp):
//   * weight rows are padded to a 64-byte stride (kPadFloats floats) and
//     the storage is 64-byte aligned;
//   * padding lanes are ALWAYS zero, so a kernel may stream whole padded
//     rows — accumulating the padding is a no-op on logical columns.
//
// Determinism-of-summation-order rule: accumulate_rows processes active
// rows in unrolled blocks of four, but each output element is updated
// with left-to-right adds — out[j] + r0[j] + r1[j] + r2[j] + r3[j] —
// which is EXACTLY the sequence of roundings the one-row-at-a-time loop
// performs. Blocking changes memory traffic, never the summation order,
// so results are bit-identical to the scalar reference, independent of
// the block schedule and of the worker-thread count (accumulation is
// always per-runtime, single-threaded).
//
// The *_fast_step kernels are the branch-free predicated fast path of the
// neuron update, valid only when no per-neuron fault state is live (all
// gains 1, no forced states, no refractory overrides — the clean-replica
// and weight-fault case). Under that precondition they are bit-identical
// to the scalar fault-aware loop in NetworkRuntime::advance_step: every
// arithmetic expression has the same shape and evaluation order, and the
// identities the fast path relies on (1.0f * x == x, scale-by-1 folding)
// hold bitwise in IEEE-754. NetworkRuntime re-derives the fast-path
// eligibility ("dirty summary") once per overlay/schedule-segment swap,
// never per step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace snnfi::snn::kernels {

inline constexpr std::size_t kAlignBytes = 64;
inline constexpr std::size_t kPadFloats = kAlignBytes / sizeof(float);  // 16

/// Smallest multiple of kPadFloats >= n: the padded row stride (and the
/// padded drive-buffer length) for a logical column count n.
constexpr std::size_t padded_size(std::size_t n) noexcept {
    return (n + kPadFloats - 1) / kPadFloats * kPadFloats;
}

/// Sparse drive accumulation over per-row pointers (the runtime's
/// copy-on-write row table): out[j] += rows[a][j] for each a in `active`,
/// in active order, blocked by four rows. Writes exactly `n` elements;
/// pass the padded length when `out` is a padded buffer to skip the
/// scalar tail, or the logical length otherwise — the result over the
/// logical prefix is identical either way.
void accumulate_rows(const float* const* rows,
                     std::span<const std::uint32_t> active, float* out,
                     std::size_t n);

/// Same kernel over strided matrix storage (row a starts at
/// base + a * stride) — the DenseConnection / BatchRunner form.
void accumulate_rows(const float* base, std::size_t stride,
                     std::span<const std::uint32_t> active, float* out,
                     std::size_t n);

/// Naive one-row-at-a-time reference (the pre-kernel implementation).
/// Kept callable so the equivalence property tests and bench_kernel can
/// compare against it; results must match accumulate_rows bit-for-bit.
void accumulate_rows_reference(const float* const* rows,
                               std::span<const std::uint32_t> active,
                               float* out, std::size_t n);

/// Excitatory (DiehlCook) fast-path parameters, all loop-invariant.
/// thresh_base must be computed as v_rest + (v_thresh - v_rest) — the
/// same expression (and rounding) the scalar path evaluates with a
/// threshold scale of 1.
struct ExcParams {
    float v_rest = 0.0f;
    float v_reset = 0.0f;
    float decay = 0.0f;        ///< exp(-dt/tau)
    float thresh_base = 0.0f;  ///< v_rest + (v_thresh - v_rest)
    float theta_decay = 1.0f;
    float theta_plus = 0.0f;
    std::int32_t refrac_steps = 0;
    float driver_gain = 1.0f;  ///< network-wide (uniform) driver gain
    bool gain_active = false;  ///< multiply drive by driver_gain
    float w_inh = 0.0f;        ///< lateral inhibition weight
};

/// One branch-free excitatory step over `n` neurons: drive + uniform
/// driver gain + lateral inhibition + leak + adaptive threshold + spike /
/// reset / refractory / theta bump, all predicated selects. Returns the
/// spike count. Precondition: no per-neuron fault state is live.
std::size_t exc_fast_step(const ExcParams& p, const float* drive,
                          const std::uint8_t* inh_spiked, std::size_t inh_total,
                          float* v, std::int32_t* refrac, float* theta,
                          std::uint8_t* spiked, std::size_t n);

/// Inhibitory fast-path parameters (plain LIF, one-to-one EL drive).
struct InhParams {
    float v_rest = 0.0f;
    float v_reset = 0.0f;
    float decay = 0.0f;
    float thresh_base = 0.0f;  ///< v_rest + (v_thresh - v_rest)
    std::int32_t refrac_steps = 0;
    float w_exc = 0.0f;  ///< EL -> IL one-to-one weight
};

/// One branch-free inhibitory step over `n` neurons. Returns the spike
/// count. Precondition: no per-neuron fault state is live.
std::size_t inh_fast_step(const InhParams& p, const std::uint8_t* exc_spiked,
                          float* v, std::int32_t* refrac, std::uint8_t* spiked,
                          std::size_t n);

/// counts[i] += spiked[i] — the per-sample spike histogram update.
void add_counts(std::uint32_t* counts, const std::uint8_t* spiked,
                std::size_t n);

/// PostPre STDP step parameters, all loop-invariant.
struct LearnParams {
    float trace_decay = 1.0f;  ///< exp(-dt/tau)
    float nu_pre = 0.0f;       ///< depression rate on pre-synaptic events
    float nu_post = 0.0f;      ///< potentiation rate on post-synaptic events
    float wmin = 0.0f;
    float wmax = 1.0f;
};

/// One STDP step over row-major weights (row r at w + r * stride, n_post
/// logical columns), in BindsNET order: decay both traces; depress each
/// active pre row by nu_pre * trace_post, clamped below at wmin, and set
/// its pre trace to 1; potentiate every row at the spiking post columns
/// by nu_post * trace_pre, clamped above at wmax; set those post traces
/// to 1. Each weight is updated elementwise from traces fixed within the
/// step, so the row pass is bit-identical to walking one column per
/// spiking post. The clamps are std::max(wmin, x) / std::min(wmax, x)
/// including NaN. Only logical columns are written, so padding lanes
/// stay zero. `post_list` is scratch for at least n_post indices.
/// Precondition (unchecked): every active index is < n_pre.
void stdp_learn(const LearnParams& p, float* w, std::size_t stride,
                std::size_t n_pre, std::size_t n_post,
                std::span<const std::uint32_t> active_pre,
                const std::uint8_t* post_spiked, float* trace_pre,
                float* trace_post, std::uint32_t* post_list);

/// Per-column normalisation over row-major weights: every column j < n
/// whose ascending-row sum is > 0 is scaled by norm_total / sum. Other
/// columns (zero, negative or NaN sum) keep their bits — a select, not a
/// factor of 1. The sums accumulate row by row in ascending order, the
/// same roundings as a column walk. Zero padding lanes sum to zero and
/// are left alone, so n may be the padded stride. `sums` and `factors`
/// are scratch for n floats each.
void normalize_columns(float* w, std::size_t stride, std::size_t rows,
                       std::size_t n, float norm_total, float* sums,
                       float* factors);

}  // namespace snnfi::snn::kernels
