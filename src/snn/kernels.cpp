#include "snn/kernels.hpp"

namespace snnfi::snn::kernels {

namespace {

#if defined(__GNUC__) || defined(__clang__)
#define SNNFI_RESTRICT __restrict__
#else
#define SNNFI_RESTRICT
#endif

/// Blocked accumulation over an abstract row lookup. The unroll factor
/// (4) amortises the out[] load/store traffic across rows; the adds per
/// element stay left-to-right, so every rounding matches the reference.
template <class RowAt>
void accumulate_blocked(RowAt row_at, std::span<const std::uint32_t> active,
                        float* SNNFI_RESTRICT out, std::size_t n) {
    const std::size_t n_active = active.size();
    std::size_t a = 0;
    for (; a + 4 <= n_active; a += 4) {
        const float* SNNFI_RESTRICT r0 = row_at(active[a]);
        const float* SNNFI_RESTRICT r1 = row_at(active[a + 1]);
        const float* SNNFI_RESTRICT r2 = row_at(active[a + 2]);
        const float* SNNFI_RESTRICT r3 = row_at(active[a + 3]);
        for (std::size_t j = 0; j < n; ++j)
            out[j] = (((out[j] + r0[j]) + r1[j]) + r2[j]) + r3[j];
    }
    if (a + 2 <= n_active) {
        const float* SNNFI_RESTRICT r0 = row_at(active[a]);
        const float* SNNFI_RESTRICT r1 = row_at(active[a + 1]);
        for (std::size_t j = 0; j < n; ++j)
            out[j] = (out[j] + r0[j]) + r1[j];
        a += 2;
    }
    if (a < n_active) {
        const float* SNNFI_RESTRICT r0 = row_at(active[a]);
        for (std::size_t j = 0; j < n; ++j) out[j] += r0[j];
    }
}

}  // namespace

void accumulate_rows(const float* const* rows,
                     std::span<const std::uint32_t> active, float* out,
                     std::size_t n) {
    accumulate_blocked([rows](std::uint32_t a) { return rows[a]; }, active, out,
                       n);
}

void accumulate_rows(const float* base, std::size_t stride,
                     std::span<const std::uint32_t> active, float* out,
                     std::size_t n) {
    accumulate_blocked([base, stride](std::uint32_t a) { return base + a * stride; },
                       active, out, n);
}

void accumulate_rows_reference(const float* const* rows,
                               std::span<const std::uint32_t> active,
                               float* out, std::size_t n) {
    for (const std::uint32_t a : active) {
        const float* row = rows[a];
        for (std::size_t j = 0; j < n; ++j) out[j] += row[j];
    }
}

std::size_t exc_fast_step(const ExcParams& p, const float* SNNFI_RESTRICT drive,
                          const std::uint8_t* SNNFI_RESTRICT inh_spiked,
                          std::size_t inh_total, float* SNNFI_RESTRICT v,
                          std::int32_t* SNNFI_RESTRICT refrac,
                          float* SNNFI_RESTRICT theta,
                          std::uint8_t* SNNFI_RESTRICT spiked, std::size_t n) {
    // Straight-line body: any `if` inside the loop defeats vectorization
    // (GCC reports "control flow in loop"), so the two inactive cases are
    // folded into arithmetic identities instead of branches. `x *= 1.0f`
    // is bitwise a no-op, and with inh_total == 0 every inh_spiked[i] is
    // 0, so the inhibition term contributes w_inh * 0.0f = +/-0.0 — an
    // additive identity here (vi sits near v_rest, never at zero, so even
    // the sign-of-zero corner cannot reach the stored state).
    //
    // Every p.* field is copied to a local before the loop: a field read
    // that only feeds one arm of a select gets sunk into a conditional
    // block, and if-conversion then refuses to hoist the "could trap"
    // memory access — which silently de-vectorizes the whole loop.
    const float gain = p.gain_active ? p.driver_gain : 1.0f;
    const float inh_total_f = static_cast<float>(inh_total);
    const float w_inh = p.w_inh;
    const float v_rest = p.v_rest;
    const float v_reset = p.v_reset;
    const float decay = p.decay;
    const float thresh_base = p.thresh_base;
    const float theta_decay = p.theta_decay;
    const float theta_plus = p.theta_plus;
    const std::int32_t refrac_steps = p.refrac_steps;
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        float x = drive[i];
        x *= gain;
        x += w_inh * (inh_total_f - static_cast<float>(inh_spiked[i]));
        const float th = theta[i] * theta_decay;
        const float th_plus = th + theta_plus;
        const std::int32_t rc = refrac[i];
        const int in_refrac = rc > 0;
        float vi = v_rest + decay * (v[i] - v_rest);
        vi += x;
        const int spike =
            static_cast<int>(vi >= thresh_base + th) & (1 - in_refrac);
        v[i] = (in_refrac | spike) ? v_reset : vi;
        // Not spiking: a refractory neuron counts down, an idle one holds
        // at 0 (rc - 1 would be -1; the max folds both into one select).
        const std::int32_t rc_down = rc > 1 ? rc - 1 : 0;
        refrac[i] = spike ? refrac_steps : rc_down;
        theta[i] = spike ? th_plus : th;
        spiked[i] = static_cast<std::uint8_t>(spike);
        count += static_cast<std::size_t>(spike);
    }
    return count;
}

std::size_t inh_fast_step(const InhParams& p,
                          const std::uint8_t* SNNFI_RESTRICT exc_spiked,
                          float* SNNFI_RESTRICT v,
                          std::int32_t* SNNFI_RESTRICT refrac,
                          std::uint8_t* SNNFI_RESTRICT spiked, std::size_t n) {
    const float w_exc = p.w_exc;
    const float v_rest = p.v_rest;
    const float v_reset = p.v_reset;
    const float decay = p.decay;
    const float thresh_base = p.thresh_base;
    const std::int32_t refrac_steps = p.refrac_steps;
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const float x = exc_spiked[i] ? w_exc : 0.0f;
        const std::int32_t rc = refrac[i];
        const int in_refrac = rc > 0;
        float vi = v_rest + decay * (v[i] - v_rest);
        vi += x;
        const int spike =
            static_cast<int>(vi >= thresh_base) & (1 - in_refrac);
        v[i] = (in_refrac | spike) ? v_reset : vi;
        const std::int32_t rc_down = rc > 1 ? rc - 1 : 0;
        refrac[i] = spike ? refrac_steps : rc_down;
        spiked[i] = static_cast<std::uint8_t>(spike);
        count += static_cast<std::size_t>(spike);
    }
    return count;
}

void add_counts(std::uint32_t* counts, const std::uint8_t* spiked,
                std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) counts[i] += spiked[i];
}

void stdp_learn(const LearnParams& p, float* SNNFI_RESTRICT w,
                std::size_t stride, std::size_t n_pre, std::size_t n_post,
                std::span<const std::uint32_t> active_pre,
                const std::uint8_t* SNNFI_RESTRICT post_spiked,
                float* SNNFI_RESTRICT trace_pre,
                float* SNNFI_RESTRICT trace_post,
                std::uint32_t* SNNFI_RESTRICT post_list) {
    const float decay = p.trace_decay;
    const float nu_pre = p.nu_pre;
    const float nu_post = p.nu_post;
    const float wmin = p.wmin;
    const float wmax = p.wmax;
    for (std::size_t i = 0; i < n_pre; ++i) trace_pre[i] *= decay;
    for (std::size_t j = 0; j < n_post; ++j) trace_post[j] *= decay;

    // Pre-synaptic events: depression proportional to the post trace.
    for (const std::uint32_t pre : active_pre) {
        float* SNNFI_RESTRICT row = w + pre * stride;
        for (std::size_t j = 0; j < n_post; ++j) {
            const float x = row[j] - nu_pre * trace_post[j];
            row[j] = wmin < x ? x : wmin;
        }
        trace_pre[pre] = 1.0f;
    }

    // Post-synaptic events: potentiation proportional to the pre trace,
    // one row pass over the k spiking columns. Most steps have none, and
    // an OR-reduction finds that faster than the gather.
    unsigned any = 0;
    for (std::size_t j = 0; j < n_post; ++j) any |= post_spiked[j];
    if (any == 0) return;
    std::size_t k = 0;
    for (std::size_t j = 0; j < n_post; ++j) {
        post_list[k] = static_cast<std::uint32_t>(j);
        k += post_spiked[j] != 0;
    }
    for (std::size_t i = 0; i < n_pre; ++i) {
        float* SNNFI_RESTRICT row = w + i * stride;
        const float d = nu_post * trace_pre[i];
        for (std::size_t s = 0; s < k; ++s) {
            const float x = row[post_list[s]] + d;
            row[post_list[s]] = x < wmax ? x : wmax;
        }
    }
    for (std::size_t s = 0; s < k; ++s) trace_post[post_list[s]] = 1.0f;
}

void normalize_columns(float* SNNFI_RESTRICT w, std::size_t stride,
                       std::size_t rows, std::size_t n, float norm_total,
                       float* SNNFI_RESTRICT sums,
                       float* SNNFI_RESTRICT factors) {
    for (std::size_t j = 0; j < n; ++j) sums[j] = 0.0f;
    for (std::size_t r = 0; r < rows; ++r) {
        const float* SNNFI_RESTRICT row = w + r * stride;
        for (std::size_t j = 0; j < n; ++j) sums[j] += row[j];
    }
    for (std::size_t j = 0; j < n; ++j) factors[j] = norm_total / sums[j];
    for (std::size_t r = 0; r < rows; ++r) {
        float* SNNFI_RESTRICT row = w + r * stride;
        for (std::size_t j = 0; j < n; ++j)
            row[j] = sums[j] > 0.0f ? row[j] * factors[j] : row[j];
    }
}

}  // namespace snnfi::snn::kernels
