// Kernel-layer equivalence: the blocked/predicated hot-path kernels must
// be BIT-identical to their naive scalar references — across shapes that
// exercise every unroll tail and padding edge, across fault
// configurations, and end-to-end through NetworkRuntime/BatchRunner
// (fast path vs scalar path, merge-join vs binary-search adopt_drive).
// Plus the steady-state no-allocation guarantee of the sample loop,
// inference and STDP training alike.
#include "snn/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <vector>

#include "snn/connection.hpp"
#include "snn/runtime.hpp"
#include "snn/tensor.hpp"
#include "util/random.hpp"

namespace {

// --- allocation counting (used by the steady-state test) -----------------
// Replacing global operator new in the test binary counts every heap
// allocation made by the code under test. Counting is always on; the test
// reads the counter around the hot loop.
std::atomic<std::uint64_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(size ? size : 1)) return p;
    throw std::bad_alloc();
}

void* operator new(std::size_t size, std::align_val_t align) {
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                     (size + static_cast<std::size_t>(align) - 1) /
                                         static_cast<std::size_t>(align) *
                                         static_cast<std::size_t>(align)))
        return p;
    throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
    std::free(p);
}

namespace snnfi::snn {

/// White-box access to NetworkRuntime internals for the adopt_drive and
/// drive-aliasing checks (friend of NetworkRuntime).
struct RuntimeTestPeer {
    static void adopt_drive(NetworkRuntime& runtime, std::span<const float> base,
                            std::span<const std::uint32_t> active) {
        runtime.adopt_drive(base, active);
    }
    static const float* drive(const NetworkRuntime& runtime) {
        return runtime.drive_;
    }
    /// Pins the runtime to the full scalar fault-aware loop, bypassing
    /// both the fast kernel and the hybrid patch redo — the reference
    /// semantics the other paths must reproduce bit for bit.
    static void force_scalar(NetworkRuntime& runtime) {
        runtime.force_scalar_ = true;
    }
    static std::size_t exc_patch_size(const NetworkRuntime& runtime) {
        return runtime.exc_patch_.size();
    }
    static std::size_t inh_patch_size(const NetworkRuntime& runtime) {
        return runtime.inh_patch_.size();
    }
    static std::vector<std::tuple<std::uint32_t, std::uint32_t, float>> deltas(
        const NetworkRuntime& runtime) {
        std::vector<std::tuple<std::uint32_t, std::uint32_t, float>> out;
        for (const auto& cell : runtime.cell_deltas_)
            out.emplace_back(cell.pre, cell.post, cell.delta);
        return out;
    }
};

namespace {

namespace kernels = snn::kernels;

DiehlCookConfig tiny_config() {
    DiehlCookConfig cfg;
    cfg.n_neurons = 24;
    cfg.steps_per_sample = 120;
    return cfg;
}

std::vector<float> random_image(util::Rng& rng, std::size_t n) {
    std::vector<float> image(n);
    for (float& x : image) x = static_cast<float>(rng.uniform());
    return image;
}

bool same_bits(std::span<const float> a, std::span<const float> b) {
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

// --- drive accumulation ---------------------------------------------------

TEST(Kernels, PaddedSizeRoundsUpToStride) {
    EXPECT_EQ(kernels::padded_size(0), 0u);
    EXPECT_EQ(kernels::padded_size(1), kernels::kPadFloats);
    EXPECT_EQ(kernels::padded_size(16), 16u);
    EXPECT_EQ(kernels::padded_size(17), 32u);
    EXPECT_EQ(kernels::padded_size(100), 112u);
}

/// Construction, fill() and the in-place STDP kernels (learn +
/// normalize) never write a padding lane. wmin > 0 would lift a padding
/// lane off zero if depression ran over the padded width.
TEST(Kernels, MatrixPaddingLanesStayZero) {
    Matrix m(3, 13, 0.5f);
    m.fill(2.0f);
    StdpParams params;
    params.wmin = 0.1f;
    DenseConnection conn(std::move(m), params, /*norm_total=*/4.0f);
    const std::vector<std::uint32_t> all_pre = {0, 1, 2};
    const std::vector<std::uint8_t> all_post(13, 1);
    for (std::size_t step = 0; step < 3; ++step) {
        conn.learn(all_pre, all_post);
        conn.normalize();
    }
    const Matrix& w = conn.weights();
    for (std::size_t r = 0; r < w.rows(); ++r) {
        const auto padded = w.padded_row(r);
        for (std::size_t j = w.cols(); j < padded.size(); ++j)
            EXPECT_EQ(padded[j], 0.0f) << "row " << r << " lane " << j;
    }
}

/// Blocked accumulation must be bit-identical to the one-row-at-a-time
/// reference for every unroll tail (active sizes 0..9) and for logical
/// widths off the SIMD/padding grid.
TEST(Kernels, BlockedAccumulationBitIdenticalToReference) {
    util::Rng rng(41);
    const std::size_t n_pre = 37;
    for (const std::size_t n : {1u, 3u, 13u, 16u, 17u, 33u, 48u, 100u}) {
        Matrix weights(n_pre, n);
        for (std::size_t r = 0; r < n_pre; ++r) {
            for (float& w : weights.row(r))
                w = static_cast<float>(rng.uniform(-1.0, 1.0));
        }
        std::vector<const float*> rows(n_pre);
        for (std::size_t r = 0; r < n_pre; ++r)
            rows[r] = weights.padded_row(r).data();
        const std::size_t padded = kernels::padded_size(n);
        for (std::size_t n_active = 0; n_active <= 9; ++n_active) {
            std::vector<std::uint32_t> active;
            for (std::uint32_t r = 0; r < n_pre; ++r) {
                if (rng.uniform() < static_cast<double>(n_active) / n_pre)
                    active.push_back(r);
            }
            AlignedVector blocked(padded, 0.25f);
            AlignedVector strided(padded, 0.25f);
            std::vector<float> reference(n, 0.25f);
            kernels::accumulate_rows(rows.data(), active, blocked.data(), padded);
            kernels::accumulate_rows(weights.data(), weights.stride(), active,
                                     strided.data(), padded);
            kernels::accumulate_rows_reference(rows.data(), active,
                                               reference.data(), n);
            ASSERT_TRUE(same_bits({blocked.data(), n}, reference))
                << "rows form, n=" << n << " active=" << active.size();
            ASSERT_TRUE(same_bits({strided.data(), n}, reference))
                << "strided form, n=" << n << " active=" << active.size();
        }
    }
}

// --- neuron update: fast path vs scalar transliteration -------------------

struct ExcState {
    std::vector<float> v, theta;
    std::vector<std::int32_t> refrac;
    std::vector<std::uint8_t> spiked;
};

/// Straight transliteration of the scalar excitatory loop in
/// NetworkRuntime::advance_step with all per-neuron fault values at
/// identity — the semantics the fast kernel must reproduce bit-for-bit.
std::size_t exc_reference_step(const kernels::ExcParams& p, const float* drive,
                               const std::uint8_t* inh_spiked,
                               std::size_t inh_total, ExcState& st) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < st.v.size(); ++i) {
        float x = drive[i];
        if (p.gain_active) x *= p.driver_gain;
        if (inh_total > 0) {
            x += p.w_inh * (static_cast<float>(inh_total) -
                            static_cast<float>(inh_spiked[i]));
        }
        st.theta[i] *= p.theta_decay;
        std::uint8_t spike = 0;
        if (st.refrac[i] > 0) {
            --st.refrac[i];
            st.v[i] = p.v_reset;
        } else {
            float v = p.v_rest + p.decay * (st.v[i] - p.v_rest);
            v += 1.0f * x;  // identity input gain, like the scalar path
            const float threshold = p.thresh_base + st.theta[i];
            if (v >= threshold) {
                spike = 1;
                v = p.v_reset;
                st.refrac[i] = p.refrac_steps;
                st.theta[i] += p.theta_plus;
            }
            st.v[i] = v;
        }
        st.spiked[i] = spike;
        count += spike;
    }
    return count;
}

TEST(Kernels, ExcFastStepBitIdenticalToScalarReference) {
    util::Rng rng(97);
    for (const bool gain_active : {false, true}) {
        for (const std::size_t n : {5u, 16u, 24u, 33u}) {
            kernels::ExcParams p;
            p.v_rest = -65.0f;
            p.v_reset = -60.0f;
            p.decay = 0.99f;
            p.thresh_base = p.v_rest + (-52.0f - p.v_rest);
            p.theta_decay = 0.999999f;
            p.theta_plus = 0.05f;
            p.refrac_steps = 5;
            p.driver_gain = gain_active ? 0.7f : 1.0f;
            p.gain_active = gain_active;
            p.w_inh = -17.5f;
            ExcState fast{std::vector<float>(n, p.v_rest),
                          std::vector<float>(n, 0.0f),
                          std::vector<std::int32_t>(n, 0),
                          std::vector<std::uint8_t>(n, 0)};
            ExcState ref = fast;
            std::vector<std::uint8_t> inh_spiked(n, 0);
            std::vector<float> drive(n, 0.0f);
            for (std::size_t step = 0; step < 200; ++step) {
                for (float& d : drive)
                    d = static_cast<float>(rng.uniform(0.0, 30.0));
                std::size_t inh_total = 0;
                for (auto& s : inh_spiked) {
                    s = rng.uniform() < 0.2 ? 1 : 0;
                    inh_total += s;
                }
                const std::size_t fast_count = kernels::exc_fast_step(
                    p, drive.data(), inh_spiked.data(), inh_total,
                    fast.v.data(), fast.refrac.data(), fast.theta.data(),
                    fast.spiked.data(), n);
                const std::size_t ref_count = exc_reference_step(
                    p, drive.data(), inh_spiked.data(), inh_total, ref);
                ASSERT_EQ(fast_count, ref_count) << "step " << step;
                ASSERT_TRUE(same_bits(fast.v, ref.v)) << "step " << step;
                ASSERT_TRUE(same_bits(fast.theta, ref.theta)) << "step " << step;
                ASSERT_EQ(fast.refrac, ref.refrac) << "step " << step;
                ASSERT_EQ(fast.spiked, ref.spiked) << "step " << step;
            }
        }
    }
}

TEST(Kernels, InhFastStepBitIdenticalToScalarReference) {
    util::Rng rng(131);
    const std::size_t n = 24;
    kernels::InhParams p;
    p.v_rest = -60.0f;
    p.v_reset = -45.0f;
    p.decay = 0.9f;
    p.thresh_base = p.v_rest + (-40.0f - p.v_rest);
    p.refrac_steps = 2;
    p.w_exc = 22.5f;
    std::vector<float> v_fast(n, p.v_rest), v_ref(n, p.v_rest);
    std::vector<std::int32_t> r_fast(n, 0), r_ref(n, 0);
    std::vector<std::uint8_t> s_fast(n, 0), s_ref(n, 0), exc_spiked(n, 0);
    for (std::size_t step = 0; step < 200; ++step) {
        for (auto& s : exc_spiked) s = rng.uniform() < 0.3 ? 1 : 0;
        const std::size_t fast_count = kernels::inh_fast_step(
            p, exc_spiked.data(), v_fast.data(), r_fast.data(), s_fast.data(), n);
        // Scalar reference: the fault-aware loop at identity fault state.
        std::size_t ref_count = 0;
        for (std::size_t i = 0; i < n; ++i) {
            const float x = exc_spiked[i] ? p.w_exc : 0.0f;
            std::uint8_t spike = 0;
            if (r_ref[i] > 0) {
                --r_ref[i];
                v_ref[i] = p.v_reset;
            } else {
                float vi = p.v_rest + p.decay * (v_ref[i] - p.v_rest);
                vi += 1.0f * x;
                if (vi >= p.thresh_base) {
                    spike = 1;
                    vi = p.v_reset;
                    r_ref[i] = p.refrac_steps;
                }
                v_ref[i] = vi;
            }
            s_ref[i] = spike;
            ref_count += spike;
        }
        ASSERT_EQ(fast_count, ref_count) << "step " << step;
        ASSERT_TRUE(same_bits(v_fast, v_ref)) << "step " << step;
        ASSERT_EQ(r_fast, r_ref) << "step " << step;
        ASSERT_EQ(s_fast, s_ref) << "step " << step;
    }
}

// --- end-to-end: fast path vs scalar path through the runtime -------------

/// A numerically-identity neuron op (gain 1.0) drops the runtime to the
/// scalar fault-aware path without changing semantics; a clean runtime
/// takes the fast path. Same seed, same images: every observable must be
/// bit-identical.
TEST(Kernels, RuntimeFastAndScalarPathsBitIdentical) {
    const auto model = NetworkModel::random(tiny_config(), 21);
    NetworkRuntime fast(model);
    FaultOverlay identity;
    const std::size_t targets[] = {0};
    identity.scale_input_gain(OverlayLayer::kExcitatory, targets, 1.0f);
    identity.scale_input_gain(OverlayLayer::kInhibitory, targets, 1.0f);
    NetworkRuntime scalar(model, identity);
    RuntimeTestPeer::force_scalar(scalar);
    EXPECT_TRUE(fast.fast_path_active());
    EXPECT_FALSE(scalar.fast_path_active());

    fast.rng().reseed(7);
    scalar.rng().reseed(7);
    util::Rng image_rng(55);
    for (std::size_t sample = 0; sample < 4; ++sample) {
        const auto image = random_image(image_rng, model->config().n_input);
        const SampleActivity a = fast.run_sample(image);
        const SampleActivity b = scalar.run_sample(image);
        ASSERT_EQ(a.exc_counts, b.exc_counts) << "sample " << sample;
        ASSERT_EQ(a.total_exc_spikes, b.total_exc_spikes) << "sample " << sample;
        ASSERT_EQ(a.total_inh_spikes, b.total_inh_spikes) << "sample " << sample;
        ASSERT_TRUE(same_bits(fast.exc_theta(), scalar.exc_theta()))
            << "sample " << sample;
    }
}

/// Property: a runtime carrying real per-neuron faults (forced states,
/// gains, threshold scale, refractory override) takes the hybrid path —
/// vector kernel plus an exact scalar redo of the overridden neurons —
/// and must match the full scalar fault-aware loop bit for bit.
TEST(Kernels, HybridPatchPathBitIdenticalToScalarLoop) {
    const auto model = NetworkModel::random(tiny_config(), 29);
    FaultOverlay faults;
    const std::size_t dead[] = {1};
    const std::size_t saturated[] = {4};
    const std::size_t gained[] = {2};
    const std::size_t scaled[] = {0};
    const std::size_t refrac[] = {3};
    faults.force_state(OverlayLayer::kExcitatory, dead, NeuronFault::kDead);
    faults.force_state(OverlayLayer::kExcitatory, saturated,
                       NeuronFault::kSaturated);
    faults.scale_input_gain(OverlayLayer::kExcitatory, gained, 0.5f);
    faults.scale_driver_gain(gained, 0.25f);
    faults.scale_threshold(OverlayLayer::kInhibitory, scaled, 1.3f);
    faults.override_refractory(OverlayLayer::kInhibitory, refrac, 9.0f);

    NetworkRuntime hybrid(model, faults);
    NetworkRuntime scalar(model, faults);
    RuntimeTestPeer::force_scalar(scalar);
    EXPECT_FALSE(hybrid.fast_path_active());
    // Patch lists small enough for the hybrid (<= n/8 of 24 per layer).
    EXPECT_EQ(RuntimeTestPeer::exc_patch_size(hybrid), 3u);
    EXPECT_EQ(RuntimeTestPeer::inh_patch_size(hybrid), 2u);

    hybrid.rng().reseed(17);
    scalar.rng().reseed(17);
    util::Rng image_rng(63);
    for (std::size_t sample = 0; sample < 4; ++sample) {
        const auto image = random_image(image_rng, model->config().n_input);
        const SampleActivity a = hybrid.run_sample(image);
        const SampleActivity b = scalar.run_sample(image);
        ASSERT_EQ(a.exc_counts, b.exc_counts) << "sample " << sample;
        ASSERT_EQ(a.total_exc_spikes, b.total_exc_spikes) << "sample " << sample;
        ASSERT_EQ(a.total_inh_spikes, b.total_inh_spikes) << "sample " << sample;
        ASSERT_TRUE(same_bits(hybrid.exc_theta(), scalar.exc_theta()))
            << "sample " << sample;
    }
}

/// Same check through the BatchRunner: a clean member (aliases the shared
/// base drive, fast kernels) against an identity-op member (pinned to the
/// scalar loop) in ONE batch over one shared Poisson stream.
TEST(Kernels, BatchMembersFastAndScalarPathsBitIdentical) {
    const auto model = NetworkModel::random(tiny_config(), 23);
    NetworkRuntime clean(model);
    FaultOverlay identity;
    const std::size_t targets[] = {1, 3};
    identity.scale_input_gain(OverlayLayer::kExcitatory, targets, 1.0f);
    NetworkRuntime scalar(model, identity);
    RuntimeTestPeer::force_scalar(scalar);
    BatchRunner batch(*model, {&clean, &scalar});
    util::Rng rng(91);
    util::Rng image_rng(92);
    std::vector<SampleActivity> activities(batch.size());
    for (std::size_t sample = 0; sample < 4; ++sample) {
        const auto image = random_image(image_rng, model->config().n_input);
        batch.run_sample_into(image, rng, activities);
        ASSERT_EQ(activities[0].exc_counts, activities[1].exc_counts);
        ASSERT_EQ(activities[0].total_exc_spikes, activities[1].total_exc_spikes);
        ASSERT_EQ(activities[0].total_inh_spikes, activities[1].total_inh_spikes);
    }
}

// --- adopt_drive: aliasing + merge-join ------------------------------------

TEST(Kernels, AdoptDriveAliasesSharedBaseWhenNoDeltas) {
    const auto model = NetworkModel::random(tiny_config(), 3);
    NetworkRuntime runtime(model);
    const std::size_t padded = kernels::padded_size(model->n_neurons());
    AlignedVector base(padded, 1.5f);
    const std::vector<std::uint32_t> active = {0, 5};
    RuntimeTestPeer::adopt_drive(runtime, {base.data(), base.size()}, active);
    EXPECT_EQ(RuntimeTestPeer::drive(runtime), base.data())
        << "clean runtime must alias the shared buffer, not copy it";
}

/// Many-delta overlay (several deltas per row, rows out of order): the
/// merge-join must reproduce the old per-delta binary_search drive
/// bit-for-bit, and the delta table must come out sorted by (pre, post).
TEST(Kernels, AdoptDriveMergeJoinMatchesBinarySearchReference) {
    const auto model = NetworkModel::random(tiny_config(), 5);
    const std::size_t n = model->n_neurons();
    FaultOverlay overlay;
    util::Rng rng(17);
    // Insertion order deliberately scrambled; duplicate (pre, post) hits
    // collapse to one delta (last op wins, matching first-touch order).
    for (const std::uint32_t pre : {40u, 3u, 770u, 3u, 128u, 40u, 501u}) {
        for (std::size_t k = 0; k < 5; ++k) {
            overlay.set_weight(pre, (pre + 7 * k) % n,
                               static_cast<float>(rng.uniform(-0.5, 0.5)));
        }
    }
    NetworkRuntime runtime(model, overlay);
    const auto deltas = RuntimeTestPeer::deltas(runtime);
    ASSERT_FALSE(deltas.empty());
    ASSERT_TRUE(std::is_sorted(deltas.begin(), deltas.end(),
                               [](const auto& a, const auto& b) {
                                   return std::get<0>(a) != std::get<0>(b)
                                              ? std::get<0>(a) < std::get<0>(b)
                                              : std::get<1>(a) < std::get<1>(b);
                               }));

    const std::size_t padded = kernels::padded_size(n);
    util::Rng drive_rng(19);
    for (std::size_t trial = 0; trial < 20; ++trial) {
        AlignedVector base(padded, 0.0f);
        for (std::size_t j = 0; j < n; ++j)
            base[j] = static_cast<float>(drive_rng.uniform(0.0, 5.0));
        std::vector<std::uint32_t> active;
        for (std::uint32_t pre = 0; pre < model->n_input(); ++pre) {
            if (drive_rng.uniform() < 0.1) active.push_back(pre);
        }
        // Reference: the pre-merge-join implementation.
        std::vector<float> expected(base.begin(), base.begin() +
                                                      static_cast<long>(n));
        for (const auto& [pre, post, delta] : deltas) {
            if (std::binary_search(active.begin(), active.end(), pre))
                expected[post] += delta;
        }
        RuntimeTestPeer::adopt_drive(runtime, {base.data(), base.size()}, active);
        ASSERT_TRUE(same_bits({RuntimeTestPeer::drive(runtime), n}, expected))
            << "trial " << trial;
    }
}

// --- steady-state allocation freedom ---------------------------------------

TEST(Kernels, SampleLoopIsAllocationFreeAtSteadyState) {
    const auto model = NetworkModel::random(tiny_config(), 29);
    NetworkRuntime standalone(model);
    FaultOverlay patched;
    patched.set_weight(10, 2, 0.9f).set_weight(300, 5, 0.1f);
    NetworkRuntime member_clean(model);
    NetworkRuntime member_patched(model, patched);
    BatchRunner batch(*model, {&member_clean, &member_patched});
    // STDP training: learn's post-list buffer and normalize's column
    // scratch are sized once, at set_learning.
    NetworkRuntime learner(model);
    learner.set_learning(true);

    util::Rng image_rng(31);
    const auto image_a = random_image(image_rng, model->config().n_input);
    const auto image_b = random_image(image_rng, model->config().n_input);
    SampleActivity activity;
    std::vector<SampleActivity> activities(batch.size());
    util::Rng batch_rng(33);
    // Warm-up: sizes the activity records and the reserved worklists.
    standalone.run_sample_into(image_a, activity);
    batch.run_sample_into(image_a, batch_rng, activities);
    learner.run_sample_into(image_a, activity);

    const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
    for (std::size_t rep = 0; rep < 3; ++rep) {
        standalone.run_sample_into(image_a, activity);
        standalone.run_sample_into(image_b, activity);
        batch.run_sample_into(image_a, batch_rng, activities);
        batch.run_sample_into(image_b, batch_rng, activities);
        learner.run_sample_into(image_a, activity);
        learner.run_sample_into(image_b, activity);
    }
    const std::uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(after, before)
        << "the sample loop allocated " << (after - before)
        << " time(s) at steady state";
}

}  // namespace
}  // namespace snnfi::snn
