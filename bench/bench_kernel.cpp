// Micro-benchmark of the snn::kernels hot-loop layer in isolation:
// sparse blocked drive accumulation vs the naive one-row-at-a-time
// reference, the branch-free fast-path neuron update vs the scalar
// fault-aware loop it replaces, and the row-major STDP learn/normalize
// kernels (through DenseConnection) vs the column-walk reference in
// tests/snn/stdp_reference.hpp.
//
//   $ ./bench_kernel [--quick] [--neurons=100] [--inputs=784]
//                    [--active-fraction=0.1] [--out=BENCH_kernel.json]
//
// Every comparison is checked for bit-identity before timing is
// reported — a speedup over a kernel that computes something different
// would be meaningless. Emits BENCH_kernel.json with the dimensionless
// `drive_speedup` / `update_speedup` / `learn_speedup` /
// `normalize_speedup` ratios (gated by tools/bench_compare against
// bench/baselines/BENCH_kernel.json) plus absolute rates for context.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <vector>

#include "../tests/snn/stdp_reference.hpp"
#include "snn/connection.hpp"
#include "snn/kernels.hpp"
#include "snn/tensor.hpp"
#include "util/cli.hpp"
#include "util/random.hpp"
#include "util/table.hpp"

namespace {

using namespace snnfi;
namespace kernels = snn::kernels;

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

/// The pre-kernel scalar neuron update: per-element fault-state reads and
/// branches with all fault values at identity — exactly the loop the fast
/// path replaces in NetworkRuntime::advance_step, so fast-vs-scalar here
/// measures (and verifies) the real production dispatch.
struct ScalarExcState {
    std::vector<float> thresh_scale;
    std::vector<float> input_gain;
    std::vector<float> drive_gain;
    std::vector<std::uint8_t> forced;
    std::vector<std::int32_t> refrac_override;

    explicit ScalarExcState(std::size_t n)
        : thresh_scale(n, 1.0f), input_gain(n, 1.0f), drive_gain(n, 1.0f),
          forced(n, 0), refrac_override(n, -1) {}
};

std::size_t scalar_exc_step(const kernels::ExcParams& p,
                            const ScalarExcState& st, const float* drive,
                            const std::uint8_t* inh_spiked,
                            std::size_t inh_total, float* v,
                            std::int32_t* refrac, float* theta,
                            std::uint8_t* spiked, std::size_t n) {
    std::size_t count = 0;
    for (std::size_t i = 0; i < n; ++i) {
        float x = drive[i];
        if (p.gain_active) x *= p.driver_gain;
        x *= st.drive_gain[i];
        if (inh_total > 0) {
            x += p.w_inh * (static_cast<float>(inh_total) -
                            static_cast<float>(inh_spiked[i]));
        }
        theta[i] *= p.theta_decay;
        std::uint8_t spike = 0;
        if (st.forced[i] == 1 || st.forced[i] == 2) {
            // never taken here; keeps the branch structure of the real loop
            v[i] = p.v_rest;
        } else if (refrac[i] > 0) {
            --refrac[i];
            v[i] = p.v_reset;
        } else {
            float vi = p.v_rest + p.decay * (v[i] - p.v_rest);
            vi += st.input_gain[i] * x;
            const float threshold =
                p.v_rest + (p.thresh_base - p.v_rest) * st.thresh_scale[i] +
                theta[i];
            if (vi >= threshold) {
                spike = 1;
                vi = p.v_reset;
                refrac[i] = st.refrac_override[i] >= 0 ? st.refrac_override[i]
                                                       : p.refrac_steps;
                theta[i] += p.theta_plus;
            }
            v[i] = vi;
        }
        spiked[i] = spike;
        count += spike;
    }
    return count;
}

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser parser("snn kernel micro-benchmark (drive + neuron update)");
    parser.add_flag("quick", "Fewer repetitions for CI smoke runs");
    parser.add_option("inputs", "784", "Presynaptic rows (input pixels)");
    parser.add_option("neurons", "100", "Postsynaptic columns (EL neurons)");
    parser.add_option("active-fraction", "0.1", "Mean fraction of rows firing per step");
    parser.add_option("steps", "250", "Distinct per-step active sets");
    parser.add_option("reps", "0", "Timed repetitions, min taken (0 = default)");
    parser.add_option("out", "BENCH_kernel.json", "JSON output path");
    try {
        if (!parser.parse(argc, argv)) return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n" << parser.usage();
        return 2;
    }
    const bool quick = parser.get_bool("quick");
    const std::size_t n_pre = static_cast<std::size_t>(parser.get_int("inputs"));
    const std::size_t n = static_cast<std::size_t>(parser.get_int("neurons"));
    const double fraction = parser.get_double("active-fraction");
    const std::size_t steps = static_cast<std::size_t>(parser.get_int("steps"));
    std::size_t reps = static_cast<std::size_t>(parser.get_int("reps"));
    if (reps == 0) reps = quick ? 5 : 9;
    const std::size_t passes = quick ? 40 : 200;  ///< step-sweeps per rep

    // --- workload: padded weights + per-step ascending active sets -------
    util::Rng rng(0xBE7C);
    snn::Matrix weights(n_pre, n);
    for (std::size_t r = 0; r < n_pre; ++r) {
        for (float& w : weights.row(r))
            w = static_cast<float>(rng.uniform()) * 0.3f;
    }
    std::vector<const float*> rows(n_pre);
    for (std::size_t r = 0; r < n_pre; ++r)
        rows[r] = weights.padded_row(r).data();
    std::vector<std::vector<std::uint32_t>> active(steps);
    for (auto& set : active) {
        for (std::uint32_t r = 0; r < n_pre; ++r) {
            if (rng.uniform() < fraction) set.push_back(r);
        }
    }
    std::size_t total_rows = 0;
    for (const auto& set : active) total_rows += set.size();

    // --- drive accumulation: blocked vs naive reference ------------------
    const std::size_t padded = kernels::padded_size(n);
    snn::AlignedVector out_blocked(padded, 0.0f);
    snn::AlignedVector out_naive(padded, 0.0f);
    const auto sweep_blocked = [&] {
        for (const auto& set : active) {
            std::fill(out_blocked.begin(), out_blocked.end(), 0.0f);
            kernels::accumulate_rows(rows.data(), set, out_blocked.data(), padded);
        }
    };
    const auto sweep_naive = [&] {
        for (const auto& set : active) {
            std::fill(out_naive.begin(), out_naive.end(), 0.0f);
            kernels::accumulate_rows_reference(rows.data(), set,
                                               out_naive.data(), n);
        }
    };
    // Equivalence first (summation order is identical by construction).
    sweep_blocked();
    sweep_naive();
    if (std::memcmp(out_blocked.data(), out_naive.data(), n * sizeof(float)) != 0) {
        std::cerr << "error: blocked drive accumulation diverges from the "
                     "naive reference — nothing to benchmark\n";
        return 1;
    }
    double blocked_s = 1e300;
    double naive_s = 1e300;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        auto start = std::chrono::steady_clock::now();
        for (std::size_t p = 0; p < passes; ++p) sweep_blocked();
        blocked_s = std::min(blocked_s, seconds_since(start));
        start = std::chrono::steady_clock::now();
        for (std::size_t p = 0; p < passes; ++p) sweep_naive();
        naive_s = std::min(naive_s, seconds_since(start));
    }
    const double rows_per_s =
        static_cast<double>(total_rows * passes) / blocked_s;
    const double drive_speedup = blocked_s > 0.0 ? naive_s / blocked_s : 0.0;

    // --- neuron update: branch-free fast path vs scalar loop -------------
    kernels::ExcParams p;
    p.v_rest = -65.0f;
    p.v_reset = -60.0f;
    p.decay = std::exp(-1.0f / 100.0f);
    p.thresh_base = p.v_rest + (-52.0f - p.v_rest);
    p.theta_decay = std::exp(-1.0f / 1e7f);
    p.theta_plus = 0.05f;
    p.refrac_steps = 5;
    p.driver_gain = 1.0f;
    p.gain_active = false;
    p.w_inh = -17.5f;
    ScalarExcState st(n);
    struct Neurons {
        std::vector<float> v, theta;
        std::vector<std::int32_t> refrac;
        std::vector<std::uint8_t> spiked, inh_spiked;
        std::size_t inh_total = 0;
        explicit Neurons(std::size_t n_, float v_rest)
            : v(n_, v_rest), theta(n_, 0.0f), refrac(n_, 0), spiked(n_, 0),
              inh_spiked(n_, 0) {}
    };
    // Drive sweeps reuse the per-step accumulated inputs so the update
    // kernel sees realistic spiking dynamics, not a constant input.
    snn::AlignedVector drive(padded, 0.0f);
    const auto sweep_update = [&](Neurons& neurons, const auto& step_fn) {
        for (const auto& set : active) {
            std::fill(drive.begin(), drive.end(), 0.0f);
            kernels::accumulate_rows(rows.data(), set, drive.data(), padded);
            const std::size_t spikes = step_fn(neurons);
            // Feed lateral inhibition back like the real network: the IL
            // layer mirrors EL spikes one step later.
            neurons.inh_total = spikes;
            neurons.inh_spiked.assign(neurons.spiked.begin(),
                                      neurons.spiked.end());
        }
    };
    const auto fast_fn = [&](Neurons& ne) {
        return kernels::exc_fast_step(p, drive.data(), ne.inh_spiked.data(),
                                      ne.inh_total, ne.v.data(),
                                      ne.refrac.data(), ne.theta.data(),
                                      ne.spiked.data(), n);
    };
    const auto scalar_fn = [&](Neurons& ne) {
        return scalar_exc_step(p, st, drive.data(), ne.inh_spiked.data(),
                               ne.inh_total, ne.v.data(), ne.refrac.data(),
                               ne.theta.data(), ne.spiked.data(), n);
    };
    // Equivalence first, over the full dynamic state.
    Neurons fast_state(n, p.v_rest);
    Neurons scalar_state(n, p.v_rest);
    sweep_update(fast_state, fast_fn);
    sweep_update(scalar_state, scalar_fn);
    if (std::memcmp(fast_state.v.data(), scalar_state.v.data(),
                    n * sizeof(float)) != 0 ||
        std::memcmp(fast_state.theta.data(), scalar_state.theta.data(),
                    n * sizeof(float)) != 0 ||
        fast_state.spiked != scalar_state.spiked ||
        fast_state.refrac != scalar_state.refrac) {
        std::cerr << "error: fast-path neuron update diverges from the "
                     "scalar reference — nothing to benchmark\n";
        return 1;
    }
    double fast_s = 1e300;
    double scalar_s = 1e300;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        auto start = std::chrono::steady_clock::now();
        for (std::size_t q = 0; q < passes; ++q) sweep_update(fast_state, fast_fn);
        fast_s = std::min(fast_s, seconds_since(start));
        start = std::chrono::steady_clock::now();
        for (std::size_t q = 0; q < passes; ++q)
            sweep_update(scalar_state, scalar_fn);
        scalar_s = std::min(scalar_s, seconds_since(start));
    }
    // Both timed loops include the same drive accumulation; subtracting
    // the measured drive cost isolates the update kernels.
    const double drive_cost_s = blocked_s / static_cast<double>(passes);
    const double fast_update_s =
        std::max(1e-12, fast_s / static_cast<double>(passes) - drive_cost_s);
    const double scalar_update_s =
        std::max(1e-12, scalar_s / static_cast<double>(passes) - drive_cost_s);
    const double update_speedup = scalar_update_s / fast_update_s;
    const double neuron_steps_per_s =
        static_cast<double>(n * steps) / fast_update_s;

    // --- STDP: row-major kernels vs column-walk reference ----------------
    // One post spike per step on average, as in Diehl&Cook training; the
    // weights start normalised like a trained layer's.
    std::vector<std::vector<std::uint8_t>> post_spiked(
        steps, std::vector<std::uint8_t>(n, 0));
    for (auto& spiked : post_spiked) {
        for (auto& s : spiked) s = rng.uniform() < 1.0 / static_cast<double>(n);
    }
    snn::StdpParams stdp;
    const float norm_total = 0.1f * static_cast<float>(n_pre);
    snn::reference::normalize(weights, norm_total);
    snn::DenseConnection conn(weights, stdp, norm_total);
    snn::reference::StdpState ref(weights);
    const float trace_decay = conn.trace_decay();
    const auto learn_kernel = [&] {
        for (std::size_t t = 0; t < steps; ++t) conn.learn(active[t], post_spiked[t]);
    };
    const auto learn_reference = [&] {
        for (std::size_t t = 0; t < steps; ++t)
            snn::reference::learn(ref, stdp, trace_decay, active[t], post_spiked[t]);
    };
    const auto same_stdp_state = [&] {
        const snn::Matrix& a = conn.weights();
        return std::memcmp(a.data(), ref.weights.data(),
                           a.rows() * a.stride() * sizeof(float)) == 0 &&
               std::memcmp(conn.trace_pre().data(), ref.trace_pre.data(),
                           n_pre * sizeof(float)) == 0 &&
               std::memcmp(conn.trace_post().data(), ref.trace_post.data(),
                           n * sizeof(float)) == 0;
    };
    learn_kernel();
    learn_reference();
    conn.normalize();
    snn::reference::normalize(ref.weights, norm_total);
    if (!same_stdp_state()) {
        std::cerr << "error: STDP kernels diverge from the column-walk "
                     "reference — nothing to benchmark\n";
        return 1;
    }
    // Both sides run the same sweeps from the same state, so they stay
    // bit-identical and do identical work rep after rep.
    const std::size_t norm_calls = quick ? 20 : 100;
    double learn_s = 1e300;
    double learn_ref_s = 1e300;
    double norm_s = 1e300;
    double norm_ref_s = 1e300;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        auto start = std::chrono::steady_clock::now();
        learn_kernel();
        learn_s = std::min(learn_s, seconds_since(start));
        start = std::chrono::steady_clock::now();
        learn_reference();
        learn_ref_s = std::min(learn_ref_s, seconds_since(start));
        start = std::chrono::steady_clock::now();
        for (std::size_t c = 0; c < norm_calls; ++c) conn.normalize();
        norm_s = std::min(norm_s, seconds_since(start));
        start = std::chrono::steady_clock::now();
        for (std::size_t c = 0; c < norm_calls; ++c)
            snn::reference::normalize(ref.weights, norm_total);
        norm_ref_s = std::min(norm_ref_s, seconds_since(start));
    }
    if (!same_stdp_state()) {
        std::cerr << "error: STDP kernels diverged from the column-walk "
                     "reference during timing\n";
        return 1;
    }
    const double learn_speedup = learn_s > 0.0 ? learn_ref_s / learn_s : 0.0;
    const double normalize_speedup = norm_s > 0.0 ? norm_ref_s / norm_s : 0.0;
    const double learn_ns_per_step = learn_s * 1e9 / static_cast<double>(steps);
    const double normalize_us =
        norm_s * 1e6 / static_cast<double>(norm_calls);

    // --- report -----------------------------------------------------------
    util::ResultTable table(
        "snn kernels — blocked drive, branch-free update, row-major STDP vs "
        "references",
        {"inputs", "neurons", "drive_speedup", "rows_per_s", "update_speedup",
         "neuron_steps_per_s", "learn_speedup", "normalize_speedup"});
    table.add_row({static_cast<double>(n_pre), static_cast<double>(n),
                   drive_speedup, rows_per_s, update_speedup,
                   neuron_steps_per_s, learn_speedup, normalize_speedup});
    std::cout << table;

    std::ostringstream json;
    json << "{\"benchmark\":\"kernel\",\"quick\":" << (quick ? "true" : "false")
         << ",\"workload\":{\"inputs\":" << n_pre << ",\"neurons\":" << n
         << ",\"steps\":" << steps
         << ",\"active_fraction\":" << util::json_number(fraction)
         << "},\"drive\":{\"blocked_ms\":"
         << util::json_number(blocked_s * 1000.0)
         << ",\"naive_ms\":" << util::json_number(naive_s * 1000.0)
         << ",\"drive_speedup\":" << util::json_number(drive_speedup)
         << ",\"rows_per_s\":" << util::json_number(rows_per_s)
         << "},\"update\":{\"fast_ms\":"
         << util::json_number(fast_update_s * 1000.0)
         << ",\"scalar_ms\":" << util::json_number(scalar_update_s * 1000.0)
         << ",\"update_speedup\":" << util::json_number(update_speedup)
         << ",\"neuron_steps_per_s\":" << util::json_number(neuron_steps_per_s)
         << "},\"learn\":{\"kernel_ns_per_step\":"
         << util::json_number(learn_ns_per_step)
         << ",\"reference_ns_per_step\":"
         << util::json_number(learn_ref_s * 1e9 / static_cast<double>(steps))
         << ",\"learn_speedup\":" << util::json_number(learn_speedup)
         << "},\"normalize\":{\"kernel_us_per_call\":"
         << util::json_number(normalize_us) << ",\"reference_us_per_call\":"
         << util::json_number(norm_ref_s * 1e6 / static_cast<double>(norm_calls))
         << ",\"normalize_speedup\":" << util::json_number(normalize_speedup)
         << "}}";
    const std::string out_path = parser.get("out");
    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "error: cannot write " << out_path << "\n";
        return 1;
    }
    out << json.str() << "\n";
    std::cout << "wrote " << out_path << "\n";
    return 0;
}
