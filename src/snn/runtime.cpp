#include "snn/runtime.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "snn/kernels.hpp"

namespace snnfi::snn {

namespace {

constexpr std::uint8_t kDead = static_cast<std::uint8_t>(NeuronFault::kDead);
constexpr std::uint8_t kSaturated = static_cast<std::uint8_t>(NeuronFault::kSaturated);
constexpr std::uint8_t kNominal = static_cast<std::uint8_t>(NeuronFault::kNominal);

/// Upper bounds of the snn.active_fraction histogram buckets.
constexpr std::array<double, 6> kActiveBounds{0.02, 0.05, 0.1, 0.2, 0.4, 0.8};

/// Hot-loop instruments, resolved once. Step-path counts and the
/// active-fraction buckets are tallied in a StepTally and flushed once per
/// sample, so the per-step cost with telemetry enabled is a few local
/// increments, not shared atomics. All of it is a no-op while telemetry is
/// off — results never depend on it.
struct SnnMetrics {
    obs::Counter& fast_steps;
    obs::Counter& scalar_steps;
    obs::Gauge& active_fraction_last;
    obs::Histogram& active_fraction;

    static SnnMetrics& get() {
        static SnnMetrics metrics{
            obs::Registry::global().counter("snn.steps.fast"),
            obs::Registry::global().counter("snn.steps.scalar"),
            obs::Registry::global().gauge("snn.active_fraction.last"),
            obs::Registry::global().histogram(
                "snn.active_fraction",
                std::vector<double>(kActiveBounds.begin(), kActiveBounds.end()))};
        return metrics;
    }
};

/// One sample's telemetry, recorded step by step in locals: the same
/// bucket counts as one active_fraction.observe() per step.
class StepTally {
public:
    explicit StepTally(std::size_t n_input)
        : metrics_(obs::enabled() ? &SnnMetrics::get() : nullptr),
          inv_input_(1.0 / static_cast<double>(n_input)) {}
    bool on() const noexcept { return metrics_ != nullptr; }

    void input(std::size_t active) {
        last_fraction_ = static_cast<double>(active) * inv_input_;
        fraction_sum_ += last_fraction_;
        ++buckets_[metrics_->active_fraction.bucket(last_fraction_)];
    }
    void path(bool fast) noexcept { ++(fast ? fast_steps_ : scalar_steps_); }

    /// Flushes the sample into the shared instruments.
    void flush() {
        if (!metrics_) return;
        metrics_->fast_steps.add(fast_steps_);
        metrics_->scalar_steps.add(scalar_steps_);
        metrics_->active_fraction.add(buckets_, fraction_sum_);
        metrics_->active_fraction_last.set(last_fraction_);
    }

private:
    SnnMetrics* metrics_;
    double inv_input_;
    std::array<std::uint64_t, kActiveBounds.size() + 1> buckets_{};
    double fraction_sum_ = 0.0;
    double last_fraction_ = 0.0;
    std::uint64_t fast_steps_ = 0;
    std::uint64_t scalar_steps_ = 0;
};

}  // namespace

void NetworkRuntime::LayerState::init(std::size_t n, const LifParams& params) {
    v.assign(n, params.v_rest);
    refrac.assign(n, 0);
    thresh_scale.assign(n, 1.0f);
    input_gain.assign(n, 1.0f);
    drive_gain.assign(n, 1.0f);
    forced.assign(n, kNominal);
    refrac_override.assign(n, -1);
}

void NetworkRuntime::LayerState::reset_dynamic(const LifParams& params) {
    std::fill(v.begin(), v.end(), params.v_rest);
    std::fill(refrac.begin(), refrac.end(), 0);
}

void NetworkRuntime::LayerState::reset_faults() {
    std::fill(thresh_scale.begin(), thresh_scale.end(), 1.0f);
    std::fill(input_gain.begin(), input_gain.end(), 1.0f);
    std::fill(drive_gain.begin(), drive_gain.end(), 1.0f);
    std::fill(forced.begin(), forced.end(), kNominal);
    std::fill(refrac_override.begin(), refrac_override.end(), -1);
}

NetworkRuntime::NetworkRuntime(std::shared_ptr<const NetworkModel> model,
                               FaultOverlay overlay)
    : model_(std::move(model)), encoder_(model_->config().encoder),
      rng_(model_->init_rng()) {
    const DiehlCookConfig& config = model_->config();
    const LifParams& exc_params = config.excitatory.lif;
    if (exc_params.tau_ms <= 0.0f || config.inhibitory.tau_ms <= 0.0f)
        throw std::invalid_argument("NetworkRuntime: tau <= 0");
    exc_.init(config.n_neurons, exc_params);
    inh_.init(config.n_neurons, config.inhibitory);
    exc_theta_.assign(model_->exc_theta().begin(), model_->exc_theta().end());
    exc_decay_ = std::exp(-exc_params.dt_ms / exc_params.tau_ms);
    inh_decay_ = std::exp(-config.inhibitory.dt_ms / config.inhibitory.tau_ms);
    theta_decay_factor_ =
        std::exp(-exc_params.dt_ms / config.excitatory.theta_decay_ms);
    // Padded drive buffer: the blocked kernel streams whole padded weight
    // rows, and the padding lanes (always zero in Matrix storage) land in
    // the tail the neuron update never reads.
    exc_input_.assign(kernels::padded_size(config.n_neurons), 0.0f);
    drive_ = exc_input_.data();
    exc_spiked_.assign(config.n_neurons, 0);
    inh_spiked_.assign(config.n_neurons, 0);
    set_overlay(overlay);
}

void NetworkRuntime::set_overlay(const FaultOverlay& overlay) {
    overlay_ = overlay;
    apply_effective_overlay(overlay_);
}

void NetworkRuntime::set_schedule(OverlaySchedule schedule) {
    for (std::size_t s = 0; s < schedule.size(); ++s) {
        if (schedule[s].begin_step >= schedule[s].end_step)
            throw std::invalid_argument("NetworkRuntime: empty schedule segment");
        if (s > 0 && schedule[s].begin_step < schedule[s - 1].end_step)
            throw std::invalid_argument(
                "NetworkRuntime: schedule segments overlap or are unsorted");
    }
    schedule_ = std::move(schedule);
    schedule_pos_ = 0;
    segment_active_ = false;
    apply_effective_overlay(overlay_);
}

FaultOverlay NetworkRuntime::current_effective_overlay() const {
    if (segment_active_)
        return FaultOverlay::compose(overlay_, schedule_[schedule_pos_].overlay);
    return overlay_;
}

void NetworkRuntime::apply_effective_overlay(const FaultOverlay& effective) {
    driver_gain_ = effective.has_driver_gain() ? effective.driver_gain() : 1.0f;
    exc_.reset_faults();
    inh_.reset_faults();
    drive_gain_active_ = false;
    exc_neuron_faults_ = false;
    inh_neuron_faults_ = false;
    apply_overlay_ops(effective);
    rebuild_patch_lists();
    if (learned_) {
        apply_weight_ops_learning(effective);
    } else {
        rebuild_weight_patches(effective);
    }
}

void NetworkRuntime::rebuild_patch_lists() {
    exc_patch_.clear();
    inh_patch_.clear();
    const std::size_t n = model_->config().n_neurons;
    // Identity values are excluded on purpose: multiplying by 1.0f and
    // scaling a threshold by 1.0f are bitwise no-ops, so a neuron whose
    // ops compose to the identity behaves exactly like the clean kernel.
    const auto scan = [n](const LayerState& layer,
                          std::vector<std::uint32_t>& out) {
        for (std::uint32_t i = 0; i < n; ++i) {
            if (layer.forced[i] != kNominal || layer.input_gain[i] != 1.0f ||
                layer.thresh_scale[i] != 1.0f ||
                layer.refrac_override[i] >= 0 || layer.drive_gain[i] != 1.0f)
                out.push_back(i);
        }
    };
    if (exc_neuron_faults_) scan(exc_, exc_patch_);
    if (inh_neuron_faults_) scan(inh_, inh_patch_);
    patch_save_.reserve(std::max(exc_patch_.size(), inh_patch_.size()));
}

void NetworkRuntime::advance_schedule(std::size_t step) {
    bool retracted = false;
    if (segment_active_ && step >= schedule_[schedule_pos_].end_step) {
        ++schedule_pos_;
        segment_active_ = false;
        retracted = true;
    }
    if (!segment_active_ && schedule_pos_ < schedule_.size() &&
        step >= schedule_[schedule_pos_].begin_step) {
        // Back-to-back segments re-expand once, straight into the next
        // segment's composed state.
        segment_active_ = true;
        apply_effective_overlay(
            FaultOverlay::compose(overlay_, schedule_[schedule_pos_].overlay));
    } else if (retracted) {
        apply_effective_overlay(overlay_);
    }
}

void NetworkRuntime::reset_schedule() {
    if (schedule_.empty()) return;
    if (segment_active_) {
        segment_active_ = false;
        apply_effective_overlay(overlay_);
    }
    schedule_pos_ = 0;
}

void NetworkRuntime::apply_overlay_ops(const FaultOverlay& effective) {
    const DiehlCookConfig& config = model_->config();
    for (const NeuronOp& op : effective.neuron_ops()) {
        const bool exc = op.layer == OverlayLayer::kExcitatory;
        LayerState& layer = exc ? exc_ : inh_;
        const LifParams& params = exc ? config.excitatory.lif : config.inhibitory;
        if (op.neuron >= config.n_neurons)
            throw std::out_of_range("NetworkRuntime: overlay neuron out of range");
        // Dirty summary: ANY neuron op (even a numeric identity) drops
        // the layer off the pure fast path until the next overlay/segment
        // swap. Conservative on purpose — the fast path must be provably
        // equivalent, not probably. rebuild_patch_lists then decides
        // whether the faulted layer can still ride the kernel via the
        // hybrid scalar redo.
        (exc ? exc_neuron_faults_ : inh_neuron_faults_) = true;
        switch (op.field) {
            case NeuronOp::Field::kThresholdScale:
                layer.thresh_scale[op.neuron] = op.value;
                break;
            case NeuronOp::Field::kThresholdValueDelta:
                layer.thresh_scale[op.neuron] =
                    threshold_value_delta_scale(params, op.value);
                break;
            case NeuronOp::Field::kInputGain:
                layer.input_gain[op.neuron] = op.value;
                break;
            case NeuronOp::Field::kForcedState:
                layer.forced[op.neuron] =
                    static_cast<std::uint8_t>(static_cast<int>(op.value));
                break;
            case NeuronOp::Field::kRefractoryOverride:
                layer.refrac_override[op.neuron] = static_cast<std::int32_t>(op.value);
                break;
            case NeuronOp::Field::kDriverGain:
                layer.drive_gain[op.neuron] = op.value;
                drive_gain_active_ = true;
                break;
        }
    }
}

void NetworkRuntime::apply_weight_ops_learning(const FaultOverlay& effective) {
    Matrix& weights = learned_->weights();
    const auto ops = effective.weight_ops();
    if (std::equal(ops.begin(), ops.end(), applied_weight_ops_.begin(),
                   applied_weight_ops_.end()))
        return;  // unchanged patch set: pure-parametric swap, matrix untouched

    const DiehlCookConfig& config = model_->config();
    for (const WeightOp& op : ops) {
        if (op.pre >= config.n_input || op.post >= config.n_neurons)
            throw std::out_of_range("NetworkRuntime: weight patch out of range");
    }

    // Per-row diff of the outgoing vs incoming op sets. Each row keeps a
    // snapshot stack (one per applied op): on a swap the row rolls back
    // only to the point where its op sequence diverges, so a schedule
    // segment stacking an op onto a persistently patched row undoes just
    // its own window at retraction — pre-glitch STDP learning and the
    // base patch stay in place. Rows whose ops are unchanged are never
    // touched.
    const auto row_ops = [](std::span<const WeightOp> set, std::uint32_t pre) {
        std::vector<WeightOp> subsequence;
        for (const WeightOp& op : set) {
            if (op.pre == pre) subsequence.push_back(op);
        }
        return subsequence;
    };
    std::vector<std::uint32_t> rows;
    const auto note_row = [&](std::uint32_t pre) {
        if (std::find(rows.begin(), rows.end(), pre) == rows.end())
            rows.push_back(pre);
    };
    for (const WeightOp& op : applied_weight_ops_) note_row(op.pre);
    for (const WeightOp& op : ops) note_row(op.pre);

    for (const std::uint32_t pre : rows) {
        const std::vector<WeightOp> after = row_ops(ops, pre);
        auto entry = std::find_if(patched_rows_.begin(), patched_rows_.end(),
                                  [&](const PatchedRow& row) { return row.pre == pre; });
        const bool recorded = entry != patched_rows_.end();
        const std::size_t n_before = recorded ? entry->ops.size() : 0;
        // Longest prefix of the row's op sequence that stays in force.
        std::size_t keep = 0;
        while (keep < n_before && keep < after.size() &&
               entry->ops[keep] == after[keep])
            ++keep;
        if (recorded && keep == n_before && n_before == after.size()) continue;
        if (recorded && keep < n_before) {
            // Roll back to the state just before the first diverging op.
            std::copy(entry->snapshots[keep].begin(), entry->snapshots[keep].end(),
                      weights.row(pre).begin());
            entry->ops.resize(keep);
            entry->snapshots.resize(keep);
        }
        if (after.size() > keep) {
            if (!recorded) {
                patched_rows_.push_back(PatchedRow{pre, {}, {}});
                entry = std::prev(patched_rows_.end());
            }
            for (std::size_t i = keep; i < after.size(); ++i) {
                const auto row = weights.row(pre);
                entry->snapshots.emplace_back(row.begin(), row.end());
                float& w = weights(after[i].pre, after[i].post);
                if (after[i].kind == WeightOp::Kind::kSet) {
                    w = after[i].value;
                } else {
                    w = xor_weight_bits(w, after[i].bits);
                }
                entry->ops.push_back(after[i]);
            }
        } else if (recorded && entry->ops.empty()) {
            patched_rows_.erase(entry);
        }
    }
    applied_weight_ops_.assign(ops.begin(), ops.end());
}

void NetworkRuntime::rebuild_weight_patches(const FaultOverlay& effective) {
    const DiehlCookConfig& config = model_->config();
    cow_rows_.clear();
    cell_deltas_.clear();
    row_ptr_.resize(config.n_input);
    for (std::size_t pre = 0; pre < config.n_input; ++pre)
        row_ptr_[pre] = model_->input_weights().padded_row(pre).data();
    if (effective.weight_ops().empty()) return;

    // Materialise only the touched rows (copy-on-write) as whole padded
    // rows — padding lanes stay zero, so the blocked kernel can stream
    // them like model rows — then apply the patch operations in order.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> touched;
    for (const WeightOp& op : effective.weight_ops()) {
        if (op.pre >= config.n_input || op.post >= config.n_neurons)
            throw std::out_of_range("NetworkRuntime: weight patch out of range");
        auto it = std::find_if(cow_rows_.begin(), cow_rows_.end(),
                               [&](const auto& row) { return row.first == op.pre; });
        if (it == cow_rows_.end()) {
            const auto row = model_->input_weights().padded_row(op.pre);
            cow_rows_.emplace_back(op.pre, AlignedVector(row.begin(), row.end()));
            it = std::prev(cow_rows_.end());
        }
        float& w = it->second[op.post];
        if (op.kind == WeightOp::Kind::kSet) {
            w = op.value;
        } else {
            w = xor_weight_bits(w, op.bits);
        }
        const auto cell = std::make_pair(op.pre, op.post);
        if (std::find(touched.begin(), touched.end(), cell) == touched.end())
            touched.push_back(cell);
    }
    for (auto& [pre, row] : cow_rows_) row_ptr_[pre] = row.data();
    // Batch-path deltas of every touched cell versus the shared matrix,
    // sorted by (pre, post) so adopt_drive can merge-join them against
    // the ascending active list in one pass.
    cell_deltas_.reserve(touched.size());
    for (const auto& [pre, post] : touched) {
        CellDelta delta;
        delta.pre = pre;
        delta.post = post;
        delta.delta = row_ptr_[pre][post] - model_->input_weights()(pre, post);
        cell_deltas_.push_back(delta);
    }
    std::sort(cell_deltas_.begin(), cell_deltas_.end(),
              [](const CellDelta& a, const CellDelta& b) {
                  return a.pre != b.pre ? a.pre < b.pre : a.post < b.post;
              });
}

void NetworkRuntime::set_learning(bool enabled) {
    const DiehlCookConfig& config = model_->config();
    if (enabled && !learned_) {
        // Materialise the *model* matrix, then re-apply the replica's
        // current fault state (base overlay, or active schedule segment)
        // through the reversible learning-mode patch path — the resulting
        // weights equal the inference-mode copy-on-write state, but later
        // overlay swaps and schedule boundaries can retract the patches.
        learned_.emplace(Matrix(model_->input_weights()), config.stdp,
                         config.norm_total);
        row_ptr_.clear();
        cow_rows_.clear();
        cell_deltas_.clear();
        apply_effective_overlay(current_effective_overlay());
    }
    learning_ = enabled;
    if (learned_) learned_->set_learning(enabled);
}

namespace {

void check_neuron_index(std::size_t neuron, std::size_t n) {
    if (neuron >= n)
        throw std::out_of_range("NetworkRuntime: neuron index out of range");
}

}  // namespace

float NetworkRuntime::threshold_scale(OverlayLayer layer, std::size_t neuron) const {
    const LayerState& state = layer_state(layer);
    check_neuron_index(neuron, state.thresh_scale.size());
    return state.thresh_scale[neuron];
}

float NetworkRuntime::input_gain(OverlayLayer layer, std::size_t neuron) const {
    const LayerState& state = layer_state(layer);
    check_neuron_index(neuron, state.input_gain.size());
    return state.input_gain[neuron];
}

float NetworkRuntime::neuron_driver_gain(OverlayLayer layer,
                                         std::size_t neuron) const {
    const LayerState& state = layer_state(layer);
    check_neuron_index(neuron, state.drive_gain.size());
    return state.drive_gain[neuron];
}

NeuronFault NetworkRuntime::forced_state(OverlayLayer layer,
                                         std::size_t neuron) const {
    const LayerState& state = layer_state(layer);
    check_neuron_index(neuron, state.forced.size());
    return static_cast<NeuronFault>(state.forced[neuron]);
}

int NetworkRuntime::refractory_steps(OverlayLayer layer, std::size_t neuron) const {
    const LayerState& state = layer_state(layer);
    check_neuron_index(neuron, state.refrac_override.size());
    if (state.refrac_override[neuron] >= 0) return state.refrac_override[neuron];
    return layer == OverlayLayer::kExcitatory
               ? model_->config().excitatory.lif.refrac_steps
               : model_->config().inhibitory.refrac_steps;
}

float NetworkRuntime::effective_threshold(OverlayLayer layer,
                                          std::size_t neuron) const {
    const LayerState& state = layer_state(layer);
    check_neuron_index(neuron, state.thresh_scale.size());
    const LifParams& params = layer == OverlayLayer::kExcitatory
                                  ? model_->config().excitatory.lif
                                  : model_->config().inhibitory;
    float threshold = params.v_rest +
                      (params.v_thresh - params.v_rest) * state.thresh_scale[neuron];
    if (layer == OverlayLayer::kExcitatory) threshold += exc_theta_[neuron];
    return threshold;
}

void NetworkRuntime::set_exc_theta(std::span<const float> theta) {
    if (theta.size() != exc_theta_.size())
        throw std::invalid_argument("NetworkRuntime: theta size mismatch");
    std::copy(theta.begin(), theta.end(), exc_theta_.begin());
}

std::span<const float> NetworkRuntime::weight_row(std::size_t pre) const {
    if (learned_) return learned_->weights().row(pre);
    if (pre >= row_ptr_.size())
        throw std::out_of_range("NetworkRuntime: weight row out of range");
    return {row_ptr_[pre], model_->n_neurons()};
}

std::shared_ptr<const NetworkModel> NetworkRuntime::freeze() const {
    if (learned_) {
        return std::make_shared<const NetworkModel>(
            model_->config(), learned_->weights(), exc_theta_, rng_);
    }
    Matrix weights = model_->input_weights();
    for (const auto& [pre, row] : cow_rows_) {
        // cow rows are padded; copy the logical prefix only.
        for (std::size_t j = 0; j < weights.cols(); ++j) weights(pre, j) = row[j];
    }
    return std::make_shared<const NetworkModel>(model_->config(), std::move(weights),
                                                exc_theta_, rng_);
}

void NetworkRuntime::begin_sample() {
    const DiehlCookConfig& config = model_->config();
    reset_schedule();
    exc_.reset_dynamic(config.excitatory.lif);
    inh_.reset_dynamic(config.inhibitory);
    std::fill(exc_spiked_.begin(), exc_spiked_.end(), 0);
    std::fill(inh_spiked_.begin(), inh_spiked_.end(), 0);
    if (learned_) learned_->reset_traces();
}

void NetworkRuntime::end_sample() {
    if (learned_ && learning_) learned_->normalize();
}

void NetworkRuntime::accumulate_drive(std::span<const std::uint32_t> active) {
    std::fill(exc_input_.begin(), exc_input_.end(), 0.0f);
    if (learned_) {
        learned_->propagate(active,
                            std::span<float>(exc_input_.data(), exc_input_.size()));
    } else {
        kernels::accumulate_rows(row_ptr_.data(), active, exc_input_.data(),
                                 exc_input_.size());
    }
    drive_ = exc_input_.data();
}

void NetworkRuntime::adopt_drive(std::span<const float> base,
                                 std::span<const std::uint32_t> active) {
    if (cell_deltas_.empty()) {
        // No weight patches: alias the batch's shared drive read-only —
        // the common clean-replica case pays zero copies per step.
        drive_ = base.data();
        return;
    }
    const std::size_t n = std::min(base.size(), exc_input_.size());
    std::copy_n(base.data(), n, exc_input_.data());
    // Merge-join: cell_deltas_ is sorted by (pre, post) and `active` is
    // ascending (PoissonEncoder emits pixel indices in order), so one
    // linear pass replaces the old per-delta binary_search.
    auto delta = cell_deltas_.cbegin();
    const auto deltas_end = cell_deltas_.cend();
    for (const std::uint32_t pre : active) {
        while (delta != deltas_end && delta->pre < pre) ++delta;
        if (delta == deltas_end) break;
        for (; delta != deltas_end && delta->pre == pre; ++delta)
            exc_input_[delta->post] += delta->delta;
    }
    drive_ = exc_input_.data();
}

void NetworkRuntime::advance_step(std::span<const std::uint32_t> active,
                                  SampleActivity& activity) {
    const DiehlCookConfig& config = model_->config();
    const std::size_t n = config.n_neurons;
    const LifParams& ep = config.excitatory.lif;
    const float theta_plus = config.excitatory.theta_plus;

    // Lateral inhibition context from the previous step's IL spikes.
    std::size_t inh_total = 0;
    for (const std::uint8_t s : inh_spiked_) inh_total += s;
    const float w_inh = config.inh_weight;
    const bool gain_active = driver_gain_ != 1.0f;
    const float* drive = drive_;

    // Excitatory pass: drive assembly fused with the DiehlCook update.
    // Clean fault state takes the branch-free kernel outright; a sparse
    // set of per-neuron overrides takes the kernel plus an exact scalar
    // redo of just those neurons (hybrid); a dense override set drops to
    // the scalar fault-aware loop. All three produce bit-identical state
    // (see snn/kernels.hpp and rebuild_patch_lists).
    std::size_t exc_count = 0;
    // Fault-touched layers with a small override set still take the
    // vector kernel: the kernel runs over the whole layer, then the few
    // overridden neurons are redone with the exact scalar semantics from
    // their saved pre-step state (neurons are independent within a step,
    // so the redo composes bit-identically with the kernel's output for
    // every untouched neuron). Dense fault sets fall back to the scalar
    // loop, where the redo would dominate.
    const bool exc_hybrid = exc_neuron_faults_ && !force_scalar_ &&
                            exc_patch_.size() * 8 <= n;
    if (!exc_neuron_faults_ || exc_hybrid) {
        if (exc_hybrid) {
            patch_save_.resize(exc_patch_.size());
            for (std::size_t k = 0; k < exc_patch_.size(); ++k) {
                const std::uint32_t i = exc_patch_[k];
                patch_save_[k] = {exc_.v[i], exc_theta_[i], exc_.refrac[i]};
            }
        }
        kernels::ExcParams p;
        p.v_rest = ep.v_rest;
        p.v_reset = ep.v_reset;
        p.decay = exc_decay_;
        p.thresh_base = ep.v_rest + (ep.v_thresh - ep.v_rest);
        p.theta_decay = theta_decay_factor_;
        p.theta_plus = theta_plus;
        p.refrac_steps = ep.refrac_steps;
        p.driver_gain = driver_gain_;
        p.gain_active = gain_active;
        p.w_inh = w_inh;
        exc_count = kernels::exc_fast_step(p, drive, inh_spiked_.data(), inh_total,
                                           exc_.v.data(), exc_.refrac.data(),
                                           exc_theta_.data(), exc_spiked_.data(), n);
        // Scalar redo of the overridden neurons — this block must mirror
        // the scalar loop below statement for statement.
        for (std::size_t k = 0; k < exc_patch_.size(); ++k) {
            const std::uint32_t i = exc_patch_[k];
            const NeuronSave& s = patch_save_[k];
            exc_count -= static_cast<std::size_t>(exc_spiked_[i]);
            float x = drive[i];
            if (gain_active) x *= driver_gain_;
            if (drive_gain_active_) x *= exc_.drive_gain[i];
            if (inh_total > 0) {
                x += w_inh * (static_cast<float>(inh_total) -
                              static_cast<float>(inh_spiked_[i]));
            }
            float th = s.theta * theta_decay_factor_;
            float v = s.v;
            std::int32_t rc = s.refrac;
            std::uint8_t spike = 0;
            if (exc_.forced[i] == kDead) {
                v = ep.v_rest;
            } else if (exc_.forced[i] == kSaturated) {
                spike = 1;
                v = ep.v_reset;
                th += theta_plus;
            } else if (rc > 0) {
                --rc;
                v = ep.v_reset;
            } else {
                v = ep.v_rest + exc_decay_ * (s.v - ep.v_rest);
                v += exc_.input_gain[i] * x;
                const float threshold =
                    ep.v_rest + (ep.v_thresh - ep.v_rest) * exc_.thresh_scale[i] +
                    th;
                if (v >= threshold) {
                    spike = 1;
                    v = ep.v_reset;
                    rc = exc_.refrac_override[i] >= 0 ? exc_.refrac_override[i]
                                                      : ep.refrac_steps;
                    th += theta_plus;
                }
            }
            exc_.v[i] = v;
            exc_.refrac[i] = rc;
            exc_theta_[i] = th;
            exc_spiked_[i] = spike;
            exc_count += spike;
        }
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            float x = drive[i];
            if (gain_active) x *= driver_gain_;
            if (drive_gain_active_) x *= exc_.drive_gain[i];
            if (inh_total > 0) {
                x += w_inh * (static_cast<float>(inh_total) -
                              static_cast<float>(inh_spiked_[i]));
            }
            exc_theta_[i] *= theta_decay_factor_;
            std::uint8_t spike = 0;
            if (exc_.forced[i] == kDead) {
                exc_.v[i] = ep.v_rest;
            } else if (exc_.forced[i] == kSaturated) {
                spike = 1;
                exc_.v[i] = ep.v_reset;
                exc_theta_[i] += theta_plus;
            } else if (exc_.refrac[i] > 0) {
                --exc_.refrac[i];
                exc_.v[i] = ep.v_reset;
            } else {
                float v = ep.v_rest + exc_decay_ * (exc_.v[i] - ep.v_rest);
                v += exc_.input_gain[i] * x;
                const float threshold =
                    ep.v_rest + (ep.v_thresh - ep.v_rest) * exc_.thresh_scale[i] +
                    exc_theta_[i];
                if (v >= threshold) {
                    spike = 1;
                    v = ep.v_reset;
                    exc_.refrac[i] = exc_.refrac_override[i] >= 0
                                         ? exc_.refrac_override[i]
                                         : ep.refrac_steps;
                    exc_theta_[i] += theta_plus;
                }
                exc_.v[i] = v;
            }
            exc_spiked_[i] = spike;
            exc_count += spike;
        }
    }
    activity.total_exc_spikes += exc_count;

    if (learned_) learned_->learn(active, exc_spiked_);

    // Inhibitory pass: one-to-one EL drive fused with the LIF update.
    const LifParams& ip = config.inhibitory;
    const float w_exc = config.exc_weight;
    std::size_t inh_count = 0;
    const bool inh_hybrid = inh_neuron_faults_ && !force_scalar_ &&
                            inh_patch_.size() * 8 <= n;
    if (!inh_neuron_faults_ || inh_hybrid) {
        if (inh_hybrid) {
            patch_save_.resize(inh_patch_.size());
            for (std::size_t k = 0; k < inh_patch_.size(); ++k) {
                const std::uint32_t i = inh_patch_[k];
                patch_save_[k] = {inh_.v[i], 0.0f, inh_.refrac[i]};
            }
        }
        kernels::InhParams p;
        p.v_rest = ip.v_rest;
        p.v_reset = ip.v_reset;
        p.decay = inh_decay_;
        p.thresh_base = ip.v_rest + (ip.v_thresh - ip.v_rest);
        p.refrac_steps = ip.refrac_steps;
        p.w_exc = w_exc;
        inh_count = kernels::inh_fast_step(p, exc_spiked_.data(), inh_.v.data(),
                                           inh_.refrac.data(), inh_spiked_.data(), n);
        // Scalar redo of the overridden neurons — mirrors the scalar loop
        // below statement for statement.
        for (std::size_t k = 0; k < inh_patch_.size(); ++k) {
            const std::uint32_t i = inh_patch_[k];
            const NeuronSave& s = patch_save_[k];
            inh_count -= static_cast<std::size_t>(inh_spiked_[i]);
            const float x = exc_spiked_[i] ? w_exc : 0.0f;
            float v = s.v;
            std::int32_t rc = s.refrac;
            std::uint8_t spike = 0;
            if (inh_.forced[i] == kDead) {
                v = ip.v_rest;
            } else if (inh_.forced[i] == kSaturated) {
                spike = 1;
                v = ip.v_reset;
            } else if (rc > 0) {
                --rc;
                v = ip.v_reset;
            } else {
                v = ip.v_rest + inh_decay_ * (s.v - ip.v_rest);
                v += inh_.input_gain[i] * x;
                const float threshold =
                    ip.v_rest + (ip.v_thresh - ip.v_rest) * inh_.thresh_scale[i];
                if (v >= threshold) {
                    spike = 1;
                    v = ip.v_reset;
                    rc = inh_.refrac_override[i] >= 0 ? inh_.refrac_override[i]
                                                      : ip.refrac_steps;
                }
            }
            inh_.v[i] = v;
            inh_.refrac[i] = rc;
            inh_spiked_[i] = spike;
            inh_count += spike;
        }
    } else {
        for (std::size_t i = 0; i < n; ++i) {
            const float x = exc_spiked_[i] ? w_exc : 0.0f;
            std::uint8_t spike = 0;
            if (inh_.forced[i] == kDead) {
                inh_.v[i] = ip.v_rest;
            } else if (inh_.forced[i] == kSaturated) {
                spike = 1;
                inh_.v[i] = ip.v_reset;
            } else if (inh_.refrac[i] > 0) {
                --inh_.refrac[i];
                inh_.v[i] = ip.v_reset;
            } else {
                float v = ip.v_rest + inh_decay_ * (inh_.v[i] - ip.v_rest);
                v += inh_.input_gain[i] * x;
                const float threshold =
                    ip.v_rest + (ip.v_thresh - ip.v_rest) * inh_.thresh_scale[i];
                if (v >= threshold) {
                    spike = 1;
                    v = ip.v_reset;
                    inh_.refrac[i] = inh_.refrac_override[i] >= 0
                                         ? inh_.refrac_override[i]
                                         : ip.refrac_steps;
                }
                inh_.v[i] = v;
            }
            inh_spiked_[i] = spike;
            inh_count += spike;
        }
    }
    activity.total_inh_spikes += inh_count;

    if (exc_count > 0)
        kernels::add_counts(activity.exc_counts.data(), exc_spiked_.data(), n);
}

namespace {

/// Zeroes a reusable activity record in place; only resizes (allocates)
/// when the record has never been used with this network size.
void reset_activity(SampleActivity& activity, std::size_t n) {
    if (activity.exc_counts.size() == n) {
        std::fill(activity.exc_counts.begin(), activity.exc_counts.end(), 0u);
    } else {
        activity.exc_counts.assign(n, 0u);
    }
    activity.total_exc_spikes = 0;
    activity.total_inh_spikes = 0;
}

}  // namespace

SampleActivity NetworkRuntime::run_sample(std::span<const float> image) {
    SampleActivity activity;
    run_sample_into(image, activity);
    return activity;
}

void NetworkRuntime::run_sample_into(std::span<const float> image,
                                     SampleActivity& activity) {
    const DiehlCookConfig& config = model_->config();
    if (image.size() != config.n_input)
        throw std::invalid_argument("run_sample: image size mismatch");
    encoder_.set_image(image);
    encoder_.encode(rng_, config.steps_per_sample, raster_);
    replay(raster_, activity);
}

void NetworkRuntime::run_sample_into(const SpikeRaster& raster,
                                     SampleActivity& activity) {
    const DiehlCookConfig& config = model_->config();
    raster.validate(config.steps_per_sample, config.n_input);
    replay(raster, activity);
}

void NetworkRuntime::replay(const SpikeRaster& raster, SampleActivity& activity) {
    const DiehlCookConfig& config = model_->config();
    begin_sample();
    reset_activity(activity, config.n_neurons);
    StepTally tally(config.n_input);
    for (std::size_t step = 0; step < config.steps_per_sample; ++step) {
        if (!schedule_.empty()) advance_schedule(step);
        const std::span<const std::uint32_t> active = raster.at(step);
        accumulate_drive(active);
        advance_step(active, activity);
        if (tally.on()) {
            tally.input(active.size());
            tally.path(fast_path_active());
        }
    }
    tally.flush();
    end_sample();
}

BatchRunner::BatchRunner(const NetworkModel& model,
                         std::vector<NetworkRuntime*> runtimes)
    : model_(model), runtimes_(std::move(runtimes)),
      encoder_(model.config().encoder) {
    if (runtimes_.empty())
        throw std::invalid_argument("BatchRunner: empty runtime batch");
    for (const NetworkRuntime* runtime : runtimes_) {
        if (runtime == nullptr)
            throw std::invalid_argument("BatchRunner: null runtime");
        if (runtime->model_ptr().get() != &model_)
            throw std::invalid_argument("BatchRunner: runtimes must share the model");
        if (runtime->learned_.has_value())
            throw std::invalid_argument(
                "BatchRunner: learning runtimes cannot join a batch");
    }
    base_drive_.assign(kernels::padded_size(model_.n_neurons()), 0.0f);
    model_rows_.resize(model_.n_input());
    for (std::size_t pre = 0; pre < model_.n_input(); ++pre)
        model_rows_[pre] = model_.input_weights().padded_row(pre).data();
}

std::vector<SampleActivity> BatchRunner::run_sample(std::span<const float> image,
                                                    util::Rng& rng) {
    std::vector<SampleActivity> activities(runtimes_.size());
    run_sample_into(image, rng, activities);
    return activities;
}

void BatchRunner::run_sample_into(std::span<const float> image, util::Rng& rng,
                                  std::span<SampleActivity> activities) {
    if (image.size() != model_.n_input())
        throw std::invalid_argument("BatchRunner: image size mismatch");
    if (activities.size() != runtimes_.size())
        throw std::invalid_argument("BatchRunner: activity batch size mismatch");
    encoder_.set_image(image);
    encoder_.encode(rng, model_.config().steps_per_sample, raster_);
    replay(raster_, activities);
}

void BatchRunner::run_sample_into(const SpikeRaster& raster,
                                  std::span<SampleActivity> activities) {
    if (activities.size() != runtimes_.size())
        throw std::invalid_argument("BatchRunner: activity batch size mismatch");
    raster.validate(model_.config().steps_per_sample, model_.n_input());
    replay(raster, activities);
}

void BatchRunner::replay(const SpikeRaster& raster,
                         std::span<SampleActivity> activities) {
    const std::size_t steps = model_.config().steps_per_sample;
    for (std::size_t k = 0; k < runtimes_.size(); ++k) {
        runtimes_[k]->begin_sample();
        reset_activity(activities[k], model_.n_neurons());
    }
    StepTally tally(model_.n_input());
    const std::span<const float> base(base_drive_.data(), base_drive_.size());
    for (std::size_t step = 0; step < steps; ++step) {
        const std::span<const std::uint32_t> active = raster.at(step);
        // Shared blocked propagation over the frozen weights, once per
        // step, over the full padded length (padding lanes stay zero).
        std::fill(base_drive_.begin(), base_drive_.end(), 0.0f);
        kernels::accumulate_rows(model_rows_.data(), active, base_drive_.data(),
                                 base_drive_.size());
        if (tally.on()) tally.input(active.size());
        for (std::size_t k = 0; k < runtimes_.size(); ++k) {
            if (!runtimes_[k]->schedule_.empty()) runtimes_[k]->advance_schedule(step);
            runtimes_[k]->adopt_drive(base, active);
            runtimes_[k]->advance_step(active, activities[k]);
            if (tally.on()) tally.path(runtimes_[k]->fast_path_active());
        }
    }
    tally.flush();
}

}  // namespace snnfi::snn
