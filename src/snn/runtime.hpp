// NetworkRuntime: the lightweight, per-replica half of the Model/Runtime
// split (see snn/model.hpp).
//
// A runtime borrows a frozen NetworkModel by shared_ptr and owns only the
// dynamic state of one replica — voltages, refractory counters, adaptive
// thresholds, spike buffers — laid out as struct-of-arrays so the fused
// LIF/DiehlCook step is a single pass over contiguous spans. Faults come
// in through a FaultOverlay: parametric faults expand into the SoA arrays,
// and weight patches are copy-on-write — the replica shares the model's
// weight matrix and materialises only the touched rows. Construction is
// therefore cheap (no weight copy, no RNG re-init), which is what lets a
// fault-injection campaign run one runtime per (cell, replica) with no
// snapshot/restore and no locking.
//
// With learning enabled the runtime materialises the full weight matrix
// into a DenseConnection (STDP + normalisation reuse the exact legacy
// kernels) and freeze() packages the learned parameters into a new
// immutable NetworkModel. Training over NetworkModel::random() is
// regression-pinned to the historical mutable-network numbers.
//
// A FaultOverlay describes faults that hold for a whole run; an
// OverlaySchedule adds the time axis: segments merged onto the base
// overlay at step boundaries (the glitch pipeline's execution layer).
//
// BatchRunner advances several inference runtimes in lockstep over ONE
// shared input raster: the dense input propagation over the shared
// weights is computed once per timestep and reused by every replica in
// the batch — the campaign engine's batched-inference fast path. Between
// samples an inference runtime keeps only its adaptive thresholds
// (exc_theta), so a runtime rebuilt from the same overlay/schedule with
// set_exc_theta() continues a stream exactly where another left off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "snn/connection.hpp"
#include "snn/encoding.hpp"
#include "snn/model.hpp"
#include "snn/overlay.hpp"
#include "snn/tensor.hpp"

namespace snnfi::snn {

class NetworkRuntime {
public:
    /// Builds a replica over `model` with `overlay` applied. The encoder
    /// RNG starts from the model's init_rng() stream (bit-compatible with
    /// the facade); reseed via rng() for independent replica streams.
    explicit NetworkRuntime(std::shared_ptr<const NetworkModel> model,
                            FaultOverlay overlay = {});

    const DiehlCookConfig& config() const noexcept { return model_->config(); }
    const NetworkModel& model() const noexcept { return *model_; }
    std::shared_ptr<const NetworkModel> model_ptr() const noexcept { return model_; }

    /// Replaces the replica's fault state with `overlay` (previous
    /// parametric faults and copy-on-write weight patches are cleared).
    /// With learning enabled, weight patches land on the materialised
    /// matrix through a record-and-undo of the touched rows, so a later
    /// set_overlay (or a schedule-segment retraction) restores them —
    /// STDP updates a patch masked during its window are rolled back with
    /// it, which is the transient-fault semantic the glitch pipeline
    /// wants.
    void set_overlay(const FaultOverlay& overlay);
    const FaultOverlay& overlay() const noexcept { return overlay_; }

    /// Installs a piecewise fault schedule (the time axis of transient
    /// glitch attacks). While a segment is active the replica's fault
    /// state is the base overlay with the segment's overlay merged on
    /// top; outside every segment it is the base overlay alone. Swaps
    /// happen at step boundaries: fault state is re-expanded and weight
    /// patches rebuilt (inference) or applied/retracted reversibly on the
    /// materialised matrix (learning), dynamic state (voltages,
    /// refractory counters, theta) is untouched. A schedule spanning
    /// [0, steps_per_sample) with one segment is bit-identical to a
    /// static overlay — under learning too for parametric faults
    /// (threshold, gains, forced state, refractory), which is what lets
    /// Trainer run STDP under a mid-epoch glitch. Scheduled *weight
    /// patches* under learning deliberately differ from a static
    /// overlay: each segment activation records-and-undoes the touched
    /// rows, so a full-range scheduled patch rolls its rows back at
    /// every sample boundary while a static set_overlay patch is applied
    /// once and lets STDP accumulate on top. Validates ordering/overlap.
    void set_schedule(OverlaySchedule schedule);
    const OverlaySchedule& schedule() const noexcept { return schedule_; }

    // --- fault-state inspection (current step's effective values) -------
    float threshold_scale(OverlayLayer layer, std::size_t neuron) const;
    float input_gain(OverlayLayer layer, std::size_t neuron) const;
    /// Per-neuron feedforward drive gain (glitch-footprint driver ops);
    /// multiplies with the network-wide driver_gain().
    float neuron_driver_gain(OverlayLayer layer, std::size_t neuron) const;
    NeuronFault forced_state(OverlayLayer layer, std::size_t neuron) const;
    /// Refractory steps a spike would incur now (override or config).
    int refractory_steps(OverlayLayer layer, std::size_t neuron) const;
    /// Spike threshold in BindsNET millivolts, faults and (for the
    /// excitatory layer) the adaptive theta included.
    float effective_threshold(OverlayLayer layer, std::size_t neuron) const;

    /// Learning materialises the model's weight matrix into an STDP
    /// connection on first enable and re-applies the current fault state
    /// (overlay, or active schedule segment) through the reversible
    /// record-and-undo patch path; disabling freezes further updates but
    /// keeps the materialised weights.
    void set_learning(bool enabled);
    bool learning_enabled() const noexcept { return learning_; }

    /// Runs one sample: dynamic state and traces reset first, schedule
    /// cursor rewound, weights normalised afterwards when learning. The
    /// image is Poisson-encoded from rng() into a reused member raster,
    /// then replayed through run_sample_into(const SpikeRaster&, ...).
    SampleActivity run_sample(std::span<const float> image);

    /// Allocation-free variant: accumulates into a caller-owned activity
    /// record. exc_counts is zeroed in place when already correctly
    /// sized, so a reused record makes the per-sample loop steady-state
    /// allocation-free (the campaign hot path).
    void run_sample_into(std::span<const float> image, SampleActivity& activity);

    /// The step loop: replays an already-encoded input raster (exactly
    /// steps_per_sample steps, ascending indices below n_input; throws
    /// std::invalid_argument otherwise). rng() is not consumed, so a
    /// lockstep training group encodes each sample once and every member
    /// replays it.
    void run_sample_into(const SpikeRaster& raster, SampleActivity& activity);

    /// True when the next step takes the branch-free fast-path neuron
    /// kernels (snn/kernels.hpp): the effective overlay touches no
    /// per-neuron state on either layer. Re-derived once per
    /// overlay/schedule-segment swap, never per step.
    bool fast_path_active() const noexcept {
        return !exc_neuron_faults_ && !inh_neuron_faults_;
    }

    /// Freezes the replica's current learned parameters (weights incl.
    /// patches, theta) into a new immutable model.
    std::shared_ptr<const NetworkModel> freeze() const;

    util::Rng& rng() noexcept { return rng_; }
    float driver_gain() const noexcept { return driver_gain_; }
    std::span<const float> exc_theta() const noexcept { return exc_theta_; }
    /// Overwrites the excitatory adaptive thresholds, the one piece of
    /// inference state that survives a sample boundary (throws
    /// std::invalid_argument unless theta.size() == n_neurons). Lets a
    /// caller rebuild a runtime mid-stream instead of keeping it alive.
    void set_exc_theta(std::span<const float> theta);
    /// Effective weight row (materialised patches included).
    std::span<const float> weight_row(std::size_t pre) const;

private:
    friend class BatchRunner;
    friend class Trainer;           ///< replays rasters its stream validated
    friend struct RuntimeTestPeer;  ///< white-box kernel-equivalence tests

    /// The step loop of run_sample_into(raster) without the raster check:
    /// for rasters already known to be valid (freshly encoded, or decoded
    /// by the strict unpack_raster).
    void replay(const SpikeRaster& raster, SampleActivity& activity);

    /// Per-layer dynamic + fault state, struct-of-arrays.
    struct LayerState {
        std::vector<float> v;
        std::vector<std::int32_t> refrac;
        std::vector<float> thresh_scale;
        std::vector<float> input_gain;
        std::vector<float> drive_gain;  ///< per-neuron feedforward drive gain
        std::vector<std::uint8_t> forced;
        std::vector<std::int32_t> refrac_override;

        void init(std::size_t n, const LifParams& params);
        void reset_dynamic(const LifParams& params);
        void reset_faults();
    };

    /// One materialised copy-on-write weight cell: effective minus model.
    struct CellDelta {
        std::uint32_t pre = 0;
        std::uint32_t post = 0;
        float delta = 0.0f;
    };

    /// Re-expands the given overlay into the SoA fault state + weight
    /// patches (dynamic state untouched). set_overlay and the schedule
    /// swaps share this path, so a one-segment full-range schedule is
    /// bit-identical to the static overlay it wraps.
    void apply_effective_overlay(const FaultOverlay& effective);
    void apply_overlay_ops(const FaultOverlay& effective);
    void rebuild_weight_patches(const FaultOverlay& effective);
    /// Learning-mode weight patches: per-row diff of the previous vs new
    /// op set — rows whose own ops changed restore their recorded
    /// pre-patch snapshot and re-patch; rows whose patch stays in force
    /// keep their learned values. The reversible path behind overlay
    /// swaps and schedule segments under STDP.
    void apply_weight_ops_learning(const FaultOverlay& effective);
    /// The overlay currently in force: the base overlay, with the active
    /// schedule segment (if any) merged on top.
    FaultOverlay current_effective_overlay() const;
    /// Activates/retracts schedule segments whose boundary is `step`.
    void advance_schedule(std::size_t step);
    /// Rewinds the schedule cursor (and restores the base overlay if the
    /// previous sample ended inside a segment).
    void reset_schedule();
    const LayerState& layer_state(OverlayLayer layer) const {
        return layer == OverlayLayer::kExcitatory ? exc_ : inh_;
    }
    void begin_sample();
    void end_sample();
    /// Dense input drive of one step into exc_input_ (standalone path:
    /// patched rows included via row_ptr_, or the STDP matrix when
    /// learning).
    void accumulate_drive(std::span<const std::uint32_t> active);
    /// Batch path: adopts a shared base drive (computed over the *model*
    /// weights). A replica without cell deltas aliases the batch buffer
    /// read-only (zero copies); a patched replica copies it once and
    /// merge-joins its sorted deltas against the ascending active list.
    void adopt_drive(std::span<const float> base,
                     std::span<const std::uint32_t> active);
    /// The fused step: driver gain + lateral inhibition + excitatory
    /// DiehlCook update + STDP + one-to-one + inhibitory LIF update, one
    /// pass per layer over contiguous spans. Reads drive_; each layer
    /// dispatches to the branch-free kernel when its fault state is
    /// clean, to the kernel plus an exact scalar redo of the overridden
    /// neurons when the override set is sparse, and to the full scalar
    /// fault-aware loop otherwise. All three are bit-identical.
    void advance_step(std::span<const std::uint32_t> active, SampleActivity& activity);

    std::shared_ptr<const NetworkModel> model_;
    FaultOverlay overlay_;
    OverlaySchedule schedule_;
    std::size_t schedule_pos_ = 0;    ///< next/active segment index
    bool segment_active_ = false;     ///< schedule_[schedule_pos_] applied
    PoissonEncoder encoder_;
    util::Rng rng_;

    LayerState exc_;
    LayerState inh_;
    std::vector<float> exc_theta_;
    float exc_decay_ = 0.0f;
    float inh_decay_ = 0.0f;
    float theta_decay_factor_ = 1.0f;
    float driver_gain_ = 1.0f;
    bool drive_gain_active_ = false;  ///< any per-neuron kDriverGain op applied
    bool exc_neuron_faults_ = false;  ///< dirty summary: any EL neuron op applied
    bool inh_neuron_faults_ = false;  ///< dirty summary: any IL neuron op applied
    bool learning_ = false;

    /// Hybrid-step worklists: the neurons whose per-step behavior deviates
    /// from the clean kernel under the current effective overlay (forced
    /// state, non-identity gain/threshold, refractory override). When the
    /// list is a small fraction of the layer, advance_step runs the vector
    /// kernel over the whole layer and then redoes just these neurons with
    /// the exact scalar semantics from their saved pre-step state — the
    /// full scalar loop is kept for dense fault sets. Rebuilt on every
    /// overlay/schedule-segment swap, never per step.
    std::vector<std::uint32_t> exc_patch_;
    std::vector<std::uint32_t> inh_patch_;
    /// Pre-kernel (v, theta, refrac) of the patched neurons, captured per
    /// step so the scalar redo starts from the same state the kernel read.
    struct NeuronSave {
        float v = 0.0f;
        float theta = 0.0f;
        std::int32_t refrac = 0;
    };
    std::vector<NeuronSave> patch_save_;
    bool force_scalar_ = false;  ///< test hook: always take the scalar loop
    void rebuild_patch_lists();

    /// Learning path: materialised weights + STDP state.
    std::optional<DenseConnection> learned_;
    /// Learning path: one entry per materialised row currently carrying
    /// weight patches. snapshots[i] is the row as it stood just before
    /// ops[i] was applied, so an overlay swap rolls the row back exactly
    /// to the point where its op sequence diverges — a schedule segment
    /// stacking an op onto a persistently patched row undoes only its own
    /// window, never pre-glitch STDP learning. applied_weight_ops_ is the
    /// full op set in force (fast path: parametric-only swaps are no-ops
    /// for the matrix).
    struct PatchedRow {
        std::uint32_t pre = 0;
        std::vector<WeightOp> ops;
        std::vector<std::vector<float>> snapshots;
    };
    std::vector<PatchedRow> patched_rows_;
    std::vector<WeightOp> applied_weight_ops_;
    /// Inference path: per-row pointers into the model matrix, redirected
    /// to materialised copies for patched rows only.
    std::vector<const float*> row_ptr_;
    std::vector<std::pair<std::uint32_t, AlignedVector>> cow_rows_;
    /// Sorted by (pre, post) — adopt_drive merge-joins this against the
    /// ascending active list.
    std::vector<CellDelta> cell_deltas_;

    // Scratch reused across samples and steps. raster_ holds the image
    // overloads' encoded sample. exc_input_ is padded to the kernel
    // stride; drive_ points at it after accumulate_drive, or at the
    // batch's shared base drive after a delta-free adopt_drive.
    SpikeRaster raster_;
    AlignedVector exc_input_;
    const float* drive_ = nullptr;
    std::vector<std::uint8_t> exc_spiked_;
    std::vector<std::uint8_t> inh_spiked_;
};

/// Lockstep batch evaluation of several inference replicas of ONE model
/// over one shared input raster. Per timestep the dense propagation over
/// the shared weight matrix is computed once and broadcast; each replica
/// then applies its own overlay state. Amortising the propagation (and,
/// through run_sample_into(raster), the encoding) across the batch is the
/// fi campaign's >= 2x speedup over the legacy snapshot/restore engine.
class BatchRunner {
public:
    /// All runtimes must share `model`, be inference-mode (learning never
    /// enabled), and stay alive for the runner's lifetime.
    BatchRunner(const NetworkModel& model, std::vector<NetworkRuntime*> runtimes);

    std::size_t size() const noexcept { return runtimes_.size(); }

    /// Runs one sample on every replica using `rng` as the shared encoder
    /// stream; returns one activity per replica, in runtime order.
    /// Replicas without weight patches match NetworkRuntime::run_sample
    /// bit-for-bit; patched replicas apply their patch as a drive delta
    /// (deterministic, last-ulp differences from the standalone path).
    std::vector<SampleActivity> run_sample(std::span<const float> image,
                                           util::Rng& rng);

    /// Encodes `image` from `rng` into a member raster and replays it
    /// through run_sample_into(raster, activities). Sizes are checked
    /// before any draw, so a throwing call leaves `rng` untouched.
    void run_sample_into(std::span<const float> image, util::Rng& rng,
                         std::span<SampleActivity> activities);

    /// The step loop: replays an already-encoded raster (exactly
    /// steps_per_sample steps, ascending indices below n_input) on every
    /// replica, one caller-owned activity per replica (activities.size()
    /// must equal size()). Throws std::invalid_argument before touching
    /// any replica. Records already sized to n_neurons are zeroed in
    /// place, so reusing them keeps the loop allocation-free.
    void run_sample_into(const SpikeRaster& raster,
                         std::span<SampleActivity> activities);

private:
    /// The step loop of run_sample_into(raster), past its checks.
    void replay(const SpikeRaster& raster, std::span<SampleActivity> activities);

    const NetworkModel& model_;
    std::vector<NetworkRuntime*> runtimes_;
    PoissonEncoder encoder_;
    SpikeRaster raster_;  ///< the image overload's encoded sample
    /// Padded shared drive buffer + per-row pointer table over the model
    /// matrix for the blocked accumulation kernel.
    AlignedVector base_drive_;
    std::vector<const float*> model_rows_;
};

}  // namespace snnfi::snn
