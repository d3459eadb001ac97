// The paper's five attack scenarios (§IV) as parameter-sweep runners.
//
//   Attack 1 (white box): corrupt the input current drivers -> scale the
//             per-spike membrane voltage change ("theta") by -20%..+20%.
//   Attack 2 (white box): threshold fault on 0-100% of the excitatory layer.
//   Attack 3 (white box): threshold fault on 0-100% of the inhibitory layer.
//   Attack 4 (white box): threshold fault on 100% of both layers.
//   Attack 5 (black box): shared VDD corrupts driver amplitude *and* both
//             layers' thresholds simultaneously, via the calibration bridge.
//
// Every sweep point trains a fresh Diehl&Cook network under the fault and
// reports the online accuracy (the paper's metric) next to the attack-free
// baseline. All points start from the same seed model, so they consume the
// same encoder stream: the suite encodes the training pass once into an
// snn::EncodedStream, a sweep splits its points into one contiguous
// lockstep group per worker, and every group (and the baseline) replays
// that stream on all its members (snn::Trainer). Results do not depend on
// the grouping.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "attack/calibration.hpp"
#include "attack/fault_model.hpp"
#include "snn/model.hpp"
#include "snn/overlay.hpp"
#include "snn/trainer.hpp"
#include "util/thread_pool.hpp"

namespace snnfi::attack {

struct AttackRunConfig {
    snn::DiehlCookConfig network;
    std::size_t train_samples = 1000;
    std::uint64_t data_seed = 42;
    std::uint64_t network_seed = 7;
    AttackPhase phase = AttackPhase::kTrainingAndInference;
    std::size_t eval_window = 250;
    /// Parallel workers for sweeps; 0 = hardware concurrency.
    std::size_t max_workers = 0;
};

struct AttackOutcome {
    FaultSpec fault;
    double vdd = 0.0;              ///< attack-5 sweeps; 0 otherwise
    double accuracy = 0.0;         ///< online accuracy under the fault
    double retro_accuracy = 0.0;
    double degradation_pct = 0.0;  ///< relative to baseline (paper convention)
    double exc_spikes_per_sample = 0.0;
};

/// A training-time glitch: a per-sample step-axis fault schedule applied
/// while STDP is learning, over a window of the training pass. The paper's
/// high-leverage threat model — a transient supply dip that corrupts
/// crucial training parameters and persists after the rail recovers.
struct ScheduledTrainingSpec {
    snn::OverlaySchedule schedule;
    /// The glitched slice of the training pass, as fractions of the
    /// sample stream: the schedule is installed for samples in
    /// [sample_begin, sample_end) and retracted outside. [0, 1) hits the
    /// whole pass — with a full-range constant schedule that is exactly
    /// the static train-under-fault path, bit for bit.
    double sample_begin = 0.0;
    double sample_end = 1.0;
};

class AttackSuite {
public:
    /// Builds the suite over a fixed dataset. The baseline (fault-free)
    /// accuracy is computed lazily on first use and cached.
    AttackSuite(snn::Dataset dataset, AttackRunConfig config);
    /// Shares a dataset (e.g. a core::Session's cached one) instead of
    /// copying it; only a dataset longer than config.train_samples is
    /// copied, truncated.
    AttackSuite(std::shared_ptr<const snn::Dataset> dataset, AttackRunConfig config);

    const AttackRunConfig& config() const noexcept { return config_; }
    const snn::Dataset& dataset() const noexcept { return *dataset_; }

    /// Fault-free reference accuracy (cached).
    double baseline_accuracy();
    double baseline_retro_accuracy();
    /// Full training metrics of the fault-free baseline (trains on first
    /// use like baseline_accuracy()) — what the artifact store persists.
    const snn::TrainResult& baseline_result();
    /// Installs an externally trained baseline (e.g. a store::ArtifactStore
    /// hit) so baseline_accuracy()/baseline_model() never train. Throws
    /// std::invalid_argument on a null model; must be called before the
    /// lazy baseline training has happened.
    void adopt_baseline(std::shared_ptr<const snn::NetworkModel> model,
                        snn::TrainResult result);
    /// The trained fault-free baseline as a frozen, shareable model.
    /// Trains on first use like baseline_accuracy(). The src/fi campaign
    /// engine builds one cheap NetworkRuntime per (cell, replica) on top
    /// of this shared model instead of snapshot/restoring a network.
    std::shared_ptr<const snn::NetworkModel> baseline_model();

    /// The training pass every point and the baseline replay: the dataset
    /// encoded once from the seed model's init_rng(). Built on first use,
    /// once, thread-safely; a suite whose baseline was adopted and that
    /// trains no point never builds it.
    const snn::EncodedStream& training_stream();

    /// Runs one fault configuration.
    AttackOutcome run(const FaultSpec& fault);
    /// Runs many fault configurations in parallel: training-phase points
    /// as lockstep groups, inference-only points one pool task each over
    /// the trained baseline. Results are index-addressed, so the output is
    /// identical for any worker count.
    std::vector<AttackOutcome> run_many(const std::vector<FaultSpec>& faults);

    /// Trains one replica from the shared seed model with `spec.schedule`
    /// installed for the glitched sample window — STDP runs under the
    /// mid-epoch glitch, inference outside the window is clean.
    AttackOutcome run_scheduled(const ScheduledTrainingSpec& spec);
    /// Parallel form of run_scheduled (lockstep groups, index-addressed,
    /// worker-count independent, like run_many).
    std::vector<AttackOutcome> run_scheduled_many(
        const std::vector<ScheduledTrainingSpec>& specs);

    /// Shares an external worker pool (e.g. a core::Session's) instead of
    /// this suite building its own per run_many call. The pool must outlive
    /// the suite; pass nullptr to detach.
    void set_thread_pool(util::ThreadPool* pool) noexcept { pool_ = pool; }

    /// Attack 5, Fig. 9a: VDD sweep through the calibration bridge (the
    /// defense replays' entry point; the other paper sweeps are declarative
    /// Session scenarios, core/scenario.hpp).
    std::vector<AttackOutcome> attack5_vdd(const VddCalibration& calibration,
                                           const std::vector<double>& vdds);

private:
    /// Called before point `point`'s runtime trains sample `sample`.
    using PointHook = std::function<void(std::size_t point, snn::NetworkRuntime& runtime,
                                         std::size_t sample)>;
    /// Trains one seed-model replica per overlay on the dataset and returns
    /// their results in overlay order. The training stream is acquired in
    /// the calling thread; the points are split into
    /// min(points, workers) contiguous lockstep groups, one pool task per
    /// group; inside a pool job (where a nested parallel_for runs
    /// serially) all points form one group.
    std::vector<snn::TrainResult> train_points(
        const std::vector<snn::FaultOverlay>& overlays, const PointHook& hook = {});
    /// Runs body(0..tasks-1) on the shared pool, or else on a local pool
    /// of at most `tasks` workers.
    void for_each_task(std::size_t tasks, const std::function<void(std::size_t)>& body);
    AttackOutcome evaluate_inference_only(const FaultSpec& fault);
    /// The shared untrained model every sweep point trains from (same
    /// random init + RNG stream as the legacy per-point construction).
    const std::shared_ptr<const snn::NetworkModel>& seed_model();

    std::shared_ptr<const snn::Dataset> dataset_;
    AttackRunConfig config_;
    std::shared_ptr<const snn::NetworkModel> seed_model_;
    std::once_flag training_stream_once_;
    std::unique_ptr<const snn::EncodedStream> training_stream_;
    std::optional<snn::TrainResult> baseline_;
    std::shared_ptr<const snn::NetworkModel> baseline_model_;
    util::ThreadPool* pool_ = nullptr;  ///< not owned; optional shared pool
};

}  // namespace snnfi::attack
