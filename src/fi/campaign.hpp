// Campaign engine: plans site x model x severity grids and executes them
// over the shared core::Session infrastructure.
//
// Execution strategy (Model/Runtime split, see snn/model.hpp):
//   * the attack-free baseline is trained once (Session artifact cache —
//     the cache counters prove it) and frozen into an immutable
//     snn::NetworkModel shared by every injection;
//   * inference-time models (stuck-at, bit-flip, dead/saturated neuron,
//     refractory stretch) run as pre-faulted snn::NetworkRuntimes — a
//     FaultOverlay over the shared model, no baseline snapshot/restore, no
//     weight copy — advanced in lockstep batches of kBatchCells cells
//     (snn::BatchRunner) so the dense input propagation is computed once
//     per batch, not per cell;
//   * each replica's Poisson eval stream is encoded once per execute()
//     into a packed snn::EncodedStream (replica_stream): its clean pass
//     decodes it, and every (replica, batch) job of run_lockstep_inference
//     replays the whole stream on one BatchRunner. A stream is dropped
//     when its round ends;
//   * a replica's clean pass depends only on the baseline, the eval set,
//     the seed and the replica index, so while early stopping may run a
//     further round, each round's parallel_for also prepares the next
//     replica (stream plus clean pass) on a core the batches leave idle;
//   * drift models (trains_under_fault()) are routed through the
//     AttackSuite's train-under-fault pipeline, so the paper's attacks
//     fall out as special cases with identical numbers;
//   * glitch cells (GlitchCellSpec) carry a time-resolved GlitchProfile:
//     constant profiles collapse onto the train-under-fault path (bit-for-
//     bit the static attacks), time-localised profiles compile into
//     snn::OverlaySchedules and ride the same lockstep inference batches
//     with per-segment overlay swaps;
//   * every injection is replicated over independent Poisson-encoding
//     streams, paired with a clean run of the same stream; a cell stops
//     early once the 95% CI of its accuracy drop is tight (statistical
//     early stopping), bounded by max_replicas.
//
// All replica seeds are index-derived and batch composition is fixed, so
// campaign output is byte-identical for any worker count. The clean
// reference classifiers are memoised on the engine, so repeated run_cells
// calls (a shard worker's checkpoint chunks) compute each replica's clean
// pass once; only its stream is encoded again. Results cache in the
// Session keyed by the campaign config, so several scenarios can present
// one campaign (detail table, sensitivity map) without re-executing it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "attack/glitch.hpp"
#include "fi/fault.hpp"
#include "fi/sites.hpp"
#include "snn/encoding.hpp"
#include "snn/model.hpp"
#include "util/table.hpp"

namespace snnfi::core {
class Session;
}
namespace snnfi::util {
class ThreadPool;
}

namespace snnfi::fi {

/// Statistical early stopping of a cell's replicas.
struct EarlyStopPolicy {
    bool enabled = true;
    std::size_t min_replicas = 3;   ///< always run at least this many
    std::size_t max_replicas = 10;  ///< hard cap per cell
    /// Stop once the 95% CI halfwidth of the accuracy drop (percentage
    /// points) falls below this.
    double ci_halfwidth_pct = 1.5;
};

/// One planned transient-glitch cell: a resolved time-resolved profile
/// (typically from circuit characterisation through the Session cache)
/// plus its stable display/cache id. Uniform constant profiles route
/// through the static train-under-fault path — the degenerate case that
/// reproduces the paper's attacks bit-for-bit; time-localised profiles
/// compile into scheduled overlays applied at inference over the trained
/// baseline (the externally-triggered threat model); train-mode cells run
/// STDP under the compiled schedule for a window of the training pass
/// (the paper's training-corruption threat model — the damage persists
/// after the rail recovers).
struct GlitchCellSpec {
    std::string id;                 ///< e.g. "rect:d0.8:o0.25:w0.25"
    attack::GlitchProfile profile;
    double severity = 0.0;          ///< depth VDD (or 0 for custom profiles)
    /// Spatial coupling: which neurons the dip reaches. The uniform
    /// default reproduces the paper's whole-layer attacks.
    attack::GlitchFootprint footprint;
    /// Train-mode: apply the compiled schedule while STDP is learning.
    bool train = false;
    /// The glitched slice of the training pass (fractions of the sample
    /// stream). [0, 1) with a constant profile is bit-for-bit the static
    /// train-under-fault path (fig7b-pinned).
    double train_begin = 0.0;
    double train_end = 1.0;
};

struct CampaignConfig {
    /// Fault models to sweep; empty = the standard library. Cleared (set
    /// to {}) when only glitch cells should run — see glitches.
    std::vector<std::shared_ptr<const FaultModel>> models;
    SitePlan sites;
    /// Transient VDD glitch cells (shape x depth x width x onset axes,
    /// resolved to profiles by the caller).
    std::vector<GlitchCellSpec> glitches;
    /// Inference-evaluation subset size (clamped to the session dataset).
    std::size_t eval_samples = 120;
    std::uint64_t seed = 0xCA30;  ///< root of the replica seed streams
    /// Mean drop beyond this many percentage points marks a cell critical.
    double critical_drop_pct = 5.0;
    EarlyStopPolicy early_stop;
    /// Independent training replicas per train-under-fault cell (drift
    /// models and train-mode glitch cells). Replica 0 trains under the
    /// session's default data/network seeds — bit-identical to the classic
    /// single-training campaign — and replicas >= 1 retrain under derived
    /// seed streams, so train-mode drops carry a 95% CI like the
    /// inference-path cells. 1 = single training (the default).
    std::size_t train_replicas = 1;

    /// Stable identity of this campaign for the Session artifact cache.
    std::string cache_key() const;
};

/// One executed (model, site, severity) grid cell.
struct CellResult {
    std::size_t plan_index = 0;  ///< position in the campaign's planning order
    std::string model;
    FaultSite site;
    std::string label;     ///< display id override (glitch cells); else site.id()
    /// Spatial-coupling bucket: the GlitchFootprint fingerprint for glitch
    /// cells ("whole", "sub:...", "strat:0.25@7"); fault-library cells are
    /// always whole-site.
    std::string footprint = "whole";
    double severity = 0.0;
    std::size_t replicas = 0;
    double accuracy_pct = 0.0;      ///< mean over replicas
    double drop_pct = 0.0;          ///< clean-paired accuracy drop, mean
    double ci_halfwidth_pct = 0.0;  ///< 95% CI halfwidth of the drop
    bool critical = false;
    bool early_stopped = false;  ///< CI criterion fired before max_replicas
    bool trained = false;        ///< train-under-fault path (drift models)
    bool scheduled = false;      ///< time-localised scheduled-overlay path

    std::string site_id() const { return label.empty() ? site.id() : label; }
};

struct CampaignResult {
    double baseline_accuracy_pct = 0.0;  ///< trained baseline (online metric)
    std::size_t evaluations = 0;  ///< inference passes (clean + faulty)
    std::size_t trainings = 0;    ///< train-under-fault runs (excl. baseline)
    std::vector<CellResult> cells;

    /// Per-cell table: one row per (model, site, severity).
    util::ResultTable detail_table(const std::string& title) const;
    /// Sensitivity map: mean/max drop and critical-fault rate aggregated
    /// per (model, layer, footprint) — fractional glitch footprints get
    /// their own strata instead of disappearing into the layer average.
    util::ResultTable sensitivity_map(const std::string& title) const;
    /// Full structured form: baseline, counters, cells, sensitivity map.
    std::string to_json() const;

    /// Recomputes evaluations/trainings from the per-cell replica counts
    /// (trainings = training replicas of trained cells; evaluations =
    /// faulty passes + the shared clean passes). Equals the counters a
    /// full single-process run accumulates, so shard merges reconstruct
    /// them exactly.
    void recount();
};

class CampaignEngine {
public:
    /// Cells advanced in one lockstep batch (shared dense propagation).
    /// Fixed — batch composition must not depend on the
    /// worker count, or campaign output would stop being byte-identical
    /// across machines.
    static constexpr std::size_t kBatchCells = 8;
    /// Stream id offset separating replica rng seeds from everything else
    /// derived from the campaign seed.
    static constexpr std::uint64_t kReplicaStream = 0x5EED0000;

    /// The session provides the thread pool, the cached trained baseline
    /// and the result cache; it must outlive the engine.
    CampaignEngine(core::Session& session, CampaignConfig config);
    ~CampaignEngine();

    const CampaignConfig& config() const noexcept { return config_; }

    /// Stream id offset separating train-replica seed derivations
    /// (CampaignConfig::train_replicas) from the inference replica streams.
    static constexpr std::uint64_t kTrainReplicaStream = 0x7EA10000;

    /// Runs the campaign, or returns the session-cached result of an
    /// identical earlier run.
    std::shared_ptr<const CampaignResult> run();

    /// Number of planned grid cells. The planning order is a pure function
    /// of (config, session workload), so every process planning the same
    /// campaign sees the same cell indices — the contract sharded
    /// campaigns (fi/shard.hpp) are built on.
    std::size_t plan_cells();

    /// Executes only the selected planned-cell indices (deduplicated;
    /// throws std::out_of_range on an invalid index). Per-cell numbers are
    /// bit-identical to the same cells of a full run(): cell outcomes
    /// never depend on which other cells share the batch. Counters are
    /// recounted over the included cells only. Not session-cached.
    CampaignResult run_cells(const std::vector<std::size_t>& selected);

private:
    struct Plan;
    /// One replica stream's clean pass: classifier + reference accuracy.
    struct CleanReplica;
    Plan make_plan();
    CampaignResult execute(Plan& plan, const std::vector<char>& include);

    core::Session& session_;
    CampaignConfig config_;
    /// Clean passes built so far, by replica index, valid for the baseline
    /// in clean_baseline_ (a different baseline drops them).
    std::vector<CleanReplica> clean_;
    std::shared_ptr<const snn::NetworkModel> clean_baseline_;
};

/// Replica `replica`'s eval stream: `images` encoded in order with the
/// model's encoder config and step count from the Rng seeded with
/// util::derive_seed(campaign_seed, kReplicaStream + replica).
snn::EncodedStream replica_stream(const snn::NetworkModel& model,
                                  std::span<const std::vector<float>> images,
                                  std::uint64_t campaign_seed, std::size_t replica);

/// One round of faulted lockstep inference: every listed cell under every
/// replica's encoded eval stream.
struct InferenceRound {
    std::shared_ptr<const snn::NetworkModel> model;   ///< shared by every cell
    /// One encoded eval stream per replica; each must match the model's
    /// step count, input size and encoder config.
    std::span<const snn::EncodedStream> streams;
    std::span<const snn::FaultOverlay> overlays;      ///< per cell id
    std::span<const snn::OverlaySchedule> schedules;  ///< per cell id, or empty
    std::span<const CellResult> labels;  ///< per cell id (span tags), or empty
    std::span<const std::size_t> cells;  ///< cell ids to run, in batch order
};

/// Receives one sample's activity for one (replica, cell): `replica`
/// indexes streams, `slot` indexes cells. Calls for distinct pairs may run
/// concurrently; calls for one pair arrive in sample order.
using InferenceSink =
    std::function<void(std::size_t replica, std::size_t slot, std::size_t sample,
                       const snn::SampleActivity& activity)>;

/// The campaign's inference scheduler. Cells are cut into fixed batches
/// of CampaignEngine::kBatchCells; one parallel_for runs one job per
/// (replica, batch), which builds the batch's runtimes from the
/// overlays/schedules and replays the replica's whole stream on one
/// BatchRunner. Every activity is independent of the worker count. When
/// `ahead` is set it runs as the first job of the same parallel_for, so
/// independent work (the campaign's next clean pass) takes a core the
/// batches leave idle. Throws std::invalid_argument on a stream that does
/// not match the model, before any job runs. Emits fi.batch (per replica
/// and batch) and fi.cell (one per cell and replica) spans.
void run_lockstep_inference(util::ThreadPool& pool, const InferenceRound& round,
                            const InferenceSink& sink,
                            const std::function<void()>& ahead = {});

}  // namespace snnfi::fi
