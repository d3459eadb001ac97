#include "fi/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "core/session.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "snn/classifier.hpp"
#include "snn/runtime.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace snnfi::fi {

namespace {

constexpr double kZ95 = 1.96;            ///< 95% normal CI quantile
constexpr std::size_t kNumClasses = 10;  ///< digit workload
constexpr std::uint64_t kReplicaStream = CampaignEngine::kReplicaStream;
constexpr std::size_t kBatchCells = CampaignEngine::kBatchCells;

/// Campaign instruments, resolved once. Recording is lock-free and a no-op
/// while telemetry is off; timings are never fed back into the campaign,
/// so results stay bit-identical with telemetry on or off.
struct FiMetrics {
    obs::Counter& cells;
    obs::Gauge& cells_per_s;
    obs::Histogram& train_ms;
    obs::Histogram& infer_batch_ms;  ///< one (replica, batch) of lockstep inference
    obs::Histogram& clean_ms;

    static FiMetrics& get() {
        static const std::vector<double> bounds{1,   3,    10,   30,  100,
                                                300, 1000, 3000, 10000};
        static FiMetrics metrics{
            obs::Registry::global().counter("fi.cells"),
            obs::Registry::global().gauge("fi.cells_per_s"),
            obs::Registry::global().histogram("fi.phase.train_ms", bounds),
            obs::Registry::global().histogram("fi.phase.infer_batch_ms", bounds),
            obs::Registry::global().histogram("fi.phase.clean_ms", bounds)};
        return metrics;
    }
};

double ms_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

std::string yes_no(bool value) { return value ? "yes" : "no"; }

/// Aggregation bucket label of a cell (sensitivity-map row key).
std::string layer_label(const FaultSite& site) {
    switch (site.kind) {
        case SiteKind::kSynapse: return "input";
        case SiteKind::kNeuron:
        case SiteKind::kParameter:
            switch (site.layer) {
                case attack::TargetLayer::kExcitatory: return "excitatory";
                case attack::TargetLayer::kInhibitory: return "inhibitory";
                default: return "network";
            }
    }
    return "?";
}

}  // namespace

/// A clean (fault-free) inference pass over the eval subset with one
/// replica's encoding stream: the classifier assignments and the paired
/// reference accuracy for that stream.
struct CampaignEngine::CleanReplica {
    snn::ActivityClassifier classifier{1, kNumClasses};
    double accuracy_pct = 0.0;
    bool built = false;
};

std::string CampaignConfig::cache_key() const {
    std::ostringstream os;
    os << "models=";
    for (const auto& model : models) os << model->name() << "+";
    os << "|glitches=";
    for (const auto& glitch : glitches) {
        os << glitch.id << "@" << glitch.severity << "{"
           << glitch.profile.fingerprint() << "}["
           << glitch.footprint.fingerprint() << "]";
        if (glitch.train)
            os << "!train:" << glitch.train_begin << "-" << glitch.train_end;
        os << "+";
    }
    os << "|layers=";
    for (const auto layer : sites.layers) os << attack::to_string(layer) << "+";
    os << "|max_sites=" << sites.max_sites << "|site_seed=" << sites.sample_seed
       << "|eval=" << eval_samples << "|seed=" << seed
       << "|crit=" << critical_drop_pct << "|es=" << early_stop.enabled
       << "," << early_stop.min_replicas << "," << early_stop.max_replicas
       << "," << early_stop.ci_halfwidth_pct << "|treps=" << train_replicas;
    return os.str();
}

util::ResultTable CampaignResult::detail_table(const std::string& title) const {
    util::ResultTable table(title, {"model", "site", "severity", "replicas",
                                    "accuracy_pct", "drop_pct", "ci_halfwidth_pct",
                                    "critical", "early_stopped", "mode"});
    for (const auto& cell : cells) {
        table.add_row({cell.model, cell.site_id(), cell.severity,
                       static_cast<double>(cell.replicas), cell.accuracy_pct,
                       cell.drop_pct, cell.ci_halfwidth_pct, yes_no(cell.critical),
                       yes_no(cell.early_stopped),
                       std::string(cell.trained
                                       ? (cell.scheduled ? "train+sched" : "train")
                                       : (cell.scheduled ? "sched" : "infer"))});
    }
    return table;
}

util::ResultTable CampaignResult::sensitivity_map(const std::string& title) const {
    struct Bucket {
        std::string model;
        std::string layer;
        std::string footprint;
        std::size_t cells = 0;
        std::size_t critical = 0;
        std::size_t replicas = 0;
        double drop_sum = 0.0;
        double drop_max = 0.0;
    };
    // First-appearance order: cells come out of the engine in fault-library
    // taxonomy order, and the map rows should match.
    std::vector<Bucket> buckets;
    for (const auto& cell : cells) {
        const std::string layer = layer_label(cell.site);
        auto it = std::find_if(buckets.begin(), buckets.end(), [&](const Bucket& b) {
            return b.model == cell.model && b.layer == layer &&
                   b.footprint == cell.footprint;
        });
        if (it == buckets.end()) {
            buckets.push_back(
                Bucket{cell.model, layer, cell.footprint, 0, 0, 0, 0.0, 0.0});
            it = std::prev(buckets.end());
        }
        ++it->cells;
        it->critical += cell.critical ? 1 : 0;
        it->replicas += cell.replicas;
        it->drop_sum += cell.drop_pct;
        it->drop_max = std::max(it->drop_max, cell.drop_pct);
    }

    util::ResultTable table(title, {"model", "layer", "footprint", "cells",
                                    "mean_drop_pct", "max_drop_pct",
                                    "critical_rate_pct", "mean_replicas"});
    for (const Bucket& bucket : buckets) {
        const double n = static_cast<double>(bucket.cells);
        table.add_row({bucket.model, bucket.layer, bucket.footprint, n,
                       bucket.drop_sum / n, bucket.drop_max,
                       100.0 * static_cast<double>(bucket.critical) / n,
                       static_cast<double>(bucket.replicas) / n});
    }
    return table;
}

std::string CampaignResult::to_json() const {
    std::ostringstream os;
    os << "{\"baseline_accuracy_pct\":" << util::json_number(baseline_accuracy_pct)
       << ",\"evaluations\":" << evaluations << ",\"trainings\":" << trainings
       << ",\"cells\":[";
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const CellResult& cell = cells[c];
        if (c) os << ",";
        os << "{\"model\":\"" << util::json_escape(cell.model) << "\",\"site\":\""
           << util::json_escape(cell.site_id()) << "\",\"footprint\":\""
           << util::json_escape(cell.footprint)
           << "\",\"severity\":" << util::json_number(cell.severity)
           << ",\"replicas\":" << cell.replicas
           << ",\"accuracy_pct\":" << util::json_number(cell.accuracy_pct)
           << ",\"drop_pct\":" << util::json_number(cell.drop_pct)
           << ",\"ci_halfwidth_pct\":" << util::json_number(cell.ci_halfwidth_pct)
           << ",\"critical\":" << (cell.critical ? "true" : "false")
           << ",\"early_stopped\":" << (cell.early_stopped ? "true" : "false")
           << ",\"trained\":" << (cell.trained ? "true" : "false")
           << ",\"scheduled\":" << (cell.scheduled ? "true" : "false") << "}";
    }
    os << "],\"sensitivity_map\":" << sensitivity_map("sensitivity map").to_json()
       << "}";
    return os.str();
}

void CampaignResult::recount() {
    evaluations = 0;
    trainings = 0;
    std::size_t max_inference_replicas = 0;
    for (const CellResult& cell : cells) {
        if (cell.trained) {
            trainings += cell.replicas;
        } else {
            evaluations += cell.replicas;
            max_inference_replicas = std::max(max_inference_replicas, cell.replicas);
        }
    }
    // The clean reference passes are shared across cells: one per replica
    // stream, up to the deepest replica count any inference cell reached.
    evaluations += max_inference_replicas;
}

// ---------------------------------------------------------------- planning

/// Everything execute() needs, planned up front: the cell skeletons in
/// their stable planning order plus the per-cell execution payloads.
struct CampaignEngine::Plan {
    std::shared_ptr<attack::AttackSuite> suite;
    std::shared_ptr<const snn::NetworkModel> baseline;
    double baseline_pct = 0.0;
    std::size_t eval_n = 0;
    snn::DiehlCookConfig network_config;

    std::vector<CellResult> cells;             ///< skeletons, plan_index set
    std::vector<const FaultModel*> cell_model; ///< nullptr for glitch cells
    std::vector<std::size_t> training_cells;
    std::vector<attack::FaultSpec> training_specs;  ///< parallel to training_cells
    std::vector<std::size_t> train_sched_cells;
    std::vector<attack::ScheduledTrainingSpec> train_sched_specs;
    std::vector<std::size_t> inference_cells;
    std::vector<snn::OverlaySchedule> schedules;    ///< per cell
};

CampaignEngine::CampaignEngine(core::Session& session, CampaignConfig config)
    : session_(session), config_(std::move(config)) {
    if (config_.models.empty() && config_.glitches.empty())
        config_.models = standard_fault_library();
    if (!config_.models.empty() && config_.sites.layers.empty())
        throw std::invalid_argument("CampaignConfig: no target layers");
}

CampaignEngine::~CampaignEngine() = default;

std::shared_ptr<const CampaignResult> CampaignEngine::run() {
    const core::RunOptions& options = session_.options();
    std::ostringstream key;
    key << "fi_campaign|" << config_.cache_key() << "|quick=" << options.quick
        << "|samples=" << options.samples() << "|neurons=" << options.neurons()
        << "|data_seed=" << options.data_seed
        << "|network_seed=" << options.network_seed;
    return session_.artifact<CampaignResult>(key.str(), [&] {
        Plan plan = make_plan();
        const std::vector<char> all(plan.cells.size(), 1);
        return std::make_shared<CampaignResult>(execute(plan, all));
    });
}

std::size_t CampaignEngine::plan_cells() { return make_plan().cells.size(); }

CampaignResult CampaignEngine::run_cells(const std::vector<std::size_t>& selected) {
    Plan plan = make_plan();
    std::vector<char> include(plan.cells.size(), 0);
    for (const std::size_t index : selected) {
        if (index >= plan.cells.size())
            throw std::out_of_range("run_cells: cell index out of range");
        include[index] = 1;
    }
    return execute(plan, include);
}

CampaignEngine::Plan CampaignEngine::make_plan() {
    Plan plan;
    plan.suite = session_.attack_suite();
    const bool quick = session_.options().quick;
    plan.baseline_pct = plan.suite->baseline_accuracy() * 100.0;
    // The trained baseline, frozen once and shared by every replica.
    plan.baseline = plan.suite->baseline_model();
    const snn::Dataset& data = plan.suite->dataset();
    plan.network_config = plan.suite->config().network;
    plan.eval_n =
        std::min(config_.eval_samples == 0 ? data.size() : config_.eval_samples,
                 data.size());
    if (plan.eval_n == 0) throw std::logic_error("fi campaign: empty eval set");

    // --- the site x model x severity grid -------------------------------
    for (const auto& model : config_.models) {
        std::vector<FaultSite> sites;
        if (model->network_wide()) {
            FaultSite site;
            site.kind = SiteKind::kParameter;
            site.layer = attack::TargetLayer::kNone;
            sites.push_back(site);
        } else {
            sites = enumerate_sites(plan.network_config, model->site_kind(),
                                    config_.sites);
        }
        for (const FaultSite& site : sites) {
            for (const double severity : model->severity_grid(quick)) {
                CellResult cell;
                cell.plan_index = plan.cells.size();
                cell.model = model->name();
                cell.site = site;
                cell.severity = severity;
                cell.trained = model->trains_under_fault();
                if (cell.trained) {
                    plan.training_cells.push_back(plan.cells.size());
                    plan.training_specs.push_back(model->to_fault_spec(site, severity));
                } else {
                    plan.inference_cells.push_back(plan.cells.size());
                }
                plan.cells.push_back(std::move(cell));
                plan.cell_model.push_back(model.get());
            }
        }
    }

    // --- glitch cells: compiled time-resolved profiles ------------------
    // Uniform constant profiles collapse onto the exact static
    // train-under-fault path (they ARE the paper's attacks); time-localised
    // profiles become scheduled overlays evaluated at inference on the
    // trained baseline; train-mode cells run STDP under the compiled
    // schedule for their window of the training pass.
    const attack::GlitchCompiler compiler(plan.network_config);
    for (const GlitchCellSpec& glitch : config_.glitches) {
        CellResult cell;
        cell.plan_index = plan.cells.size();
        cell.model = "vdd_glitch";
        cell.site.kind = SiteKind::kParameter;
        cell.site.layer = glitch.footprint.layer;
        cell.label = glitch.id;
        cell.footprint = glitch.footprint.fingerprint();
        cell.severity = glitch.severity;
        if (glitch.train) {
            cell.trained = true;
            cell.scheduled = true;
            plan.train_sched_cells.push_back(plan.cells.size());
            attack::ScheduledTrainingSpec spec;
            spec.schedule = compiler.compile(glitch.profile, glitch.footprint);
            spec.sample_begin = glitch.train_begin;
            spec.sample_end = glitch.train_end;
            plan.train_sched_specs.push_back(std::move(spec));
        } else if (glitch.profile.is_constant() && glitch.footprint.is_uniform()) {
            cell.trained = true;
            plan.training_cells.push_back(plan.cells.size());
            plan.training_specs.push_back(glitch.profile.to_fault_spec());
        } else {
            cell.scheduled = true;
            plan.inference_cells.push_back(plan.cells.size());
            plan.schedules.resize(plan.cells.size() + 1);
            plan.schedules[plan.cells.size()] =
                compiler.compile(glitch.profile, glitch.footprint);
        }
        plan.cells.push_back(std::move(cell));
        plan.cell_model.push_back(nullptr);
    }
    plan.schedules.resize(plan.cells.size());
    return plan;
}

// --------------------------------------------------------------- execution

CampaignResult CampaignEngine::execute(Plan& plan, const std::vector<char>& include) {
    obs::Span exec_span("fi.execute");
    const auto exec_start = std::chrono::steady_clock::now();
    const bool quick = session_.options().quick;
    const snn::Dataset& data = plan.suite->dataset();
    const std::size_t eval_n = plan.eval_n;
    const double baseline_pct = plan.baseline_pct;

    CampaignResult result;
    result.baseline_accuracy_pct = baseline_pct;
    constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    std::vector<std::size_t> slot(plan.cells.size(), kNone);
    for (std::size_t c = 0; c < plan.cells.size(); ++c) {
        if (!include[c]) continue;
        slot[c] = result.cells.size();
        result.cells.push_back(plan.cells[c]);
    }
    exec_span.tag("cells", static_cast<double>(result.cells.size()));

    // --- train-under-fault cells (drift models + glitch cells) ----------
    // Replica 0 always runs the session-default suite, so a
    // train_replicas == 1 campaign is bit-identical to the classic
    // engine; replicas >= 1 retrain under derived data/network seed
    // streams and are paired against *their own* suite's baseline.
    std::vector<std::size_t> tr_cells;          // plan indices, selected
    std::vector<attack::FaultSpec> tr_specs;
    for (std::size_t f = 0; f < plan.training_cells.size(); ++f) {
        if (!include[plan.training_cells[f]]) continue;
        tr_cells.push_back(plan.training_cells[f]);
        tr_specs.push_back(plan.training_specs[f]);
    }
    std::vector<std::size_t> ts_cells;
    std::vector<attack::ScheduledTrainingSpec> ts_specs;
    for (std::size_t f = 0; f < plan.train_sched_cells.size(); ++f) {
        if (!include[plan.train_sched_cells[f]]) continue;
        ts_cells.push_back(plan.train_sched_cells[f]);
        ts_specs.push_back(plan.train_sched_specs[f]);
    }

    if (!tr_cells.empty() || !ts_cells.empty()) {
        const std::size_t train_reps =
            std::max<std::size_t>(1, config_.train_replicas);
        std::vector<std::vector<double>> tr_drops(tr_cells.size());
        std::vector<std::vector<double>> tr_accs(tr_cells.size());
        std::vector<std::vector<double>> ts_drops(ts_cells.size());
        std::vector<std::vector<double>> ts_accs(ts_cells.size());
        for (std::size_t r = 0; r < train_reps; ++r) {
            obs::Span replica_span("fi.train");
            replica_span.tag("replica", static_cast<double>(r));
            replica_span.tag("cells",
                             static_cast<double>(tr_cells.size() + ts_cells.size()));
            const auto replica_start = std::chrono::steady_clock::now();
            std::shared_ptr<attack::AttackSuite> suite = plan.suite;
            if (r > 0) {
                // Independent data + weight-init streams per replica; the
                // replica suite's baseline (and its Session/store caching)
                // is shared by every train cell of the campaign.
                const core::RunOptions& options = session_.options();
                core::WorkloadOverrides overrides;
                overrides.data_seed =
                    util::derive_seed(options.data_seed, kTrainReplicaStream + r);
                overrides.network_seed = util::derive_seed(
                    options.network_seed, kTrainReplicaStream + r);
                suite = session_.attack_suite(
                    overrides, attack::AttackPhase::kTrainingAndInference);
            }
            const double replica_baseline_pct = suite->baseline_accuracy() * 100.0;
            if (!tr_specs.empty()) {
                const std::vector<attack::AttackOutcome> outcomes =
                    suite->run_many(tr_specs);
                for (std::size_t f = 0; f < tr_cells.size(); ++f) {
                    const double accuracy_pct = outcomes[f].accuracy * 100.0;
                    tr_accs[f].push_back(accuracy_pct);
                    tr_drops[f].push_back(replica_baseline_pct - accuracy_pct);
                }
            }
            if (!ts_specs.empty()) {
                const std::vector<attack::AttackOutcome> outcomes =
                    suite->run_scheduled_many(ts_specs);
                for (std::size_t f = 0; f < ts_cells.size(); ++f) {
                    const double accuracy_pct = outcomes[f].accuracy * 100.0;
                    ts_accs[f].push_back(accuracy_pct);
                    ts_drops[f].push_back(replica_baseline_pct - accuracy_pct);
                }
            }
            FiMetrics::get().train_ms.observe(ms_since(replica_start));
        }
        const auto finalize = [&](CellResult& cell, const std::vector<double>& drops,
                                  const std::vector<double>& accs) {
            const std::size_t n = drops.size();
            cell.replicas = n;
            cell.accuracy_pct = util::mean(accs);
            cell.drop_pct = util::mean(drops);
            cell.ci_halfwidth_pct =
                n > 1 ? kZ95 * util::stddev(drops) / std::sqrt(static_cast<double>(n))
                      : 0.0;
            cell.critical = cell.drop_pct > config_.critical_drop_pct;
        };
        for (std::size_t f = 0; f < tr_cells.size(); ++f)
            finalize(result.cells[slot[tr_cells[f]]], tr_drops[f], tr_accs[f]);
        for (std::size_t f = 0; f < ts_cells.size(); ++f)
            finalize(result.cells[slot[ts_cells[f]]], ts_drops[f], ts_accs[f]);
    }

    // --- behavioural models: batched Model/Runtime inference path -------
    std::vector<std::size_t> selected_inference;
    for (const std::size_t c : plan.inference_cells) {
        if (include[c]) selected_inference.push_back(c);
    }

    EarlyStopPolicy es = config_.early_stop;
    // Quick mode always runs a fixed replica count: smoke runs and CI must
    // be shape-stable, so early stopping never activates (documented
    // invariant, enforced here rather than in every scenario config).
    if (quick) es.enabled = false;
    const std::size_t min_reps = std::max<std::size_t>(1, es.min_replicas);
    const std::size_t max_reps =
        es.enabled ? std::max(min_reps, es.max_replicas) : min_reps;

    // One overlay per selected inference cell, built up front from the
    // topology. Scheduled glitch cells have an empty base overlay: their
    // faults arrive through the compiled schedule instead.
    std::vector<snn::FaultOverlay> overlays(plan.cells.size());
    for (const std::size_t c : selected_inference) {
        if (plan.cell_model[c] == nullptr) continue;
        plan.cell_model[c]->build_overlay(overlays[c], plan.network_config,
                                          plan.cells[c].site,
                                          plan.cells[c].severity);
    }

    // Clean passes persist on the engine across execute() calls: they
    // depend only on the baseline, the eval set and the replica index.
    if (clean_baseline_ != plan.baseline) {
        clean_.clear();
        clean_baseline_ = plan.baseline;
    }
    if (clean_.size() < max_reps) clean_.resize(max_reps);
    const std::span<const std::vector<float>> eval_images =
        std::span(data.images).first(eval_n);
    const auto build_clean = [&](std::size_t replica, const snn::EncodedStream& stream) {
        snn::NetworkRuntime runtime(plan.baseline);
        snn::ActivityClassifier classifier(plan.network_config.n_neurons,
                                           kNumClasses);
        snn::SpikeRaster raster;
        std::vector<snn::SampleActivity> activity(eval_n);
        for (std::size_t i = 0; i < eval_n; ++i) {
            stream.decode(i, raster);
            runtime.run_sample_into(raster, activity[i]);
            classifier.accumulate(activity[i].exc_counts, data.labels[i]);
        }
        classifier.assign_labels();
        std::size_t correct = 0;
        for (std::size_t i = 0; i < eval_n; ++i) {
            if (classifier.predict(activity[i].exc_counts) == data.labels[i])
                ++correct;
        }
        CleanReplica& slot_ref = clean_[replica];
        slot_ref.classifier = std::move(classifier);
        slot_ref.accuracy_pct =
            100.0 * static_cast<double>(correct) / static_cast<double>(eval_n);
        slot_ref.built = true;
    };
    // Encodes one replica's stream, and runs its clean pass unless an
    // earlier execute() memoised it. Task bodies run on pool workers, where
    // this thread's current span is invisible: `ctx` is captured before
    // dispatch.
    const obs::Context ctx = obs::current_context();
    const auto prepare = [&](std::size_t replica) {
        const bool memoised = clean_[replica].built;
        obs::Span span(memoised ? "fi.stream" : "fi.clean", ctx);
        span.tag("replica", static_cast<double>(replica));
        const auto start = std::chrono::steady_clock::now();
        snn::EncodedStream stream =
            replica_stream(*plan.baseline, eval_images, config_.seed, replica);
        if (!memoised) {
            build_clean(replica, stream);
            FiMetrics::get().clean_ms.observe(ms_since(start));
        }
        return stream;
    };

    // Per-cell replica outcomes, grown round by round. Every open cell has
    // the same replica count each round; run_lockstep_inference cuts a
    // round into fixed-size batches, so results stay byte-identical for
    // any worker count — and a cell's replica sequence never depends on
    // which other cells are included, which is what makes shard outputs
    // bit-identical to single-process runs.
    std::vector<std::vector<double>> drops(plan.cells.size());
    std::vector<std::vector<double>> accuracies(plan.cells.size());
    std::vector<std::size_t> open = selected_inference;
    std::size_t replicas_done = 0;
    // The streams of replicas replicas_done, replicas_done + 1, ...: the
    // current round's, or the one the previous round prepared ahead.
    std::vector<snn::EncodedStream> streams;
    while (!open.empty() && replicas_done < max_reps) {
        const std::size_t round_replicas =
            replicas_done == 0 ? min_reps : replicas_done + 1;
        const std::size_t ready = streams.size();
        std::vector<std::optional<snn::EncodedStream>> missing(
            round_replicas - replicas_done - ready);
        session_.pool().parallel_for(missing.size(), [&](std::size_t m) {
            missing[m].emplace(prepare(replicas_done + ready + m));
        });
        for (std::optional<snn::EncodedStream>& stream : missing)
            streams.push_back(std::move(*stream));
        // Only an early-stopping campaign can need replica round_replicas.
        std::optional<snn::EncodedStream> next;
        std::function<void()> ahead;
        if (es.enabled && round_replicas < max_reps)
            ahead = [&] { next.emplace(prepare(round_replicas)); };

        // Correct predictions per (new replica, open cell).
        std::vector<std::size_t> correct(streams.size() * open.size(), 0);
        InferenceRound round;
        round.model = plan.baseline;
        round.streams = streams;
        round.overlays = overlays;
        round.schedules = plan.schedules;
        round.labels = plan.cells;
        round.cells = open;
        run_lockstep_inference(
            session_.pool(), round,
            [&](std::size_t j, std::size_t k, std::size_t sample,
                const snn::SampleActivity& activity) {
                const snn::ActivityClassifier& reference =
                    clean_[replicas_done + j].classifier;
                if (reference.predict(activity.exc_counts) == data.labels[sample])
                    ++correct[j * open.size() + k];
            },
            ahead);
        // Merge replica by replica: each cell's replica sequence is
        // identical for any worker count.
        for (std::size_t j = 0; j < streams.size(); ++j) {
            for (std::size_t k = 0; k < open.size(); ++k) {
                const std::size_t c = open[k];
                const double accuracy_pct =
                    100.0 * static_cast<double>(correct[j * open.size() + k]) /
                    static_cast<double>(eval_n);
                drops[c].push_back(clean_[replicas_done + j].accuracy_pct -
                                   accuracy_pct);
                accuracies[c].push_back(accuracy_pct);
            }
        }
        streams.clear();
        if (next) streams.push_back(std::move(*next));
        replicas_done = round_replicas;

        std::vector<std::size_t> still_open;
        for (const std::size_t c : open) {
            CellResult& cell = result.cells[slot[c]];
            const std::size_t n = drops[c].size();
            cell.replicas = n;
            cell.drop_pct = util::mean(drops[c]);
            cell.accuracy_pct = util::mean(accuracies[c]);
            cell.ci_halfwidth_pct =
                n > 1 ? kZ95 * util::stddev(drops[c]) / std::sqrt(static_cast<double>(n))
                      : 0.0;
            cell.critical = cell.drop_pct > config_.critical_drop_pct;
            if (!es.enabled) continue;  // fixed replica count: cell is done
            const bool tight = cell.ci_halfwidth_pct <= es.ci_halfwidth_pct;
            if (tight && n < max_reps) {
                cell.early_stopped = true;
            } else if (!tight && n < max_reps) {
                still_open.push_back(c);
            }
        }
        open = std::move(still_open);
    }

    result.recount();
    FiMetrics::get().cells.add(result.cells.size());
    const double exec_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      exec_start)
            .count();
    if (exec_seconds > 0.0 && !result.cells.empty())
        FiMetrics::get().cells_per_s.set(
            static_cast<double>(result.cells.size()) / exec_seconds);
    return result;
}

// ------------------------------------------------------ lockstep inference

snn::EncodedStream replica_stream(const snn::NetworkModel& model,
                                  std::span<const std::vector<float>> images,
                                  std::uint64_t campaign_seed, std::size_t replica) {
    util::Rng rng(util::derive_seed(campaign_seed, kReplicaStream + replica));
    return snn::EncodedStream(images, rng, model.config().encoder,
                              model.config().steps_per_sample);
}

void run_lockstep_inference(util::ThreadPool& pool, const InferenceRound& round,
                            const InferenceSink& sink,
                            const std::function<void()>& ahead) {
    if (!round.model) throw std::invalid_argument("InferenceRound: no model");
    if (!round.schedules.empty() && round.schedules.size() != round.overlays.size())
        throw std::invalid_argument("InferenceRound: schedules/overlays mismatch");
    if (!round.labels.empty() && round.labels.size() != round.overlays.size())
        throw std::invalid_argument("InferenceRound: labels/overlays mismatch");
    for (const std::size_t id : round.cells) {
        if (id >= round.overlays.size())
            throw std::out_of_range("InferenceRound: cell id out of range");
    }
    const snn::NetworkModel& model = *round.model;
    for (const snn::EncodedStream& stream : round.streams) {
        // An empty stream has no images to take an input size from.
        if (stream.steps() != model.config().steps_per_sample ||
            (stream.size() > 0 && stream.n_input() != model.n_input()) ||
            stream.config() != model.config().encoder)
            throw std::invalid_argument("InferenceRound: stream does not match the model");
    }
    const std::size_t n_cells = round.cells.size();
    const std::size_t batches = (n_cells + kBatchCells - 1) / kBatchCells;
    const std::size_t lead = ahead ? 1 : 0;

    // Cross-thread span hand-off: capture before dispatch (see
    // obs/span.hpp), so every job nests under the caller's span even
    // though it runs on an arbitrary pool worker.
    const obs::Context ctx = obs::current_context();
    const auto infer_batch = [&](std::size_t r, std::size_t b) {
        const std::size_t first = b * kBatchCells;
        const std::size_t count = std::min(kBatchCells, n_cells - first);
        obs::Span batch_span("fi.batch", ctx);
        batch_span.tag("replica", static_cast<double>(r));
        batch_span.tag("cells", static_cast<double>(count));
        const auto batch_start = std::chrono::steady_clock::now();
        std::vector<snn::NetworkRuntime> runtimes;
        runtimes.reserve(count);
        for (std::size_t k = 0; k < count; ++k) {
            const std::size_t id = round.cells[first + k];
            // One fi.cell span per (cell, replica): overlay + runtime
            // construction. (The lockstep propagation is shared by the
            // batch, so per-cell *inference* time is not separable by
            // design.)
            obs::Span cell_span("fi.cell");
            cell_span.tag("cell", static_cast<double>(id));
            if (!round.labels.empty()) {
                cell_span.tag("model", round.labels[id].model);
                cell_span.tag("severity", round.labels[id].severity);
            }
            cell_span.tag("replica", static_cast<double>(r));
            runtimes.emplace_back(round.model, round.overlays[id]);
            if (!round.schedules.empty() && !round.schedules[id].empty())
                runtimes.back().set_schedule(round.schedules[id]);
        }
        std::vector<snn::NetworkRuntime*> members;
        members.reserve(count);
        for (snn::NetworkRuntime& runtime : runtimes) members.push_back(&runtime);
        snn::BatchRunner batch(model, std::move(members));
        std::vector<snn::SampleActivity> activities(count);
        const snn::EncodedStream& stream = round.streams[r];
        snn::SpikeRaster raster;
        for (std::size_t i = 0; i < stream.size(); ++i) {
            stream.decode(i, raster);
            batch.run_sample_into(raster, activities);
            for (std::size_t k = 0; k < count; ++k) sink(r, first + k, i, activities[k]);
        }
        FiMetrics::get().infer_batch_ms.observe(ms_since(batch_start));
    };

    pool.parallel_for(lead + round.streams.size() * batches, [&](std::size_t job) {
        if (job < lead) {
            ahead();
        } else {
            infer_batch((job - lead) / batches, (job - lead) % batches);
        }
    });
}

}  // namespace snnfi::fi
