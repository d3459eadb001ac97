#include "attack/scenarios.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "snn/classifier.hpp"
#include "util/stats.hpp"

namespace snnfi::attack {

AttackSuite::AttackSuite(snn::Dataset dataset, AttackRunConfig config)
    : AttackSuite(std::make_shared<const snn::Dataset>(std::move(dataset)), config) {}

AttackSuite::AttackSuite(std::shared_ptr<const snn::Dataset> dataset,
                         AttackRunConfig config)
    : dataset_(std::move(dataset)), config_(config) {
    if (!dataset_ || dataset_->size() == 0)
        throw std::invalid_argument("AttackSuite: empty dataset");
    if (config_.train_samples > dataset_->size())
        config_.train_samples = dataset_->size();
    if (config_.train_samples < dataset_->size()) {
        auto truncated = std::make_shared<snn::Dataset>(*dataset_);
        truncated->images.resize(config_.train_samples);
        truncated->labels.resize(config_.train_samples);
        dataset_ = std::move(truncated);
    }
}

const std::shared_ptr<const snn::NetworkModel>& AttackSuite::seed_model() {
    if (!seed_model_)
        seed_model_ = snn::NetworkModel::random(config_.network, config_.network_seed);
    return seed_model_;
}

const snn::EncodedStream& AttackSuite::training_stream() {
    std::call_once(training_stream_once_, [this] {
        const snn::NetworkModel& seed = *seed_model();
        util::Rng rng = seed.init_rng();
        training_stream_ = std::make_unique<const snn::EncodedStream>(
            dataset_->images, rng, seed.config().encoder, seed.config().steps_per_sample);
    });
    return *training_stream_;
}

double AttackSuite::baseline_accuracy() {
    if (!baseline_) {
        const snn::EncodedStream& stream = training_stream();
        snn::NetworkRuntime runtime(seed_model());
        snn::Trainer trainer(runtime, config_.eval_window);
        baseline_ = trainer.run_group(*dataset_, stream).front();
        baseline_model_ = runtime.freeze();
    }
    return baseline_->train_accuracy;
}

std::shared_ptr<const snn::NetworkModel> AttackSuite::baseline_model() {
    (void)baseline_accuracy();
    return baseline_model_;
}

double AttackSuite::baseline_retro_accuracy() {
    (void)baseline_accuracy();
    return baseline_->retro_accuracy;
}

const snn::TrainResult& AttackSuite::baseline_result() {
    (void)baseline_accuracy();
    return *baseline_;
}

void AttackSuite::adopt_baseline(std::shared_ptr<const snn::NetworkModel> model,
                                 snn::TrainResult result) {
    if (!model) throw std::invalid_argument("adopt_baseline: null model");
    if (baseline_)
        throw std::logic_error("adopt_baseline: baseline already trained");
    baseline_ = result;
    baseline_model_ = std::move(model);
}

namespace {

/// The glitched sample slice [begin, end) of a scheduled training spec.
struct SampleWindow {
    std::size_t begin = 0;
    std::size_t end = 0;
};

SampleWindow sample_window(const ScheduledTrainingSpec& spec, std::size_t samples) {
    if (spec.sample_begin < 0.0 || spec.sample_end > 1.0 ||
        spec.sample_begin >= spec.sample_end)
        throw std::invalid_argument(
            "AttackSuite: scheduled training window outside [0, 1]");
    const auto n = static_cast<double>(samples);
    SampleWindow window{static_cast<std::size_t>(spec.sample_begin * n + 0.5),
                        static_cast<std::size_t>(spec.sample_end * n + 0.5)};
    if (window.begin >= window.end) {
        // A non-empty fractional window must glitch at least one sample —
        // the sample-axis twin of the compiler's one-step clamp (a narrow
        // window must not silently train glitch-free).
        window.begin = std::min(window.begin, samples - 1);
        window.end = window.begin + 1;
    }
    return window;
}

AttackOutcome outcome_of(const snn::TrainResult& result, double base) {
    AttackOutcome outcome;
    outcome.accuracy = result.train_accuracy;
    outcome.retro_accuracy = result.retro_accuracy;
    outcome.exc_spikes_per_sample = result.mean_exc_spikes_per_sample;
    outcome.degradation_pct =
        base > 0.0 ? util::percent_change(outcome.accuracy, base) : 0.0;
    return outcome;
}

}  // namespace

std::vector<snn::TrainResult> AttackSuite::train_points(
    const std::vector<snn::FaultOverlay>& overlays, const PointHook& hook) {
    const std::size_t points = overlays.size();
    std::vector<snn::TrainResult> results(points);
    if (points == 0) return results;
    const std::shared_ptr<const snn::NetworkModel>& seed = seed_model();
    const snn::EncodedStream& stream = training_stream();

    const auto train_group = [&](std::size_t begin, std::size_t end) {
        // A deque never moves its elements, so member pointers stay valid.
        std::deque<snn::NetworkRuntime> runtimes;
        std::vector<snn::NetworkRuntime*> members;
        for (std::size_t p = begin; p < end; ++p) {
            runtimes.emplace_back(seed, overlays[p]);
            members.push_back(&runtimes.back());
        }
        snn::Trainer trainer(std::move(members), config_.eval_window);
        snn::MemberSampleHook member_hook;
        if (hook) {
            member_hook = [&](std::size_t member, std::size_t sample) {
                hook(begin + member, runtimes[member], sample);
            };
        }
        std::vector<snn::TrainResult> trained =
            trainer.run_group(*dataset_, stream, nullptr, member_hook);
        std::move(trained.begin(), trained.end(),
                  results.begin() + static_cast<std::ptrdiff_t>(begin));
    };

    const std::size_t workers =
        util::ThreadPool::in_job()
            ? 1
            : (pool_ ? pool_->max_workers()
                     : util::resolve_worker_count(config_.max_workers));
    const std::size_t groups = std::min(points, workers);
    for_each_task(groups, [&](std::size_t g) {
        train_group(g * points / groups, (g + 1) * points / groups);
    });
    return results;
}

void AttackSuite::for_each_task(std::size_t tasks,
                                const std::function<void(std::size_t)>& body) {
    if (tasks == 0) return;  // a local ThreadPool(0) would mean "all cores"
    if (pool_) {
        pool_->parallel_for(tasks, body);
    } else {
        util::ThreadPool local(
            std::min(tasks, util::resolve_worker_count(config_.max_workers)));
        local.parallel_for(tasks, body);
    }
}

AttackOutcome AttackSuite::evaluate_inference_only(const FaultSpec& fault) {
    // Inject the fault into the trained clean baseline and evaluate with
    // frozen weights and frozen assignments (ablation mode: training is clean).
    // The baseline carries its post-training encoder stream, so this is the
    // clean training pass's continuation without repeating the training.
    snn::NetworkRuntime runtime(baseline_model());

    constexpr std::size_t kNumClasses = 10;
    snn::ActivityClassifier classifier(config_.network.n_neurons, kNumClasses);
    const snn::Dataset& data = *dataset_;
    // Clean inference pass establishes assignments.
    snn::SampleActivity activity;
    for (std::size_t i = 0; i < data.size(); ++i) {
        runtime.run_sample_into(data.images[i], activity);
        classifier.accumulate(activity.exc_counts, data.labels[i]);
    }
    classifier.assign_labels();

    runtime.set_overlay(overlay_for(fault, config_.network));
    std::size_t correct = 0;
    double exc_spikes = 0.0;
    for (std::size_t i = 0; i < data.size(); ++i) {
        runtime.run_sample_into(data.images[i], activity);
        exc_spikes += static_cast<double>(activity.total_exc_spikes);
        if (classifier.predict(activity.exc_counts) == data.labels[i]) ++correct;
    }

    AttackOutcome outcome;
    outcome.fault = fault;
    outcome.accuracy = static_cast<double>(correct) / static_cast<double>(data.size());
    outcome.retro_accuracy = outcome.accuracy;
    outcome.exc_spikes_per_sample = exc_spikes / static_cast<double>(data.size());
    return outcome;
}

AttackOutcome AttackSuite::run_scheduled(const ScheduledTrainingSpec& spec) {
    return run_scheduled_many({spec}).front();
}

std::vector<AttackOutcome> AttackSuite::run_scheduled_many(
    const std::vector<ScheduledTrainingSpec>& specs) {
    std::vector<SampleWindow> windows;
    windows.reserve(specs.size());
    for (const ScheduledTrainingSpec& spec : specs)
        windows.push_back(sample_window(spec, dataset_->size()));
    const double base = baseline_accuracy();  // compute before forking workers

    // Every replica starts clean; the hook installs/retracts its schedule at
    // the window's sample boundaries (samples arrive in order), so inside the
    // window every sample runs STDP under the glitch's step-axis segments.
    const std::vector<snn::TrainResult> results = train_points(
        std::vector<snn::FaultOverlay>(specs.size()),
        [&](std::size_t point, snn::NetworkRuntime& runtime, std::size_t sample) {
            if (sample == windows[point].begin) {
                runtime.set_schedule(specs[point].schedule);
            } else if (sample == windows[point].end) {
                runtime.set_schedule({});
            }
        });
    std::vector<AttackOutcome> outcomes;
    outcomes.reserve(results.size());
    for (const snn::TrainResult& result : results)
        outcomes.push_back(outcome_of(result, base));
    return outcomes;
}

AttackOutcome AttackSuite::run(const FaultSpec& fault) {
    return run_many({fault}).front();
}

std::vector<AttackOutcome> AttackSuite::run_many(const std::vector<FaultSpec>& faults) {
    const double base = baseline_accuracy();  // compute before forking workers

    std::vector<AttackOutcome> outcomes(faults.size());
    if (config_.phase == AttackPhase::kInferenceOnly) {
        for_each_task(faults.size(), [&](std::size_t index) {
            outcomes[index] = evaluate_inference_only(faults[index]);
            outcomes[index].degradation_pct =
                base > 0.0 ? util::percent_change(outcomes[index].accuracy, base) : 0.0;
        });
        return outcomes;
    }

    std::vector<snn::FaultOverlay> overlays;
    overlays.reserve(faults.size());
    for (const FaultSpec& fault : faults)
        overlays.push_back(overlay_for(fault, config_.network));
    const std::vector<snn::TrainResult> results = train_points(overlays);
    for (std::size_t i = 0; i < faults.size(); ++i) {
        outcomes[i] = outcome_of(results[i], base);
        outcomes[i].fault = faults[i];
    }
    return outcomes;
}

std::vector<AttackOutcome> AttackSuite::attack5_vdd(const VddCalibration& calibration,
                                                    const std::vector<double>& vdds) {
    std::vector<FaultSpec> faults;
    faults.reserve(vdds.size());
    for (const double vdd : vdds) {
        FaultSpec fault;
        fault.layer = TargetLayer::kBoth;
        fault.fraction = 1.0;
        fault.threshold_delta = calibration.threshold_delta(vdd);
        fault.driver_gain = calibration.driver_gain(vdd);
        faults.push_back(fault);
    }
    std::vector<AttackOutcome> outcomes = run_many(faults);
    for (std::size_t i = 0; i < outcomes.size(); ++i) outcomes[i].vdd = vdds[i];
    return outcomes;
}

}  // namespace snnfi::attack
