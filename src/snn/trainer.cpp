#include "snn/trainer.hpp"

#include <algorithm>
#include <stdexcept>

namespace snnfi::snn {

namespace {

constexpr std::size_t kNumClasses = 10;

/// One member's bookkeeping across the pass.
struct MemberRecord {
    explicit MemberRecord(std::size_t n_neurons)
        : online(n_neurons, kNumClasses), retro(n_neurons, kNumClasses) {}

    ActivityClassifier online;  ///< cumulative activity, windowed refresh
    ActivityClassifier retro;
    std::vector<SampleActivity> records;
    TrainResult result;
    std::size_t online_correct = 0;
    std::size_t online_scored = 0;
};

}  // namespace

Trainer::Trainer(NetworkRuntime& runtime, std::size_t eval_window)
    : Trainer(std::vector<NetworkRuntime*>{&runtime}, eval_window) {}

Trainer::Trainer(std::vector<NetworkRuntime*> members, std::size_t eval_window)
    : members_(std::move(members)), eval_window_(eval_window) {
    if (members_.empty()) throw std::invalid_argument("Trainer: empty group");
    for (auto it = members_.begin(); it != members_.end(); ++it) {
        if (*it == nullptr) throw std::invalid_argument("Trainer: null member");
        if (std::find(members_.begin(), it, *it) != it)
            throw std::invalid_argument("Trainer: duplicate member");
        const DiehlCookConfig& lead = members_.front()->config();
        const DiehlCookConfig& config = (*it)->config();
        if (config.n_input != lead.n_input ||
            config.steps_per_sample != lead.steps_per_sample ||
            config.encoder.max_rate_hz != lead.encoder.max_rate_hz ||
            config.encoder.dt_ms != lead.encoder.dt_ms)
            throw std::invalid_argument("Trainer: members encode inputs differently");
    }
}

TrainResult Trainer::run(const Dataset& train, const Dataset* test,
                         const SampleHook& hook) {
    if (members_.size() != 1)
        throw std::logic_error("Trainer::run: group of more than one; use run_group");
    MemberSampleHook member_hook;
    if (hook) member_hook = [&hook](std::size_t, std::size_t index) { hook(index); };
    return run_group(train, test, member_hook).front();
}

std::vector<TrainResult> Trainer::run_group(const Dataset& train, const Dataset* test,
                                            const MemberSampleHook& hook) {
    if (train.images.size() != train.labels.size())
        throw std::invalid_argument("Trainer::run: images/labels size mismatch");
    if (train.size() == 0) throw std::invalid_argument("Trainer::run: empty dataset");
    if (eval_window_ == 0) throw std::invalid_argument("Trainer::run: zero window");
    const util::Rng::Snapshot start = members_.front()->rng().snapshot();
    for (NetworkRuntime* member : members_) {
        if (member->rng().snapshot() != start)
            throw std::invalid_argument(
                "Trainer: members start from different RNG streams");
    }

    const DiehlCookConfig& config = members_.front()->config();
    util::Rng stream = members_.front()->rng();
    PoissonEncoder encoder(config.encoder);
    SpikeRaster raster;
    const auto encode = [&](std::span<const float> image) {
        if (image.size() != config.n_input)
            throw std::invalid_argument("run_sample: image size mismatch");
        encoder.set_image(image);
        encoder.encode(stream, config.steps_per_sample, raster);
    };

    std::vector<MemberRecord> state;
    state.reserve(members_.size());
    for (NetworkRuntime* member : members_) {
        state.emplace_back(member->config().n_neurons);
        state.back().records.reserve(train.size());
        member->set_learning(true);
    }

    bool assignments_ready = false;
    for (std::size_t i = 0; i < train.size(); ++i) {
        encode(train.images[i]);
        for (std::size_t m = 0; m < members_.size(); ++m) {
            if (hook) hook(m, i);
            MemberRecord& s = state[m];
            SampleActivity activity;
            members_[m]->run_sample_into(raster, activity);
            s.result.total_exc_spikes += activity.total_exc_spikes;
            s.result.total_inh_spikes += activity.total_inh_spikes;

            // Online metric: predict with the assignments computed from
            // the activity accumulated before the current window.
            if (assignments_ready) {
                if (s.online.predict(activity.exc_counts) == train.labels[i])
                    ++s.online_correct;
                ++s.online_scored;
            }
            s.online.accumulate(activity.exc_counts, train.labels[i]);
            s.retro.accumulate(activity.exc_counts, train.labels[i]);
            s.records.push_back(std::move(activity));
        }
        // Refresh assignments at window boundaries (cumulative activity).
        if ((i + 1) % eval_window_ == 0) {
            for (MemberRecord& s : state) s.online.assign_labels();
            assignments_ready = true;
        }
    }

    const auto n_train = static_cast<double>(train.size());
    for (MemberRecord& s : state) {
        TrainResult& result = s.result;
        result.train_accuracy = s.online_scored > 0
                                    ? static_cast<double>(s.online_correct) /
                                          static_cast<double>(s.online_scored)
                                    : 0.0;
        s.retro.assign_labels();
        std::size_t retro_correct = 0;
        for (std::size_t i = 0; i < train.size(); ++i) {
            if (s.retro.predict(s.records[i].exc_counts) == train.labels[i])
                ++retro_correct;
        }
        result.retro_accuracy = static_cast<double>(retro_correct) / n_train;
        result.mean_exc_spikes_per_sample =
            static_cast<double>(result.total_exc_spikes) / n_train;
        s.records = {};
    }

    if (test != nullptr && test->size() > 0) {
        for (NetworkRuntime* member : members_) member->set_learning(false);
        std::vector<std::size_t> test_correct(members_.size(), 0);
        SampleActivity activity;
        for (std::size_t i = 0; i < test->size(); ++i) {
            encode(test->images[i]);
            for (std::size_t m = 0; m < members_.size(); ++m) {
                members_[m]->run_sample_into(raster, activity);
                if (state[m].retro.predict(activity.exc_counts) == test->labels[i])
                    ++test_correct[m];
            }
        }
        for (std::size_t m = 0; m < members_.size(); ++m) {
            state[m].result.test_accuracy = static_cast<double>(test_correct[m]) /
                                            static_cast<double>(test->size());
            members_[m]->set_learning(true);
        }
    }

    std::vector<TrainResult> results;
    results.reserve(members_.size());
    for (std::size_t m = 0; m < members_.size(); ++m) {
        members_[m]->rng() = stream;
        results.push_back(state[m].result);
    }
    return results;
}

}  // namespace snnfi::snn
