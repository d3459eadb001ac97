#include "snn/trainer.hpp"

#include <algorithm>
#include <optional>
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
    const DiehlCookConfig& config = members_.front()->config();
    util::Rng rng = members_.front()->rng();
    const EncodedStream stream(train.images, rng, config.encoder, config.steps_per_sample);
    return run_group(train, stream, test, hook);
}

std::vector<TrainResult> Trainer::run_group(const Dataset& train,
                                            const EncodedStream& stream,
                                            const Dataset* test,
                                            const MemberSampleHook& hook) {
    if (train.images.size() != train.labels.size())
        throw std::invalid_argument("Trainer::run: images/labels size mismatch");
    if (train.size() == 0) throw std::invalid_argument("Trainer::run: empty dataset");
    if (eval_window_ == 0) throw std::invalid_argument("Trainer::run: zero window");
    const DiehlCookConfig& config = members_.front()->config();
    const auto matches = [&](const EncodedStream& s, std::size_t samples) {
        return s.size() == samples && s.steps() == config.steps_per_sample &&
               s.n_input() == config.n_input && s.config() == config.encoder;
    };
    if (!matches(stream, train.size()))
        throw std::invalid_argument(
            "Trainer: stream does not match the training set or the members");
    for (NetworkRuntime* member : members_) {
        if (member->rng().snapshot() != stream.start())
            throw std::invalid_argument(
                "Trainer: a member's RNG state differs from the stream start");
    }
    // The held-out pass continues the training stream; encoding it up
    // front keeps every check ahead of the first member update.
    std::optional<EncodedStream> test_stream;
    if (test != nullptr && test->size() > 0) {
        util::Rng rng;
        rng.restore(stream.end());
        test_stream.emplace(test->images, rng, config.encoder, config.steps_per_sample);
        if (!matches(*test_stream, test->size()) || test->labels.size() != test->size())
            throw std::invalid_argument("Trainer: test images do not match the members");
    }

    SpikeRaster raster;
    std::vector<MemberRecord> state;
    state.reserve(members_.size());
    for (NetworkRuntime* member : members_) {
        state.emplace_back(member->config().n_neurons);
        state.back().records.reserve(train.size());
        member->set_learning(true);
    }

    // decode() is the one raster check per sample: its strict reader only
    // returns rasters valid for the stream's steps and input size, which
    // match every member, so the members replay without re-checking.
    bool assignments_ready = false;
    for (std::size_t i = 0; i < train.size(); ++i) {
        stream.decode(i, raster);
        for (std::size_t m = 0; m < members_.size(); ++m) {
            if (hook) hook(m, i);
            MemberRecord& s = state[m];
            SampleActivity activity;
            members_[m]->replay(raster, activity);
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

    if (test_stream) {
        for (NetworkRuntime* member : members_) member->set_learning(false);
        std::vector<std::size_t> test_correct(members_.size(), 0);
        SampleActivity activity;
        for (std::size_t i = 0; i < test->size(); ++i) {
            test_stream->decode(i, raster);
            for (std::size_t m = 0; m < members_.size(); ++m) {
                members_[m]->replay(raster, activity);
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

    const util::Rng::Snapshot& final_state =
        test_stream ? test_stream->end() : stream.end();
    std::vector<TrainResult> results;
    results.reserve(members_.size());
    for (std::size_t m = 0; m < members_.size(); ++m) {
        members_[m]->rng().restore(final_state);
        results.push_back(state[m].result);
    }
    return results;
}

}  // namespace snnfi::snn
