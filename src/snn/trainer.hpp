// Training/evaluation loop reproducing the paper's experimental setup
// (§IV-A): one pass over 1000 Poisson-encoded digit images, STDP learning,
// activity-based label assignment, accuracy on the training activity.
#pragma once

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "snn/classifier.hpp"
#include "snn/encoding.hpp"
#include "snn/network.hpp"
#include "snn/runtime.hpp"

namespace snnfi::snn {

/// A labelled digit dataset (images flattened, intensities in [0,1]).
struct Dataset {
    std::size_t image_size = 784;
    std::vector<std::vector<float>> images;
    std::vector<std::size_t> labels;
    std::size_t size() const noexcept { return images.size(); }
};

struct TrainResult {
    /// Online windowed accuracy (BindsNET eth_mnist metric, the paper's
    /// §IV-A number): every `eval_window` samples the last window is scored
    /// with the neuron->label assignments from the activity accumulated
    /// before it, then assignments are refreshed.
    double train_accuracy = 0.0;
    /// Retrospective accuracy: assignments from the full training activity,
    /// scored on all training samples. Less noisy; reported alongside.
    double retro_accuracy = 0.0;
    double test_accuracy = -1.0;   ///< on held-out set, -1 if no test set
    std::size_t total_exc_spikes = 0;
    std::size_t total_inh_spikes = 0;
    double mean_exc_spikes_per_sample = 0.0;
};

/// Optional per-sample hook (fault scheduling, progress).
using SampleHook = std::function<void(std::size_t index)>;
/// Group form: called before group member `member` runs sample `index`.
using MemberSampleHook = std::function<void(std::size_t member, std::size_t index)>;

/// Trains a lockstep group of runtimes over ONE shared encoder stream.
///
/// Every member must start from the same rng() state; the stream is the
/// encoder's only consumer, so all members would draw the same input
/// spikes. The group replays each sample of one EncodedStream on every
/// member — each member's TrainResult, weights, theta and final rng() are
/// bit-identical to training it alone. A single runtime is a group of one.
class Trainer {
public:
    /// Trains a Model/Runtime replica: the runtime's learning mode is
    /// enabled for the pass, and runtime.freeze() after run() yields the
    /// trained immutable NetworkModel.
    explicit Trainer(NetworkRuntime& runtime, std::size_t eval_window = 250);
    /// A group of distinct, non-null runtimes that share the encoder
    /// config, input size and steps per sample (else std::invalid_argument).
    /// The runtimes must outlive the trainer.
    explicit Trainer(std::vector<NetworkRuntime*> members,
                     std::size_t eval_window = 250);

    /// Trains the group on `train` (single pass, learning on) by replaying
    /// `stream`, which must hold train's images encoded from the members'
    /// rng() state; computes each member's online windowed accuracy and
    /// retrospective accuracy. When `test` is non-null, also evaluates on
    /// the held-out set with learning frozen, over a second stream that
    /// continues from stream.end(). Results are in member order. Before it
    /// touches any member, throws std::invalid_argument when a member's
    /// rng() differs from stream.start(), or the stream's size, steps,
    /// input size or encoder config differ from the members'. On return
    /// every member's rng() holds the final stream state, so freeze()
    /// captures what solo training would have left.
    std::vector<TrainResult> run_group(const Dataset& train, const EncodedStream& stream,
                                       const Dataset* test = nullptr,
                                       const MemberSampleHook& hook = {});

    /// Encodes `train` from the first member's rng() and replays it.
    std::vector<TrainResult> run_group(const Dataset& train,
                                       const Dataset* test = nullptr,
                                       const MemberSampleHook& hook = {});

    /// run_group for a group of one (std::logic_error on a larger group).
    TrainResult run(const Dataset& train, const Dataset* test = nullptr,
                    const SampleHook& hook = {});

private:
    std::vector<NetworkRuntime*> members_;
    std::size_t eval_window_;
};

}  // namespace snnfi::snn
