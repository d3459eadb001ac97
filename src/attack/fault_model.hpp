// Fault models: the software expression of the paper's power attacks.
//
// A FaultSpec describes which layer(s) are hit, which fraction of their
// neurons, and how the two attacked circuit parameters change:
//   * threshold delta (paper §III-C, Fig. 6a), and/or
//   * input drive gain ("theta" / spike amplitude, §III-B, Fig. 5b).
//
// Threshold semantics: kBindsNetValue scales the raw
// negative-mV threshold value by (1+delta) — this is what the paper's
// BindsNET experiments did and what Figs. 8a-8c/9a reflect (delta < 0 makes
// firing *harder*). kCircuitDistance scales the rest-to-threshold distance
// (physically faithful to the circuit: delta < 0 fires *earlier*). Both are
// supported; scenario runners default to the paper's semantics.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "snn/network.hpp"
#include "snn/overlay.hpp"
#include "util/random.hpp"

namespace snnfi::attack {

enum class TargetLayer { kNone, kExcitatory, kInhibitory, kBoth };
enum class ThresholdSemantics { kBindsNetValue, kCircuitDistance };
/// When the fault is active: throughout training+evaluation (the paper's
/// setting — "corrupt crucial training parameters"), or only at inference
/// on a cleanly-trained network (ablation).
enum class AttackPhase { kTrainingAndInference, kInferenceOnly };

const char* to_string(TargetLayer layer);

struct FaultSpec {
    TargetLayer layer = TargetLayer::kNone;
    double fraction = 1.0;        ///< fraction of neurons per targeted layer
    double threshold_delta = 0.0; ///< e.g. -0.20 for the paper's "-20%"
    ThresholdSemantics semantics = ThresholdSemantics::kBindsNetValue;
    double driver_gain = 1.0;     ///< input spike amplitude scale (theta)
    std::uint64_t mask_seed = 1;  ///< selects *which* neurons are hit
};

/// Expresses a FaultSpec as a composable overlay for the Model/Runtime
/// API: deterministic per-layer neuron masks (mask_seed), threshold ops in
/// the requested semantics, and the driver gain.
snn::FaultOverlay overlay_for(const FaultSpec& fault,
                              const snn::DiehlCookConfig& config);

/// Picks the deterministic neuron subset used by overlay_for per layer.
std::vector<std::size_t> fault_mask(std::size_t layer_size, double fraction,
                                    std::uint64_t mask_seed, TargetLayer layer);

}  // namespace snnfi::attack
