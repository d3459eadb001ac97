// Power/area overhead accounting for the paper's §V defenses.
//
// Power numbers come from supply-current integration in the circuit
// simulator (plus declared quiescent power for behavioral op-amps); area
// numbers from the first-order layout model in circuits/area_power.hpp.
// Paper-reported overheads are carried alongside for comparison —
// EXPERIMENTS.md discusses where our area model's constants diverge.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "circuits/characterization.hpp"

namespace snnfi::defense {

struct OverheadReport {
    std::string defense;
    double baseline_power_w = 0.0;
    double secured_power_w = 0.0;
    double power_overhead_pct = 0.0;
    double baseline_area_um2 = 0.0;
    double secured_area_um2 = 0.0;
    double area_overhead_pct = 0.0;
    double paper_power_overhead_pct = 0.0;  ///< published number
    double paper_area_note = 0.0;           ///< published area overhead (% or ~0)
};

class OverheadAnalyzer {
public:
    explicit OverheadAnalyzer(const circuits::Characterizer& circuits)
        : circuits_(&circuits) {}

    /// Robust op-amp driver vs. unsecured mirror driver (paper: +3% power,
    /// negligible area).
    OverheadReport robust_driver() const;
    /// Resized-MP1 AH neuron vs. baseline AH neuron (paper: +25% power,
    /// negligible area).
    OverheadReport transistor_sizing(double sizing_ratio) const;
    /// Comparator-AH neuron vs. baseline AH neuron (paper: +11% power,
    /// negligible area).
    OverheadReport comparator_ah() const;
    /// Bandgap shared across an SNN of `total_neurons` I&F neurons
    /// (paper: 65% area overhead at 200 neurons).
    OverheadReport bandgap(std::size_t total_neurons) const;
    /// One dummy neuron + fixed driver per layer of `neurons_per_layer`
    /// (paper: ~1% power and area).
    OverheadReport dummy_neuron(std::size_t neurons_per_layer) const;

    /// All five, in paper order. Their seven distinct power simulations
    /// run once each, as one circuits::simulate_batch over `pool` (serial
    /// when nullptr); every report equals its single-report method.
    std::vector<OverheadReport> all(std::size_t total_neurons = 200,
                                    std::size_t neurons_per_layer = 100,
                                    util::ThreadPool* pool = nullptr) const;

private:
    const circuits::Characterizer* circuits_;
};

}  // namespace snnfi::defense
