// Layer probes: time the public entry points of each layer from outside,
// on one workload's own inputs (its dataset, its trained baseline, its
// circuit configuration). Every probe consumes its results, and the drive
// probe checks itself against kernels::accumulate_rows_reference.
#pragma once

#include <memory>
#include <string>

#include "circuits/characterization.hpp"
#include "snn/model.hpp"
#include "snn/trainer.hpp"

namespace perfbench {

struct ProbeInputs {
    const snnfi::snn::Dataset& dataset;
    std::shared_ptr<const snnfi::snn::NetworkModel> model;
    snnfi::circuits::CharacterizationConfig circuit;
};

/// Runs every probe and returns one JSON object: the per-layer values
/// (snn.*, spice.*, circuits.*), their sample sizes, and "checks" — the
/// probe integrity results run.py requires to be true.
std::string run_probes(const ProbeInputs& inputs);

}  // namespace perfbench
