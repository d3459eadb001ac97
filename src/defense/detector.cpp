#include "defense/detector.hpp"

#include <cmath>

namespace snnfi::defense {

DummyNeuronDetector::DummyNeuronDetector(DetectorConfig config)
    : config_(std::move(config)) {}

bool DummyNeuronDetector::flags(double observed_count, double golden_count) const {
    if (golden_count <= 0.0) return true;
    const double deviation =
        100.0 * std::abs(observed_count - golden_count) / golden_count;
    return deviation >= config_.threshold_pct;
}

std::vector<DetectorReading> DummyNeuronDetector::sweep(
    const std::vector<double>& vdds, util::ThreadPool* pool) const {
    const auto readings =
        circuits::dummy_neuron_sweep(config_.cell, vdds, config_.nominal_vdd, pool);
    std::vector<DetectorReading> results;
    results.reserve(readings.size());
    for (const auto& r : readings) {
        DetectorReading out;
        out.vdd = r.vdd;
        out.spike_count = r.spike_count;
        out.deviation_pct = r.deviation_pct;
        out.flagged = std::abs(r.deviation_pct) >= config_.threshold_pct;
        results.push_back(out);
    }
    return results;
}

std::pair<double, double> DummyNeuronDetector::detection_edges(
    const std::vector<double>& vdds) const {
    const auto readings = sweep(vdds);
    double low_edge = 0.0, high_edge = 0.0;
    for (const auto& r : readings) {
        if (!r.flagged) continue;
        if (r.vdd < config_.nominal_vdd) {
            low_edge = std::max(low_edge, r.vdd);  // closest tripping point below
        } else if (r.vdd > config_.nominal_vdd) {
            high_edge = high_edge == 0.0 ? r.vdd : std::min(high_edge, r.vdd);
        }
    }
    return {low_edge, high_edge};
}

}  // namespace snnfi::defense
