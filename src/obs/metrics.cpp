#include "obs/metrics.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "util/table.hpp"

namespace snnfi::obs {

namespace {
// The one telemetry master switch (default off). Registered singleton:
// campaign output is bit-identical whichever way it is set (tested in
// tests/obs), so the mutability cannot couple two runs.
std::atomic<bool> g_enabled{false};  // snnfi-lint: allow(mutable-global)
}  // namespace

bool enabled() noexcept { return g_enabled.load(std::memory_order_relaxed); }

void set_enabled(bool on) noexcept {
    g_enabled.store(on, std::memory_order_relaxed);
}

// ---------------------------------------------------------------- histogram

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
    for (std::size_t b = 1; b < bounds_.size(); ++b) {
        if (bounds_[b] <= bounds_[b - 1])
            throw std::invalid_argument(
                "Histogram: bounds must be strictly increasing");
    }
    counts_ = std::make_unique<std::atomic<std::uint64_t>[]>(bounds_.size() + 1);
    for (std::size_t b = 0; b <= bounds_.size(); ++b) counts_[b] = 0;
}

void Histogram::add(std::span<const std::uint64_t> counts, double sum) {
    if (counts.size() != bounds_.size() + 1)
        throw std::invalid_argument("Histogram::add: one count per bucket expected");
    if (!enabled()) return;
    std::uint64_t total = 0;
    for (std::size_t b = 0; b < counts.size(); ++b) {
        if (counts[b] == 0) continue;
        counts_[b].fetch_add(counts[b], std::memory_order_relaxed);
        total += counts[b];
    }
    count_.fetch_add(total, std::memory_order_relaxed);
    detail::atomic_add(sum_, sum);
}

std::vector<std::uint64_t> Histogram::counts() const {
    std::vector<std::uint64_t> values(bounds_.size() + 1);
    for (std::size_t b = 0; b <= bounds_.size(); ++b)
        values[b] = counts_[b].load(std::memory_order_relaxed);
    return values;
}

// ----------------------------------------------------------------- registry

Registry& Registry::global() {
    static Registry registry;
    return registry;
}

Counter& Registry::counter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = counters_[name];
    if (!slot) slot.reset(new Counter());
    return *slot;
}

Gauge& Registry::gauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& slot = gauges_[name];
    if (!slot) slot.reset(new Gauge());
    return *slot;
}

Histogram& Registry::histogram(const std::string& name,
                               std::vector<double> bounds) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        // Construct before inserting: the ctor throws on bad bounds, and
        // that must not leave a null slot for snapshot()/reset() to trip on.
        std::unique_ptr<Histogram> fresh(new Histogram(std::move(bounds)));
        it = histograms_.emplace(name, std::move(fresh)).first;
    }
    return *it->second;
}

MetricsSnapshot Registry::snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& [name, counter] : counters_)
        snap.counters.emplace_back(name, counter->value());
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, gauge] : gauges_)
        snap.gauges.emplace_back(name, gauge->value());
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, histogram] : histograms_) {
        MetricsSnapshot::HistogramValue value;
        value.name = name;
        value.bounds = histogram->bounds();
        value.counts = histogram->counts();
        value.count = histogram->count();
        value.sum = histogram->sum();
        snap.histograms.push_back(std::move(value));
    }
    return snap;  // std::map iteration order == name order, so JSON is stable
}

void Registry::reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, counter] : counters_)
        counter->value_.store(0, std::memory_order_relaxed);
    for (auto& [name, gauge] : gauges_)
        gauge->value_.store(0.0, std::memory_order_relaxed);
    for (auto& [name, histogram] : histograms_) {
        for (std::size_t b = 0; b <= histogram->bounds_.size(); ++b)
            histogram->counts_[b].store(0, std::memory_order_relaxed);
        histogram->count_.store(0, std::memory_order_relaxed);
        histogram->sum_.store(0.0, std::memory_order_relaxed);
    }
}

// ------------------------------------------------------------------- export

std::string MetricsSnapshot::to_json() const {
    std::ostringstream os;
    os << "{\"counters\":{";
    for (std::size_t c = 0; c < counters.size(); ++c) {
        if (c) os << ",";
        os << "\"" << util::json_escape(counters[c].first)
           << "\":" << counters[c].second;
    }
    os << "},\"gauges\":{";
    for (std::size_t g = 0; g < gauges.size(); ++g) {
        if (g) os << ",";
        os << "\"" << util::json_escape(gauges[g].first)
           << "\":" << util::json_number(gauges[g].second);
    }
    os << "},\"histograms\":{";
    for (std::size_t h = 0; h < histograms.size(); ++h) {
        const HistogramValue& hist = histograms[h];
        if (h) os << ",";
        os << "\"" << util::json_escape(hist.name) << "\":{\"bounds\":[";
        for (std::size_t b = 0; b < hist.bounds.size(); ++b) {
            if (b) os << ",";
            os << util::json_number(hist.bounds[b]);
        }
        os << "],\"counts\":[";
        for (std::size_t b = 0; b < hist.counts.size(); ++b) {
            if (b) os << ",";
            os << hist.counts[b];
        }
        os << "],\"count\":" << hist.count
           << ",\"sum\":" << util::json_number(hist.sum) << "}";
    }
    os << "}}";
    return os.str();
}

std::string metrics_json() {
    const MetricsSnapshot snap = Registry::global().snapshot();
    std::ostringstream os;
    const std::string body = snap.to_json();
    os << "{\"enabled\":" << (enabled() ? "true" : "false") << ","
       << body.substr(1);  // splice the snapshot fields into the envelope
    return os.str();
}

bool write_metrics(const std::string& path) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out << metrics_json() << "\n";
    out.flush();
    return static_cast<bool>(out);
}

}  // namespace snnfi::obs
