// perfbench — drives core::Session in-process for one benchmark workload
// and prints one JSON document of raw measurements on stdout.
// perfbench/run.py builds this binary, runs it, checks the outputs and
// turns the document into the benchmark's result line.
//
//   perfbench --workload=<registry-quick|train-sweep|campaign-infer>
//             --seed=<n> --reps=<n> --setup-reps=<n> --work-dir=<dir>
//             [--trace] [--prepare]
//
// Work is selected by experiment id and RunOptions only, so refactors below
// Session never invalidate an end-to-end number. Every repetition builds a
// fresh Session:
//   setup  = Session construction + the workload's shared artifacts (its
//            dataset and trained or store-loaded baseline) acquired through
//            Session's public accessors;
//   timed  = every experiment of the workload, one Session::run per id.
// Untraced repetitions run with telemetry off. --trace adds one repetition
// with the obs spans and counters on (plus the benchmark's own bench.*
// spans around each Session call), writes the trace and metrics documents
// into the work directory, and then runs the layer probes (probes.hpp) on
// that repetition's dataset, baseline and circuit configuration.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "core/scenario.hpp"
#include "core/session.hpp"
#include "data/idx.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"

namespace {

using namespace snnfi;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto to_s = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return to_s(usage.ru_utime) + to_s(usage.ru_stime);
}

double peak_rss_mb() {
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: KiB
}

enum class StoreMode {
    kNone,   ///< no artifact store
    kFresh,  ///< a fresh empty store per repetition: setup writes the baseline
    kWarm,   ///< a store warmed by --prepare: setup reads the baseline
};

struct Workload {
    std::string name;
    std::string selector;  ///< registry ids/tags run in the timed phase
    bool quick = false;
    bool single_thread = false;  ///< else min(4, nproc) threads
    StoreMode store = StoreMode::kNone;
    /// Experiments that must get Session cache hits on the setup artifacts;
    /// without them setup_s would be charged for work the timed phase redoes.
    std::vector<std::string> consumers;
};

std::vector<Workload> workloads() {
    return {
        {"registry-quick", "all", true, false, StoreMode::kFresh,
         {"baseline", "fig7b", "fi.quick-sweep"}},
        {"train-sweep", "fig7b", false, true, StoreMode::kNone, {"fig7b"}},
        {"campaign-infer", "fi.weights,fi.neurons", false, false, StoreMode::kWarm,
         {"fi.weights", "fi.neurons"}},
    };
}

/// Registry family of a scenario: the first of these tags it carries.
std::string family_of(const core::ScenarioSpec& spec) {
    for (const char* family : {"fi", "ablation", "defense", "attack", "circuit"})
        if (spec.has_tag(family)) return family;
    return "other";
}

struct Setup {
    std::unique_ptr<core::Session> session;
    std::shared_ptr<const snn::Dataset> dataset;
    std::shared_ptr<attack::AttackSuite> suite;
    double seconds = 0.0;
    std::size_t store_hits = 0;
    std::size_t store_misses = 0;
    std::size_t store_entries = 0;
};

Setup run_setup(const core::RunOptions& options) {
    Setup setup;
    const auto start = Clock::now();
    obs::Span span("bench.setup");
    {
        obs::Span session_span("bench.setup.session");
        setup.session = std::make_unique<core::Session>(options);
    }
    {
        obs::Span dataset_span("bench.setup.dataset");
        setup.dataset = setup.session->dataset(options.samples(), options.data_seed);
    }
    {
        obs::Span baseline_span("bench.setup.baseline");
        setup.suite = setup.session->attack_suite();
        (void)setup.suite->baseline_model();
    }
    setup.seconds = seconds_since(start);
    if (const store::ArtifactStore* artifact_store = setup.session->store()) {
        setup.store_hits = artifact_store->hits();
        setup.store_misses = artifact_store->misses();
        setup.store_entries = artifact_store->entries();
    }
    return setup;
}

struct Experiment {
    std::string id;
    bool ok = false;
    std::string error;
    std::string table_json;
    std::size_t cache_hits = 0;

    std::string to_json() const {
        perfbench::JsonObject o;
        o.text("id", id).boolean("ok", ok).text("error", error);
        o.raw("table", table_json.empty() ? "null" : table_json);
        return o.str();
    }
};

Experiment run_experiment(core::Session& session, const core::ScenarioSpec& spec) {
    Experiment record;
    record.id = spec.id;
    obs::Span span("bench.run");
    span.tag("id", spec.id);
    span.tag("family", family_of(spec));
    try {
        const core::RunResult result = session.run(spec);
        const util::ResultTable& table = result.table;
        bool finite = true;
        for (std::size_t r = 0; r < table.num_rows(); ++r)
            for (std::size_t c = 0; c < table.num_columns(); ++c)
                if (const double* v = std::get_if<double>(&table.at(r, c)))
                    finite = finite && std::isfinite(*v);
        record.table_json = table.to_json();
        record.cache_hits = result.cache_hits;
        record.ok = table.num_rows() > 0 && finite;
        if (!record.ok) record.error = "empty or non-finite result table";
    } catch (const std::exception& e) {
        record.error = e.what();
    }
    return record;
}

struct Rep {
    Setup setup;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    /// Session cache traffic of setup plus the timed phase (before the guard).
    std::size_t cache_hits = 0;
    std::size_t cache_misses = 0;
    std::vector<Experiment> experiments;
    std::string guard;  ///< empty = the setup-reuse guard held

    std::string to_json() const {
        perfbench::JsonObject o;
        o.number("wall_s", wall_s).number("cpu_s", cpu_s).text("guard", guard);
        o.integer("cache_hits", cache_hits).integer("cache_misses", cache_misses);
        std::vector<std::string> items;
        for (const Experiment& e : experiments) items.push_back(e.to_json());
        o.raw("experiments", perfbench::json_array(items));
        return o.str();
    }
};

/// The setup-reuse guard: after the timed phase, re-acquiring the setup
/// artifacts must be a pure memory-cache hit returning the very objects
/// setup built, the consumer experiments must have hit the cache, and the
/// store must have been read (warm) or written (fresh) by setup only.
std::string check_setup_reuse(const Workload& workload, const core::RunOptions& options,
                              const Rep& rep) {
    core::Session& session = *rep.setup.session;
    const std::size_t store_misses_timed =
        session.store() ? session.store()->misses() : 0;
    const std::size_t store_entries_timed =
        session.store() ? session.store()->entries() : 0;
    const std::size_t hits = session.cache_hits();
    const std::size_t misses = session.cache_misses();
    const auto dataset = session.dataset(options.samples(), options.data_seed);
    const auto suite = session.attack_suite();
    if (dataset != rep.setup.dataset || suite != rep.setup.suite)
        return "setup artifacts were rebuilt during the timed phase";
    if (session.cache_hits() != hits + 2 || session.cache_misses() != misses)
        return "re-acquiring the setup artifacts missed the Session cache";
    if (session.cache_evictions() != 0) return "the Session cache evicted entries";
    for (const std::string& id : workload.consumers) {
        const auto it = std::find_if(rep.experiments.begin(), rep.experiments.end(),
                                     [&](const Experiment& e) { return e.id == id; });
        if (it == rep.experiments.end()) return "consumer " + id + " did not run";
        if (it->cache_hits == 0) return "consumer " + id + " got no Session cache hit";
    }
    if (workload.store == StoreMode::kWarm) {
        if (rep.setup.store_hits != 1 || rep.setup.store_misses != 0)
            return "setup did not read the baseline from the warm store";
        if (store_misses_timed != 0 || store_entries_timed != rep.setup.store_entries)
            return "the timed phase missed or wrote the warm store";
    }
    if (workload.store == StoreMode::kFresh &&
        (rep.setup.store_misses == 0 || rep.setup.store_entries == 0))
        return "setup did not write the baseline to the fresh store";
    return {};
}

Rep run_rep(const Workload& workload, const core::RunOptions& options,
            const std::vector<const core::ScenarioSpec*>& selection) {
    Rep rep;
    rep.setup = run_setup(options);
    {
        obs::Span span("bench.timed");
        const double cpu_start = cpu_seconds();
        const auto start = Clock::now();
        for (const core::ScenarioSpec* spec : selection)
            rep.experiments.push_back(run_experiment(*rep.setup.session, *spec));
        rep.wall_s = seconds_since(start);
        rep.cpu_s = cpu_seconds() - cpu_start;
    }
    rep.cache_hits = rep.setup.session->cache_hits();
    rep.cache_misses = rep.setup.session->cache_misses();
    rep.guard = check_setup_reuse(workload, options, rep);
    return rep;
}

std::string provenance_json(const Workload& workload, const core::RunOptions& options) {
    perfbench::JsonObject o;
    o.text("compiler", PERFBENCH_COMPILER).text("build_type", PERFBENCH_BUILD_TYPE);
    o.text("kernel_simd_option", PERFBENCH_KERNEL_SIMD_OPTION);
    o.text("kernel_simd", PERFBENCH_KERNEL_SIMD);
    o.integer("hardware_threads", std::thread::hardware_concurrency());
    o.integer("threads", options.max_workers);
    o.integer("data_seed", options.data_seed).integer("network_seed", options.network_seed);
    o.text("selector", workload.selector).boolean("quick", options.quick);
    o.integer("samples", options.samples()).integer("neurons", options.neurons());
    o.text("dataset",
           data::try_load_mnist(options.mnist_dir, 1) ? "mnist" : "synthetic");
    return o.str();
}

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser parser("perfbench: one benchmark workload through core::Session");
    parser.add_option("workload", "", "registry-quick, train-sweep or campaign-infer");
    parser.add_option("seed", "0", "Workload seed: data_seed = 42 + seed, "
                                   "network_seed = 7 + seed (0 = registry defaults)");
    parser.add_option("reps", "2", "Untraced timed repetitions (>= 2)");
    parser.add_option("setup-reps", "0", "Extra setup-only repetitions");
    parser.add_option("work-dir", "", "Scratch directory for stores, traces, metrics");
    parser.add_flag("trace", "Add one traced repetition and the layer probes");
    parser.add_flag("prepare", "Only warm the store (campaign-infer), untimed");
    try {
        if (!parser.parse(argc, argv)) return 0;
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n" << parser.usage();
        return 2;
    }
    util::set_log_level(util::LogLevel::kWarn);

    const std::vector<Workload> all = workloads();
    const auto found = std::find_if(all.begin(), all.end(), [&](const Workload& w) {
        return w.name == parser.get("workload");
    });
    const std::filesystem::path work_dir = parser.get("work-dir");
    const auto seed = static_cast<std::uint64_t>(parser.get_int("seed"));
    const auto reps = static_cast<std::size_t>(parser.get_int("reps"));
    if (found == all.end() || work_dir.empty() || reps < 2) {
        std::cerr << "perfbench: need --workload=<name>, --work-dir and --reps >= 2\n"
                  << parser.usage();
        return 2;
    }
    const Workload& workload = *found;
    std::filesystem::create_directories(work_dir);

    core::RunOptions options;
    options.quick = workload.quick;
    options.data_seed = 42 + seed;
    options.network_seed = 7 + seed;
    options.max_workers =
        workload.single_thread
            ? 1
            : std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
    // A path that never holds MNIST: every workload runs on the built-in
    // synthetic digit set.
    options.mnist_dir = (work_dir / "no-mnist").string();
    if (workload.store == StoreMode::kWarm)
        options.store_dir = (work_dir / ("store-warm-" + std::to_string(seed))).string();

    try {
        if (parser.get_bool("prepare")) {
            if (workload.store != StoreMode::kWarm)
                throw std::invalid_argument("--prepare applies to campaign-infer only");
            core::Session session(options);
            (void)session.attack_suite()->baseline_model();
            if (session.store()->entries() == 0)
                throw std::runtime_error("prepare wrote no baseline to the store");
            std::cout << "{\"prepared\":true}\n";
            return 0;
        }

        auto& registry = core::ScenarioRegistry::instance();
        const std::vector<const core::ScenarioSpec*> selection =
            registry.select(workload.selector);
        // kFresh: every repetition gets its own empty store directory,
        // removed again by drop_store once the repetition is done.
        const auto fresh_store = [&](const std::string& tag) {
            core::RunOptions o = options;
            if (workload.store == StoreMode::kFresh) {
                o.store_dir = (work_dir / ("store-fresh-" + tag)).string();
                std::filesystem::remove_all(o.store_dir);
            }
            return o;
        };
        const auto drop_store = [&](const core::RunOptions& o) {
            if (workload.store == StoreMode::kFresh) std::filesystem::remove_all(o.store_dir);
        };

        obs::set_enabled(false);
        std::vector<std::string> rep_json;
        std::vector<double> setups;
        for (std::size_t r = 0; r < reps; ++r) {
            const core::RunOptions o = fresh_store(std::to_string(r));
            const Rep rep = run_rep(workload, o, selection);
            rep_json.push_back(rep.to_json());
            setups.push_back(rep.setup.seconds);
            drop_store(o);
        }
        const auto setup_reps = static_cast<std::size_t>(parser.get_int("setup-reps"));
        for (std::size_t r = 0; r < setup_reps; ++r) {
            const core::RunOptions o = fresh_store("setup-" + std::to_string(r));
            setups.push_back(run_setup(o).seconds);
            drop_store(o);
        }
        const double rss_mb = peak_rss_mb();

        perfbench::JsonObject doc;
        doc.text("workload", workload.name).integer("seed", seed);
        doc.raw("provenance", provenance_json(workload, options));
        doc.raw("reps", perfbench::json_array(rep_json));
        std::vector<std::string> setup_items;
        for (const double s : setups) setup_items.push_back(util::json_number(s));
        doc.raw("setups", perfbench::json_array(setup_items));
        doc.number("peak_rss_mb", rss_mb);

        if (parser.get_bool("trace")) {
            obs::Registry::global().reset();
            obs::reset_trace();
            obs::set_enabled(true);
            const core::RunOptions o = fresh_store("traced");
            Rep rep = run_rep(workload, o, selection);
            obs::set_enabled(false);
            const std::string trace_file = (work_dir / "trace.json").string();
            const std::string metrics_file = (work_dir / "metrics.json").string();
            if (!obs::write_chrome_trace(trace_file) || !obs::write_metrics(metrics_file))
                throw std::runtime_error("cannot write the trace or metrics file");
            doc.raw("traced", rep.to_json());
            doc.text("trace_file", trace_file).text("metrics_file", metrics_file);
            // Probes run on this repetition's own inputs, telemetry off.
            const perfbench::ProbeInputs inputs{*rep.setup.dataset,
                                                rep.setup.suite->baseline_model(),
                                                rep.setup.session->characterizer()->config()};
            doc.raw("probes", perfbench::run_probes(inputs));
            drop_store(o);
        }
        std::cout << doc.str() << "\n";
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
    return 0;
}
