// Unified experiment runner — the batch front-end of the Session engine.
//
//   $ run --list
//   $ run --experiment=fig8b                      # one figure
//   $ run --experiment=attack --quick --json      # every attack, shared
//                                                 # baseline, JSON output
//   $ run --experiment=fig5b,defense --threads=4
//
// All selected scenarios execute through ONE Session: trained baselines,
// datasets and circuit characterisations are cached and shared, and the
// summary line (or the "cache" object in --json mode) shows the reuse.
#include <cstdlib>
#include <iostream>
#include <string>

#include "core/scenario.hpp"
#include "core/session.hpp"
#include "fi/catalog.hpp"
#include "fi/shard.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"

namespace {

/// Flag value, falling back to an environment variable so CI wrappers can
/// request telemetry without editing command lines.
std::string with_env_fallback(std::string value, const char* env_name) {
    if (value.empty()) {
        if (const char* env = std::getenv(env_name)) value = env;
    }
    return value;
}

}  // namespace

int main(int argc, char** argv) {
    using namespace snnfi;

    util::ArgParser parser(
        "snnfi unified experiment runner (Session + scenario registry)");
    parser.add_option("experiment", "all",
                      "Comma-separated experiment ids and/or tags "
                      "(see --list; 'all' runs the whole registry)");
    parser.add_flag("list", "List experiment ids and tags, then exit");
    parser.add_flag("quick", "Shrink workloads (smoke runs, CI)");
    parser.add_flag("json", "Emit one JSON document instead of ASCII tables");
    parser.add_flag("csv", "Also print CSV rows under each table");
    parser.add_option("samples", "1000", "Training samples for SNN experiments");
    parser.add_option("neurons", "100", "Neurons per layer for SNN experiments");
    parser.add_option("threads", "0",
                      "Session thread-pool size (0 = SNNFI_THREADS env or all "
                      "cores)");
    parser.add_option("cache-capacity", "0",
                      "Artifact-cache entry cap with LRU eviction (0 = unbounded)");
    parser.add_option("store-dir", "",
                      "Persistent artifact store directory shared across "
                      "processes (default: SNNFI_STORE_DIR env; empty = no "
                      "store)");
    parser.add_option("store-max-bytes", "0",
                      "On-disk store size cap, LRU-evicted (0 = unbounded)");
    parser.add_option("campaign-dir", "",
                      "Merge a sharded campaign directory (see the worker "
                      "binary) and print its tables instead of running "
                      "experiments");
    parser.add_option("trace-out", "",
                      "Write a Chrome trace-event JSON file (chrome://tracing "
                      "/ Perfetto) and enable telemetry (default: SNNFI_TRACE "
                      "env)");
    parser.add_option("metrics-out", "",
                      "Write the metrics-registry JSON document and enable "
                      "telemetry (default: SNNFI_METRICS env)");
    try {
        if (!parser.parse(argc, argv)) return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n" << parser.usage();
        return 2;
    }

    auto& registry = core::ScenarioRegistry::instance();
    if (parser.get_bool("list")) {
        util::ResultTable table("registered experiments",
                                {"id", "tags", "description"});
        for (const auto& spec : registry.all()) {
            std::string tags;
            for (std::size_t t = 0; t < spec.tags.size(); ++t)
                tags += (t ? "," : "") + spec.tags[t];
            table.add_row({spec.id, tags,
                           spec.description.empty() ? spec.title : spec.description});
        }
        std::cout << table;
        std::cout << "tags:";
        for (const auto& tag : registry.tag_names()) std::cout << " " << tag;
        std::cout << "\n(select with --experiment=<id|tag>[,<id|tag>...]; "
                     "'all' runs everything)\n";
        return 0;
    }

    util::set_log_level(util::LogLevel::kWarn);
    const std::string trace_out =
        with_env_fallback(parser.get("trace-out"), "SNNFI_TRACE");
    const std::string metrics_out =
        with_env_fallback(parser.get("metrics-out"), "SNNFI_METRICS");
    if (!trace_out.empty() || !metrics_out.empty()) obs::set_enabled(true);
    const auto export_telemetry = [&] {
        if (!trace_out.empty() && !obs::write_chrome_trace(trace_out))
            std::cerr << "warning: cannot write trace to " << trace_out << "\n";
        if (!metrics_out.empty() && !obs::write_metrics(metrics_out))
            std::cerr << "warning: cannot write metrics to " << metrics_out
                      << "\n";
    };

    core::RunOptions options;
    options.quick = parser.get_bool("quick");
    options.train_samples = static_cast<std::size_t>(parser.get_int("samples"));
    options.n_neurons = static_cast<std::size_t>(parser.get_int("neurons"));
    options.max_workers = static_cast<std::size_t>(parser.get_int("threads"));
    options.cache_capacity =
        static_cast<std::size_t>(parser.get_int("cache-capacity"));
    options.store_dir = parser.get("store-dir");
    options.store_max_bytes =
        static_cast<std::uint64_t>(parser.get_int("store-max-bytes"));

    // Merge mode: reassemble a sharded campaign directory into the full
    // result (bit-identical to a single-process run of the scenario) and
    // present it — no experiments execute.
    const std::string campaign_dir = parser.get("campaign-dir");
    if (!campaign_dir.empty()) {
        try {
            const fi::CampaignManifest manifest =
                fi::read_manifest(campaign_dir);
            // Progress/straggler view first — printed before the merge is
            // attempted, so incomplete campaigns still show which shard is
            // behind (or stalled) instead of only the merge error.
            const util::ResultTable progress =
                fi::shard_progress_table(campaign_dir);
            if (!parser.get_bool("json")) std::cout << progress;
            const fi::CampaignResult merged =
                fi::merge_campaign_dir(campaign_dir);
            const std::string title =
                fi::find_campaign_entry(manifest.scenario).title;
            if (parser.get_bool("json")) {
                std::cout << "{\"scenario\":\""
                          << util::json_escape(manifest.scenario)
                          << "\",\"shards\":" << manifest.shards
                          << ",\"progress\":" << progress.to_json()
                          << ",\"campaign\":" << merged.to_json() << "}\n";
            } else {
                const util::ResultTable table = merged.detail_table(title);
                std::cout << table;
                if (parser.get_bool("csv")) std::cout << table.to_csv();
                std::cout << merged.sensitivity_map(title + " — sensitivity map");
                std::cout << "[" << manifest.scenario << " merged from "
                          << manifest.shards << " shard(s), " << merged.cells.size()
                          << " cell(s)]\n";
            }
            export_telemetry();
            return 0;
        } catch (const std::exception& e) {
            std::cerr << "error: " << e.what() << "\n";
            export_telemetry();
            return 1;
        }
    }

    // Repeated --experiment flags accumulate, so join all occurrences.
    std::string selector;
    for (const auto& token : parser.get_strings("experiment")) {
        if (!selector.empty()) selector += ",";
        selector += token;
    }
    std::vector<const core::ScenarioSpec*> selection;
    try {
        selection = registry.select(selector);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n(use --list for ids and tags)\n";
        return 1;
    }
    if (selection.empty()) {
        std::cerr << "error: selector matched no experiments\n";
        return 1;
    }

    core::Session session(options);
    const std::vector<core::RunResult> results = session.run_many(selection);

    if (parser.get_bool("json")) {
        std::cout << core::to_json(results, session) << "\n";
        export_telemetry();
        return 0;
    }

    for (const auto& result : results) {
        std::cout << result.table;
        if (parser.get_bool("csv")) std::cout << result.table.to_csv();
        std::cout << "[" << result.id << " in " << result.seconds << " s (setup "
                  << result.setup_seconds << " s + run " << result.run_seconds
                  << " s), cache " << result.cache_hits << " hit(s) / "
                  << result.cache_misses << " miss(es)]\n\n";
    }
    // Wall-time summary across the batch: where the time went, and how much
    // of it a warm cache/store would have saved (the setup column).
    util::ResultTable timing("experiment timing",
                             {"id", "seconds", "setup_s", "run_s", "cache_hits",
                              "cache_misses"});
    for (const auto& result : results) {
        timing.add_row({result.id, result.seconds, result.setup_seconds,
                        result.run_seconds,
                        static_cast<double>(result.cache_hits),
                        static_cast<double>(result.cache_misses)});
    }
    std::cout << timing;
    std::cout << "session cache: " << session.cache_hits() << " hit(s), "
              << session.cache_misses() << " miss(es), " << session.cache_evictions()
              << " eviction(s), " << session.cache_entries() << " live entr"
              << (session.cache_entries() == 1 ? "y" : "ies") << " across "
              << results.size() << " experiment(s)\n";
    export_telemetry();
    return 0;
}
