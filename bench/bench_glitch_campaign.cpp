// Scheduled-overlay throughput benchmark: static overlays vs compiled
// glitch schedules, both through fi::run_lockstep_inference, the
// scheduler the fi campaign engine ships.
//
//   $ ./bench_glitch_campaign [--quick] [--cells=8] [--replicas=2]
//                             [--segments=2] [--out=BENCH_glitch.json]
//
// Every engine evaluates the same cell grid against one shared trained
// baseline in kBatchCells lockstep batches, on one thread:
//   * static_overlay    — whole-run faults (the glitch pipeline's
//     degenerate case and the pre-glitch engine's only mode);
//   * scheduled_overlay — the same faults compiled into N-segment
//     schedules, paying per-boundary overlay swaps each sample.
//
// The acceptance bar (gated in CI): scheduled-overlay batch throughput
// within 10% of the static-overlay baseline (ratio >= 0.9), because swaps
// happen only at segment boundaries, not per step.
#include <chrono>
#include <fstream>
#include <iostream>
#include <numeric>
#include <span>
#include <sstream>
#include <vector>

#include "attack/glitch.hpp"
#include "core/session.hpp"
#include "fi/campaign.hpp"
#include "util/cli.hpp"
#include "util/log.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace snnfi;

double seconds_since(std::chrono::steady_clock::time_point start) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
        .count();
}

}  // namespace

int main(int argc, char** argv) {
    util::ArgParser parser(
        "Glitch campaign benchmark (static vs scheduled overlay batches)");
    parser.add_flag("quick", "Small grid for CI smoke runs");
    parser.add_option("cells", "0", "Fault cells (0 = default 8; quick 4)");
    parser.add_option("replicas", "0", "Replicas per cell (0 = default 4; quick 2)");
    parser.add_option("segments", "2", "Glitch segments per scheduled sample");
    parser.add_option("reps", "3", "Timing repetitions (min taken, absorbs noise)");
    parser.add_option("samples", "240", "Baseline training samples");
    parser.add_option("neurons", "48", "Neurons per layer");
    parser.add_option("eval-samples", "48", "Inference samples per evaluation");
    parser.add_option("out", "BENCH_glitch.json", "JSON output path");
    try {
        if (!parser.parse(argc, argv)) return 0;
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n" << parser.usage();
        return 2;
    }
    util::set_log_level(util::LogLevel::kWarn);

    const bool quick = parser.get_bool("quick");
    std::size_t n_cells = static_cast<std::size_t>(parser.get_int("cells"));
    if (n_cells == 0) n_cells = quick ? 4 : 8;
    std::size_t replicas = static_cast<std::size_t>(parser.get_int("replicas"));
    if (replicas == 0) replicas = quick ? 2 : 4;
    const std::size_t segments =
        std::max<std::size_t>(1, static_cast<std::size_t>(parser.get_int("segments")));

    // --- one shared trained baseline through the Session cache ----------
    core::RunOptions options;
    options.train_samples = static_cast<std::size_t>(parser.get_int("samples"));
    options.n_neurons = static_cast<std::size_t>(parser.get_int("neurons"));
    options.eval_window =
        std::min<std::size_t>(options.eval_window, options.train_samples / 2);
    core::Session session(options);
    auto suite = session.attack_suite();
    const auto baseline = suite->baseline_model();
    const snn::DiehlCookConfig config = suite->config().network;
    const snn::Dataset& data = suite->dataset();
    const std::size_t eval_n = std::min<std::size_t>(
        static_cast<std::size_t>(parser.get_int("eval-samples")), data.size());
    const std::size_t steps = config.steps_per_sample;

    // --- the cell grid: per-cell glitch operating points -----------------
    // Cell c carries a distinct (threshold_delta, driver_gain) pair so the
    // engines do real per-cell work; the scheduled engine splits the same
    // fault across `segments` windows of the sample.
    std::vector<snn::FaultOverlay> static_overlays;
    std::vector<snn::OverlaySchedule> schedules;
    const attack::GlitchCompiler compiler(config);
    for (std::size_t c = 0; c < n_cells; ++c) {
        const double depth = 0.8 + 0.05 * static_cast<double>(c % 4);
        const double threshold_delta = -0.18 * (1.0 - depth) / 0.2;
        const double gain = 0.68 + 0.08 * static_cast<double>(c % 4);
        static_overlays.push_back(
            compiler.compile(attack::GlitchProfile::constant(threshold_delta, gain))
                .front()
                .overlay);
        // `segments` equal dips spread over the sample.
        std::vector<attack::GlitchWindow> windows;
        for (std::size_t s = 0; s < segments; ++s) {
            attack::GlitchWindow window;
            const double slot = 1.0 / static_cast<double>(segments);
            window.begin = (static_cast<double>(s) + 0.25) * slot;
            window.end = (static_cast<double>(s) + 0.75) * slot;
            window.threshold_delta = threshold_delta;
            window.driver_gain = gain;
            windows.push_back(window);
        }
        schedules.push_back(
            compiler.compile(attack::GlitchProfile(std::move(windows))));
    }

    // --- the engines: identical batching, static vs scheduled faults ----
    // Scheduled cells carry an empty base overlay: their faults arrive
    // through the schedule, as in the campaign.
    const std::vector<snn::FaultOverlay> blank_overlays(n_cells);
    std::vector<std::size_t> ids(n_cells);
    std::iota(ids.begin(), ids.end(), std::size_t{0});
    util::ThreadPool pool(1);
    // Each engine encodes its replica streams inside the timed region, as
    // the campaign does once per round.
    const auto eval_images = std::span(data.images).first(eval_n);
    const auto run_batched = [&](bool scheduled) {
        std::vector<snn::EncodedStream> streams;
        for (std::size_t r = 0; r < replicas; ++r)
            streams.push_back(fi::replica_stream(*baseline, eval_images, 0xCA30, r));
        fi::InferenceRound round;
        round.model = baseline;
        round.streams = streams;
        round.overlays = scheduled ? blank_overlays : static_overlays;
        if (scheduled) round.schedules = schedules;
        round.cells = ids;
        std::size_t total_spikes = 0;
        fi::run_lockstep_inference(pool, round,
                                   [&](std::size_t, std::size_t, std::size_t,
                                       const snn::SampleActivity& activity) {
                                       total_spikes += activity.total_exc_spikes;
                                   });
        return total_spikes;
    };

    // Warm-up keeps first-touch allocation out of the measurement; the
    // minimum over `reps` alternating repetitions absorbs scheduler noise
    // on shared runners.
    const std::size_t reps =
        std::max<std::size_t>(1, static_cast<std::size_t>(parser.get_int("reps")));
    (void)run_batched(false);
    (void)run_batched(true);
    double static_s = 0.0;
    double scheduled_s = 0.0;
    std::size_t static_spikes = 0;
    std::size_t scheduled_spikes = 0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
        auto start = std::chrono::steady_clock::now();
        static_spikes = run_batched(false);
        const double s = seconds_since(start);
        static_s = rep == 0 ? s : std::min(static_s, s);
        start = std::chrono::steady_clock::now();
        scheduled_spikes = run_batched(true);
        const double t = seconds_since(start);
        scheduled_s = rep == 0 ? t : std::min(scheduled_s, t);
    }
    const double ratio = scheduled_s > 0.0 ? static_s / scheduled_s : 0.0;
    const double samples_per_s =
        scheduled_s > 0.0
            ? static_cast<double>(n_cells * replicas * eval_n) / scheduled_s
            : 0.0;

    // --- report -----------------------------------------------------------
    util::ResultTable table(
        "glitch campaign — static vs scheduled overlay batches",
        {"cells", "replicas", "segments", "static_ms", "scheduled_ms",
         "throughput_ratio", "scheduled_samples_per_s"});
    std::ostringstream note;
    note << "baseline trained once (session cache: " << session.cache_misses()
         << " miss(es)); " << eval_n << " eval samples, " << options.n_neurons
         << " neurons/layer, " << steps << " steps/sample; spikes "
         << static_spikes << " (static) / " << scheduled_spikes << " (sched)";
    table.add_note(note.str());
    table.add_row({static_cast<double>(n_cells), static_cast<double>(replicas),
                   static_cast<double>(segments), static_s * 1000.0,
                   scheduled_s * 1000.0, ratio, samples_per_s});
    std::cout << table;

    std::ostringstream json;
    json << "{\"benchmark\":\"glitch_campaign\",\"quick\":"
         << (quick ? "true" : "false") << ",\"workload\":{\"train_samples\":"
         << options.train_samples << ",\"neurons\":" << options.n_neurons
         << ",\"eval_samples\":" << eval_n << ",\"cells\":" << n_cells
         << ",\"replicas\":" << replicas << ",\"segments\":" << segments
         << "},\"static_ms\":" << util::json_number(static_s * 1000.0)
         << ",\"scheduled_ms\":" << util::json_number(scheduled_s * 1000.0)
         << ",\"throughput_ratio\":" << util::json_number(ratio)
         << ",\"scheduled_samples_per_s\":" << util::json_number(samples_per_s)
         << "}";
    const std::string out_path = parser.get("out");
    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "error: cannot write " << out_path << "\n";
        return 1;
    }
    out << json.str() << "\n";
    std::cout << "wrote " << out_path << "\n";
    return 0;
}
