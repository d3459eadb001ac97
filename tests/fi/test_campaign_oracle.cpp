// The campaign engine against an oracle: a test-side copy of the
// straightforward engine that runs one BatchRunner per 8-cell chunk over
// the whole image + Rng stream, encoding step by step, with the same clean
// passes and the same early-stopping rounds. Every per-cell number must
// match it bit for bit — for eval sets of 1 to 35 samples, for
// weight-patch, neuron and scheduled-glitch cells, with early stopping, at
// 1 and 4 workers — and repeated run_cells calls must reuse the clean
// passes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>

#include "core/session.hpp"
#include "fi/campaign.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "snn/classifier.hpp"
#include "snn/runtime.hpp"
#include "util/random.hpp"
#include "util/stats.hpp"

namespace snnfi::fi {
namespace {

core::RunOptions small_options(std::size_t workers) {
    core::RunOptions options;
    options.quick = false;  // quick mode would switch early stopping off
    options.train_samples = 60;
    options.n_neurons = 16;
    options.eval_window = 30;
    options.max_workers = workers;
    return options;
}

CampaignConfig oracle_config(std::size_t eval_samples) {
    CampaignConfig config;
    config.models = {find_fault_model("stuck_at_1"), find_fault_model("bit_flip"),
                     find_fault_model("dead_neuron"),
                     find_fault_model("saturated_neuron")};
    config.sites.max_sites = 2;
    GlitchCellSpec glitch;
    glitch.id = "mid_dip";
    glitch.profile = attack::GlitchProfile({{0.25, 0.5, -0.1791, 0.68}});
    glitch.severity = 0.8;
    config.glitches = {glitch};
    config.eval_samples = eval_samples;
    config.early_stop.enabled = true;
    config.early_stop.min_replicas = 2;
    config.early_stop.max_replicas = 4;
    config.early_stop.ci_halfwidth_pct = 4.0;
    return config;
}

/// The engine's inference path before block-major scheduling, kept as the
/// reference: per round, one BatchRunner per (replica, 8-cell chunk) over
/// the whole eval stream, encoding step by step from the replica Rng.
std::vector<CellResult> oracle_inference(core::Session& session,
                                         const CampaignConfig& config,
                                         const std::vector<CellResult>& cells) {
    const auto suite = session.attack_suite();
    const auto baseline = suite->baseline_model();
    const snn::Dataset& data = suite->dataset();
    const snn::DiehlCookConfig& network = suite->config().network;
    const std::size_t eval_n = std::min(config.eval_samples, data.size());
    const attack::GlitchCompiler compiler(network);

    std::vector<snn::FaultOverlay> overlays(cells.size());
    std::vector<snn::OverlaySchedule> schedules(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) {
        if (cells[c].scheduled) {
            for (const GlitchCellSpec& glitch : config.glitches) {
                if (glitch.id == cells[c].label)
                    schedules[c] = compiler.compile(glitch.profile, glitch.footprint);
            }
            EXPECT_FALSE(schedules[c].empty()) << cells[c].label;
        } else {
            find_fault_model(cells[c].model)
                ->build_overlay(overlays[c], network, cells[c].site, cells[c].severity);
        }
    }

    const auto stream_seed = [&](std::size_t replica) {
        return util::derive_seed(config.seed, CampaignEngine::kReplicaStream + replica);
    };
    struct Clean {
        snn::ActivityClassifier classifier{1, 10};
        double accuracy_pct = 0.0;
    };
    std::vector<Clean> clean;
    const auto ensure_clean = [&](std::size_t replicas) {
        while (clean.size() < replicas) {
            snn::NetworkRuntime runtime(baseline);
            runtime.rng().reseed(stream_seed(clean.size()));
            Clean entry{snn::ActivityClassifier(network.n_neurons, 10), 0.0};
            std::vector<snn::SampleActivity> activity;
            for (std::size_t i = 0; i < eval_n; ++i) {
                activity.push_back(runtime.run_sample(data.images[i]));
                entry.classifier.accumulate(activity.back().exc_counts, data.labels[i]);
            }
            entry.classifier.assign_labels();
            std::size_t correct = 0;
            for (std::size_t i = 0; i < eval_n; ++i)
                correct += entry.classifier.predict(activity[i].exc_counts) ==
                           data.labels[i];
            entry.accuracy_pct =
                100.0 * static_cast<double>(correct) / static_cast<double>(eval_n);
            clean.push_back(std::move(entry));
        }
    };

    const EarlyStopPolicy& es = config.early_stop;
    const std::size_t min_reps = std::max<std::size_t>(1, es.min_replicas);
    const std::size_t max_reps =
        es.enabled ? std::max(min_reps, es.max_replicas) : min_reps;
    std::vector<CellResult> out = cells;
    for (CellResult& cell : out) {  // keep the skeleton, drop the engine's numbers
        cell.replicas = 0;
        cell.accuracy_pct = cell.drop_pct = cell.ci_halfwidth_pct = 0.0;
        cell.critical = cell.early_stopped = false;
    }
    std::vector<std::vector<double>> drops(cells.size());
    std::vector<std::vector<double>> accuracies(cells.size());
    std::vector<std::size_t> open(cells.size());
    for (std::size_t c = 0; c < cells.size(); ++c) open[c] = c;
    std::size_t replicas_done = 0;
    while (!open.empty() && replicas_done < max_reps) {
        const std::size_t round_replicas =
            replicas_done == 0 ? min_reps : replicas_done + 1;
        ensure_clean(round_replicas);
        for (std::size_t r = replicas_done; r < round_replicas; ++r) {
            for (std::size_t b = 0; b < open.size(); b += CampaignEngine::kBatchCells) {
                const std::size_t count =
                    std::min(CampaignEngine::kBatchCells, open.size() - b);
                std::vector<snn::NetworkRuntime> runtimes;
                runtimes.reserve(count);
                std::vector<snn::NetworkRuntime*> members;
                for (std::size_t k = 0; k < count; ++k) {
                    runtimes.emplace_back(baseline, overlays[open[b + k]]);
                    if (!schedules[open[b + k]].empty())
                        runtimes.back().set_schedule(schedules[open[b + k]]);
                }
                for (snn::NetworkRuntime& runtime : runtimes) members.push_back(&runtime);
                snn::BatchRunner batch(*baseline, std::move(members));
                util::Rng rng(stream_seed(r));
                std::vector<std::size_t> correct(count, 0);
                std::vector<snn::SampleActivity> activities(count);
                for (std::size_t i = 0; i < eval_n; ++i) {
                    batch.run_sample_into(data.images[i], rng, activities);
                    for (std::size_t k = 0; k < count; ++k)
                        correct[k] += clean[r].classifier.predict(
                                          activities[k].exc_counts) == data.labels[i];
                }
                for (std::size_t k = 0; k < count; ++k) {
                    const double accuracy_pct = 100.0 *
                                                static_cast<double>(correct[k]) /
                                                static_cast<double>(eval_n);
                    drops[open[b + k]].push_back(clean[r].accuracy_pct - accuracy_pct);
                    accuracies[open[b + k]].push_back(accuracy_pct);
                }
            }
        }
        replicas_done = round_replicas;
        std::vector<std::size_t> still_open;
        for (const std::size_t c : open) {
            CellResult& cell = out[c];
            const std::size_t n = drops[c].size();
            cell.replicas = n;
            cell.drop_pct = util::mean(drops[c]);
            cell.accuracy_pct = util::mean(accuracies[c]);
            cell.ci_halfwidth_pct =
                n > 1 ? 1.96 * util::stddev(drops[c]) / std::sqrt(static_cast<double>(n))
                      : 0.0;
            cell.critical = cell.drop_pct > config.critical_drop_pct;
            if (!es.enabled) continue;
            const bool tight = cell.ci_halfwidth_pct <= es.ci_halfwidth_pct;
            if (tight && n < max_reps) {
                cell.early_stopped = true;
            } else if (!tight && n < max_reps) {
                still_open.push_back(c);
            }
        }
        open = std::move(still_open);
    }
    return out;
}

void expect_cells_equal(const std::vector<CellResult>& got,
                        const std::vector<CellResult>& want, const std::string& where) {
    ASSERT_EQ(got.size(), want.size()) << where;
    for (std::size_t c = 0; c < got.size(); ++c) {
        const std::string id = where + " cell " + got[c].model + "/" + got[c].site_id();
        EXPECT_EQ(got[c].plan_index, want[c].plan_index) << id;
        EXPECT_EQ(got[c].replicas, want[c].replicas) << id;
        // Bit-for-bit: exact double equality, not a tolerance.
        EXPECT_EQ(got[c].accuracy_pct, want[c].accuracy_pct) << id;
        EXPECT_EQ(got[c].drop_pct, want[c].drop_pct) << id;
        EXPECT_EQ(got[c].ci_halfwidth_pct, want[c].ci_halfwidth_pct) << id;
        EXPECT_EQ(got[c].critical, want[c].critical) << id;
        EXPECT_EQ(got[c].early_stopped, want[c].early_stopped) << id;
    }
}

TEST(CampaignOracle, BlockMajorEngineMatchesWholeStreamOracle) {
    const std::size_t sizes[] = {1, 15, 16, 17, 35};
    std::vector<std::string> renders;  // per eval set, at one worker
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        // The engines differ only in their eval set, so one session (and
        // one trained baseline) per worker count serves them all.
        core::Session session(small_options(workers));
        for (std::size_t e = 0; e < std::size(sizes); ++e) {
            const std::string where = "eval_n " + std::to_string(sizes[e]) +
                                      ", workers " + std::to_string(workers);
            const CampaignConfig config = oracle_config(sizes[e]);
            CampaignEngine engine(session, config);
            const auto campaign = engine.run();
            ASSERT_GE(campaign->cells.size(), 9u) << where;

            bool weight_patch = false;
            bool neuron = false;
            bool scheduled = false;
            for (const CellResult& cell : campaign->cells) {
                weight_patch |= cell.site.kind == SiteKind::kSynapse;
                neuron |= cell.site.kind == SiteKind::kNeuron;
                scheduled |= cell.scheduled;
            }
            EXPECT_TRUE(weight_patch && neuron && scheduled) << where;

            expect_cells_equal(campaign->cells,
                               oracle_inference(session, config, campaign->cells), where);
            if (workers == 1) {
                renders.push_back(campaign->to_json());
            } else {
                EXPECT_EQ(campaign->to_json(), renders[e]) << where;
            }
        }
    }
}

TEST(CampaignOracle, EarlyStoppingRoundsMatchOracle) {
    // A loose CI bound stops some cells at min_replicas, a tight one runs
    // the rest to max_replicas through single-replica rounds.
    for (const double halfwidth : {0.0, 6.0}) {
        core::Session session(small_options(4));
        CampaignConfig config = oracle_config(17);
        config.early_stop.ci_halfwidth_pct = halfwidth;
        CampaignEngine engine(session, config);
        const auto campaign = engine.run();
        std::size_t deepest = 0;
        for (const CellResult& cell : campaign->cells)
            deepest = std::max(deepest, cell.replicas);
        EXPECT_GT(deepest, config.early_stop.min_replicas) << halfwidth;
        expect_cells_equal(campaign->cells,
                           oracle_inference(session, config, campaign->cells),
                           "halfwidth " + std::to_string(halfwidth));
    }
}

std::size_t count_spans(const std::string& name) {
    std::size_t n = 0;
    for (const obs::TraceEventRecord& event : obs::trace_events()) n += event.name == name;
    return n;
}

TEST(CampaignOracle, RunCellsReusesCleanPassesAcrossCalls) {
    obs::set_enabled(true);
    obs::reset_trace();
    core::Session session(small_options(2));
    // A fixed replica count: both calls need the same clean passes.
    CampaignConfig config = oracle_config(17);
    config.early_stop.enabled = false;
    CampaignEngine engine(session, config);
    const std::size_t total = engine.plan_cells();
    ASSERT_GE(total, 4u);
    std::vector<std::size_t> first_chunk;
    std::vector<std::size_t> second_chunk;
    for (std::size_t c = 0; c < total; ++c)
        (c < total / 2 ? first_chunk : second_chunk).push_back(c);

    const CampaignResult first = engine.run_cells(first_chunk);
    const std::size_t clean_first = count_spans("fi.clean");
    EXPECT_GT(clean_first, 0u);
    const CampaignResult second = engine.run_cells(second_chunk);
    EXPECT_EQ(count_spans("fi.clean"), clean_first);  // none in the second call
    // One fi.cell span per (cell, replica).
    std::size_t evaluations = 0;
    for (const CampaignResult* part : {&first, &second}) {
        for (const CellResult& cell : part->cells) evaluations += cell.replicas;
    }
    EXPECT_EQ(count_spans("fi.cell"), evaluations);
    EXPECT_GT(count_spans("snn.stream"), 0u);
    obs::set_enabled(false);
    obs::reset_trace();

    // Bit-identical to fresh engines (which build their own clean passes)
    // and to the same cells of a full run.
    core::Session fresh_session(small_options(2));
    CampaignEngine fresh(fresh_session, config);
    expect_cells_equal(second.cells, fresh.run_cells(second_chunk).cells, "second chunk");
    const auto full = fresh.run();
    std::vector<CellResult> full_second(full->cells.begin() +
                                            static_cast<std::ptrdiff_t>(first_chunk.size()),
                                        full->cells.end());
    expect_cells_equal(second.cells, full_second, "vs full run");
    EXPECT_EQ(second.to_json(), fresh.run_cells(second_chunk).to_json());
}

TEST(CampaignOracle, EncodesEachReplicaStreamOncePerCampaign) {
    obs::Counter& encoded = obs::Registry::global().counter("snn.encode.samples");
    for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
        core::Session session(small_options(workers));
        for (const bool early_stop : {true, false}) {
            const std::string where = "workers " + std::to_string(workers) +
                                      (early_stop ? ", early stopping" : ", fixed");
            CampaignConfig config = oracle_config(17);
            config.early_stop.enabled = early_stop;
            config.early_stop.ci_halfwidth_pct = 6.0;
            CampaignEngine engine(session, config);
            (void)engine.plan_cells();  // trains the baseline, outside the count
            obs::set_enabled(true);
            const std::uint64_t before = encoded.value();
            const auto result = engine.run();
            const std::uint64_t samples = encoded.value() - before;
            obs::set_enabled(false);

            std::size_t reached = 0;
            for (const CellResult& cell : result->cells)
                reached = std::max(reached, cell.replicas);
            if (!early_stop) {
                // One round, nothing prepared ahead: one stream per replica.
                EXPECT_EQ(samples, 17 * reached) << where;
                continue;
            }
            ASSERT_GT(reached, config.early_stop.min_replicas) << where;
            // One stream per replica reached, plus at most the one a last
            // round prepared for a round that never came.
            EXPECT_GE(samples, 17 * reached) << where;
            EXPECT_LE(samples, 17 * (reached + 1)) << where;
        }
    }
}

TEST(CampaignOracle, InferenceRoundRejectsStreamsThatDoNotMatchTheModel) {
    core::Session session(small_options(2));
    const auto suite = session.attack_suite();
    const auto model = suite->baseline_model();
    const snn::DiehlCookConfig& network = model->config();
    const auto images = std::span(suite->dataset().images).first(3);
    const std::vector<snn::FaultOverlay> overlays(1);
    const std::vector<std::size_t> cells{0};
    const auto encode = [&](std::span<const std::vector<float>> input,
                            snn::PoissonEncoderConfig encoder, std::size_t steps) {
        util::Rng rng(7);
        return snn::EncodedStream(input, rng, encoder, steps);
    };
    const auto run = [&](const snn::EncodedStream& stream, std::size_t& sunk,
                         bool& ran_ahead) {
        InferenceRound round;
        round.model = model;
        round.streams = std::span(&stream, 1);
        round.overlays = overlays;
        round.cells = cells;
        run_lockstep_inference(
            session.pool(), round,
            [&](std::size_t, std::size_t, std::size_t, const snn::SampleActivity&) {
                ++sunk;
            },
            [&] { ran_ahead = true; });
    };

    std::size_t sunk = 0;
    bool ran_ahead = false;
    run(encode(images, network.encoder, network.steps_per_sample), sunk, ran_ahead);
    EXPECT_EQ(sunk, images.size());
    EXPECT_TRUE(ran_ahead);

    std::vector<std::vector<float>> narrow(images.begin(), images.end());
    for (std::vector<float>& image : narrow) image.pop_back();
    snn::PoissonEncoderConfig slower = network.encoder;
    slower.max_rate_hz /= 2.0;
    const snn::EncodedStream bad[] = {
        encode(images, network.encoder, network.steps_per_sample - 1),  // steps
        encode(narrow, network.encoder, network.steps_per_sample),      // input size
        encode(images, slower, network.steps_per_sample),               // encoder
    };
    for (const snn::EncodedStream& stream : bad) {
        sunk = 0;
        ran_ahead = false;
        EXPECT_THROW(run(stream, sunk, ran_ahead), std::invalid_argument);
        EXPECT_EQ(sunk, 0u);  // rejected before any job ran
        EXPECT_FALSE(ran_ahead);
    }
}

}  // namespace
}  // namespace snnfi::fi
