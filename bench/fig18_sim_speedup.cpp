/**
 * @file
 * Simulation engine scaling ("figure 18" — host-side, beyond the
 * paper): event-drain throughput of the windowed conservative engine
 * (sim/sim_engine.hh) at simThreads 1, 2 and 4 over a 4-pipeline
 * machine, on the wide-task shared-data program of fig17. The engine
 * drains every window on one thread today, so the three rows time
 * the same path and read about x1.0.
 *
 * Two kinds of numbers come out:
 *
 *  - *Determinism* (gated hard in CI): the whole registry snapshot
 *    (every simulated statistic and the engine's event and apply
 *    digests) and the complete scheduling decision must be
 *    bit-identical across thread counts. The bench exits non-zero on
 *    any divergence. The makespan, the event/message/version/far-event
 *    counts, the two digests (as hex strings, so no JSON reader rounds
 *    them through a double) and the engine's window/fusion counters
 *    are recorded in the JSON, all read from the snapshot but the
 *    makespan, so compare_bench.py re-checks them against
 *    BENCH_sim.json exactly.
 *  - *Throughput* (advisory): wall seconds, events/second and
 *    self-relative speedup per thread count. Wall time is not
 *    comparable across machines, so these never gate; the machine
 *    fingerprint in BENCH_sim.json tells a reader how to weigh them.
 *
 * Output is a JSON object on stdout (consumed by
 * `compare_bench.py capture --kind sim`); human-readable progress
 * goes to stderr.
 *
 * Usage: fig18_sim_speedup [--quick|--full] [--pipes=N]
 *        [--gen-threads=N] [--reps=N]
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "driver/cli.hh"
#include "driver/experiment.hh"

namespace
{

/** A digest as "0x" and 16 hex digits. */
std::string
hexString(std::uint64_t v)
{
    char buf[19];
    std::snprintf(buf, sizeof buf, "0x%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    tss::CliArgs args(argc, argv);
    tss::RunOptions opts = tss::RunOptions::parse(args);
    bool quick = args.scale(0.0, 1.0, 1.0) < 0.5; // --quick selects 0
    unsigned pipes = opts.pipes.value_or(4);
    unsigned gen_threads = opts.genThreads(8);
    auto reps = args.getUnsigned("reps", quick ? 1 : 3);

    tss::TaskTrace trace = tss::genWideShared(quick ? 1000 : 6000, 1);

    tss::PipelineConfig base = tss::paperConfig(256);
    base.numPipelines = pipes;
    base.slicePacketCredits = 1;

    std::cerr << "# fig18: wide x " << trace.size() << " tasks, "
              << pipes << " pipelines, " << gen_threads
              << " generating threads, best of " << reps << " rep(s); "
              << "hardware_concurrency="
              << std::thread::hardware_concurrency() << "\n";

    struct Row
    {
        unsigned simThreads;
        double wallSeconds;
        double eventsPerSec;
        double speedup;
        bool bitIdentical;
    };
    std::vector<Row> rows;
    tss::RunResult baseline;
    int failures = 0;

    for (unsigned threads : {1u, 2u, 4u}) {
        tss::PipelineConfig cfg = base;
        cfg.simThreads = threads;

        tss::RunResult r;
        double best = 0;
        for (unsigned rep = 0; rep < reps; ++rep) {
            auto begin = std::chrono::steady_clock::now();
            auto sys = tss::SystemBuilder(cfg, trace)
                           .roundRobin(gen_threads)
                           .build();
            r = sys->run();
            auto end = std::chrono::steady_clock::now();
            double wall =
                std::chrono::duration<double>(end - begin).count();
            if (rep == 0 || wall < best)
                best = wall;
        }
        const tss::obs::Snapshot &m = r.metrics;
        std::uint64_t events = m.counter("engine.events_executed");

        // Determinism: the whole schedule and the whole snapshot, every
        // simulated statistic and the event and apply digests included.
        bool bit = true;
        if (threads == 1) {
            baseline = r;
        } else {
            bit = r == baseline;
            if (!bit) {
                const tss::obs::Snapshot &seq = baseline.metrics;
                std::cerr << "BUG: simThreads=" << threads
                          << " diverged from the sequential run "
                          << "(makespan " << r.makespan << " vs "
                          << baseline.makespan << ", events " << events
                          << " vs " << seq.counter("engine.events_executed")
                          << ", event digest "
                          << hexString(m.counter("engine.event_digest"))
                          << " vs "
                          << hexString(seq.counter("engine.event_digest"))
                          << ")\n";
                ++failures;
            }
        }

        double eps = best > 0 ? static_cast<double>(events) / best : 0;
        double speedup =
            rows.empty() ? 1.0 : rows[0].wallSeconds / best;
        rows.push_back({threads, best, eps, speedup, bit});
        std::cerr << "#   " << threads << " thread(s): " << best
                  << " s, " << eps << " events/s, x" << speedup
                  << (bit ? "" : "  DIVERGED") << "\n";
    }

    std::cout << "{\n  \"machine\": {\"hardware_concurrency\": "
              << std::thread::hardware_concurrency() << "},\n";
    std::cout << "  \"workload\": {\"name\": \"wide\", \"tasks\": "
              << trace.size() << ", \"pipelines\": " << pipes
              << ", \"gen_threads\": " << gen_threads << "},\n";
    const tss::obs::Snapshot &seq = baseline.metrics;
    std::cout << "  \"determinism\": {\"makespan\": "
              << baseline.makespan
              << ", \"events\": " << seq.counter("engine.events_executed")
              << ", \"messages\": " << seq.counter("noc.messages")
              << ", \"versions_created\": "
              << seq.counter("frontend.versions_created")
              << ", \"far_events\": " << seq.counter("engine.far_events")
              << ", \"event_digest\": \""
              << hexString(seq.counter("engine.event_digest"))
              << "\", \"apply_digest\": \""
              << hexString(seq.counter("engine.apply_digest")) << "\"},\n";
    const char *const windowCounters[][2] = {
        {"windows", "engine.windows"},
        {"single_shard", "engine.single_shard_windows"},
        {"fused", "engine.fused_windows"},
        {"multi_shard", "engine.multi_shard_windows"},
        {"occupancy_sum", "engine.window_occupancy_sum"},
        {"max_occupancy", "engine.max_window_occupancy"},
    };
    std::cout << "  \"windows\": {";
    const char *sep = "";
    for (const auto &[key, counter] : windowCounters) {
        std::cout << sep << "\"" << key << "\": " << seq.counter(counter);
        sep = ", ";
    }
    std::cout << "},\n";
    std::cout << "  \"sim_scaling\": [\n";
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const Row &row = rows[i];
        std::cout << (i ? ",\n" : "") << "    {\"sim_threads\": "
                  << row.simThreads << ", \"wall_seconds\": "
                  << row.wallSeconds << ", \"events_per_sec\": "
                  << row.eventsPerSec << ", \"speedup\": "
                  << row.speedup << ", \"bit_identical\": "
                  << (row.bitIdentical ? "true" : "false") << "}";
    }
    std::cout << "\n  ]\n}\n";

    return failures ? 1 : 0;
}
