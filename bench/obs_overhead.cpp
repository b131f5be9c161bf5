/**
 * @file
 * Flight-recorder overhead micro-bench: the same blocked-Cholesky
 * simulation with the tracer off, in tail mode (the always-on bounded
 * ring), and in full mode (every record kept and exported), reporting
 * wall-clock simulation throughput per mode.
 *
 * Wall numbers are machine-dependent and therefore *advisory* in
 * BENCH_kernel.json (re-baseline by hand). What is NOT advisory is
 * the zero-perturbation contract: the bench hard-fails unless the
 * schedule and every registry metric but the tracer's own record
 * count are bit-identical across all three modes — tracing must
 * observe the machine, never steer it.
 *
 * Usage: obs_overhead [--reps=N] [--scale=S] [--sim-threads=N]
 */

#include <chrono>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "core/system.hh"
#include "driver/cli.hh"
#include "workload/workload.hh"

namespace
{

struct ModeResult
{
    tss::RunResult result;
    double bestSeconds = 0;
};

ModeResult
runMode(const tss::TaskTrace &trace, tss::obs::TraceMode mode,
        unsigned sim_threads, unsigned reps)
{
    ModeResult out;
    for (unsigned rep = 0; rep < reps; ++rep) {
        tss::PipelineConfig cfg;
        cfg.numCores = 64;
        cfg.numPipelines = 2;
        cfg.simThreads = sim_threads;
        cfg.traceMode = mode;
        auto sys = tss::SystemBuilder(cfg, trace).build();
        auto t0 = std::chrono::steady_clock::now();
        tss::RunResult r = sys->run();
        std::chrono::duration<double> dt =
            std::chrono::steady_clock::now() - t0;
        if (rep == 0 || dt.count() < out.bestSeconds)
            out.bestSeconds = dt.count();
        out.result = std::move(r);
    }
    return out;
}

/** Equal but for the record count, which only a tracer binds. */
bool
sameSimulation(tss::RunResult a, tss::RunResult b)
{
    a.metrics.counters.erase("obs.trace_records");
    b.metrics.counters.erase("obs.trace_records");
    return a == b;
}

} // namespace

int
main(int argc, char **argv)
{
    tss::CliArgs args(argc, argv);
    unsigned reps = args.getUnsigned("reps", 3);
    unsigned sim_threads = args.getUnsigned("sim-threads", 1);
    double scale = args.scale(0.25, 1.0, 1.0);

    tss::TaskTrace trace = tss::genCholeskyBlocked(
        static_cast<unsigned>(16 * scale) + 4, 16 * 1024, 1);

    ModeResult off =
        runMode(trace, tss::obs::TraceMode::Off, sim_threads, reps);
    ModeResult tail =
        runMode(trace, tss::obs::TraceMode::Tail, sim_threads, reps);
    ModeResult full =
        runMode(trace, tss::obs::TraceMode::Full, sim_threads, reps);

    // The hard gate: tracing never changes the simulation.
    if (!sameSimulation(off.result, tail.result) ||
        !sameSimulation(off.result, full.result)) {
        std::cerr << "obs_overhead: FAIL — simulated stats differ "
                     "across trace modes\n";
        return 1;
    }

    std::uint64_t events =
        off.result.metrics.counter("engine.events_executed");
    auto events_per_sec = [&](const ModeResult &m) {
        return m.bestSeconds > 0
            ? static_cast<double>(events) / m.bestSeconds
            : 0.0;
    };
    double off_eps = events_per_sec(off);
    double tail_eps = events_per_sec(tail);
    double full_eps = events_per_sec(full);
    auto pct = [&](double eps) {
        return off_eps > 0 ? 100.0 * (off_eps - eps) / off_eps : 0.0;
    };

    std::cout.precision(4);
    std::cout << "{\n  \"obs_overhead\": {\n"
              << "    \"metric\": \"simulated events per wall second "
              << "(best of " << reps << "), tracer off vs tail vs "
              << "full; advisory\",\n"
              << "    \"tasks\": " << trace.size() << ",\n"
              << "    \"events\": " << events << ",\n"
              << "    \"trace_records_full\": "
              << full.result.metrics.counter("obs.trace_records")
              << ",\n"
              << "    \"events_per_sec_off\": " << off_eps << ",\n"
              << "    \"events_per_sec_tail\": " << tail_eps << ",\n"
              << "    \"events_per_sec_full\": " << full_eps << ",\n"
              << "    \"tail_overhead_pct\": " << pct(tail_eps)
              << ",\n"
              << "    \"full_overhead_pct\": " << pct(full_eps)
              << ",\n"
              << "    \"identical_simulated_stats\": true\n"
              << "  }\n}\n";
    return 0;
}
