/**
 * @file
 * Fuzz the windowed engine. Random task programs run through the full
 * pipeline on {ring/adjacent, mesh/spread, fixed} topologies at
 * --sim-threads {1, 2, 4}.
 *
 * Everything — decisions, stats and the full exported trace including
 * the engine's own window-barrier records — must be bit-identical
 * across thread counts. This holds by construction: every domain
 * drains the same grid window, and the barrier applies deferred
 * operations in a simulated-state order (see sim/sim_engine.hh), so a
 * violation is always an engine bug.
 *
 * One fixed configuration additionally pins the window/fusion
 * counters as goldens, so an engine change that silently reshapes the
 * window grid fails here rather than only showing up as a throughput
 * drift in BENCH_sim. Another pins where an event budget stops a
 * System.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/system.hh"
#include "same_run.hh"
#include "sim/random.hh"
#include "workload/builder.hh"
#include "workload/workload.hh"

namespace tss
{
namespace
{

/** Random task stream over a small object pool (dense hazards). */
TaskTrace
randomTrace(std::uint64_t seed, unsigned tasks, unsigned objects,
            unsigned max_ops)
{
    Rng rng(seed);
    TaskTrace trace;
    trace.name = "fuzz";
    trace.addKernel("k");
    std::vector<std::uint64_t> pool(objects);
    for (unsigned i = 0; i < objects; ++i)
        pool[i] = 0x1000 + 0x1000ULL * i;

    TaskBuilder b(trace);
    for (unsigned t = 0; t < tasks; ++t) {
        auto nops = static_cast<unsigned>(
            rng.rangeInclusive(1, static_cast<std::int64_t>(max_ops)));
        b.begin(0, 200 + rng.range(20000));
        std::vector<std::uint64_t> used;
        for (unsigned i = 0; i < nops; ++i) {
            std::uint64_t addr = pool[rng.range(objects)];
            bool dup = false;
            for (std::uint64_t u : used)
                dup |= u == addr;
            if (dup)
                continue;
            used.push_back(addr);
            double r = rng.uniform();
            if (r < 0.15)
                b.scalar();
            else if (r < 0.55)
                b.in(addr, 1024);
            else if (r < 0.8)
                b.inout(addr, 1024);
            else
                b.out(addr, 1024);
        }
        b.commit();
    }
    return trace;
}

struct TopoCase
{
    const char *name;
    TopologyKind topology;
    PlacementKind placement;
};

constexpr TopoCase topoCases[] = {
    {"ring/adjacent", TopologyKind::Ring, PlacementKind::Adjacent},
    {"mesh/spread", TopologyKind::Mesh, PlacementKind::Spread},
    {"fixed", TopologyKind::Fixed, PlacementKind::Adjacent},
};

struct RunOutcome
{
    RunResult result;
    std::string traceJson;
};

/** The fuzzed machine: 2 pipelines, 32 cores, full tracing. */
PipelineConfig
fuzzConfig(const TopoCase &tc, unsigned sim_threads)
{
    PipelineConfig cfg;
    cfg.numPipelines = 2;
    cfg.numCores = 32;
    cfg.nocTopology = tc.topology;
    cfg.nocPlacement = tc.placement;
    cfg.simThreads = sim_threads;
    cfg.traceMode = obs::TraceMode::Full;
    return cfg;
}

RunOutcome
runOnce(const TaskTrace &trace, const TopoCase &tc, unsigned sim_threads)
{
    auto sys = SystemBuilder(fuzzConfig(tc, sim_threads), trace).build();
    RunOutcome out;
    out.result = sys->run();
    out.traceJson = sys->tracer()->chromeJson();
    return out;
}

/**
 * Cross-thread: total byte identity, engine records included. Window
 * structure is a pure function of simulated state, never of the host
 * thread count.
 */
TEST(FuzzLookahead, ThreadCountInvisible)
{
    TaskTrace trace = randomTrace(5, 100, 10, 5);
    for (const TopoCase &tc : topoCases) {
        RunOutcome ref = runOnce(trace, tc, 1);
        for (unsigned threads : {2u, 4u}) {
            SCOPED_TRACE(std::string(tc.name) + " t" +
                         std::to_string(threads));
            RunOutcome got = runOnce(trace, tc, threads);
            expectSameRun(ref.result, got.result, "");
            EXPECT_EQ(ref.traceJson, got.traceJson) << "trace bytes differ";
        }
    }
}

/**
 * Golden window/fusion counters for one pinned configuration. These
 * are simulated-state functions: any engine change that shifts them
 * must be intentional and update these numbers (and BENCH_sim.json).
 */
TEST(FuzzLookahead, GoldenWindowCounters)
{
    TaskTrace trace = randomTrace(1, 80, 10, 5);
    TopoCase tc{"ring/adjacent", TopologyKind::Ring,
                PlacementKind::Adjacent};
    const obs::Snapshot m = runOnce(trace, tc, 2).result.metrics;
    std::uint64_t windows = m.counter("engine.windows");
    std::uint64_t single = m.counter("engine.single_shard_windows");
    std::uint64_t fused = m.counter("engine.fused_windows");
    std::uint64_t multi = m.counter("engine.multi_shard_windows");
    std::uint64_t occupancy = m.counter("engine.window_occupancy_sum");
    std::uint64_t max_occupancy = m.counter("engine.max_window_occupancy");

    // Every grid window starts at some shard's next event, so each
    // has at least one active shard.
    EXPECT_EQ(windows, single + multi);
    EXPECT_GE(single, fused);
    EXPECT_GE(occupancy, single);
    EXPECT_GE(max_occupancy, 1u);
    EXPECT_LE(max_occupancy, 3u); // 2 pipelines + backend

    // Pinned goldens (ring/adjacent, 2 pipelines, 32 cores, seed 1).
    EXPECT_EQ(windows, 3148u);
    EXPECT_EQ(single, 2883u);
    EXPECT_EQ(fused, 2653u);
    EXPECT_EQ(multi, 265u);
    EXPECT_EQ(occupancy, 3415u);
    EXPECT_EQ(max_occupancy, 3u);
}

/**
 * Where an event budget stops a System. The budget is checked at
 * window barriers only, so a window may overshoot it; tss-serve's
 * --max-events-per-job and the LivenessReport it returns depend on
 * exactly where. Pinned per budget on two topologies, with the
 * event-stream digests of the partial run. Every budget stops both
 * runs early (a whole run takes 4,514 events), the largest after 67
 * of the 80 tasks retired.
 */
TEST(FuzzLookahead, EventBudgetStopPoint)
{
    struct Golden
    {
        const TopoCase &tc;
        std::uint64_t budget;
        std::uint64_t events;
        std::size_t tasks;
        Cycle now;
        std::uint64_t windows;
        std::uint64_t eventDigest;
        std::uint64_t applyDigest;
    };
    const Golden goldens[] = {
        {topoCases[0], 500, 500, 0, 2095, 377,
         0xb56e7e7ffa33570dULL, 0x463a89ddb1f28293ULL},
        {topoCases[0], 2000, 2000, 2, 7341, 1473,
         0xb2499a63a5c9fc03ULL, 0xb29631184db79cb3ULL},
        {topoCases[0], 4200, 4200, 67, 226369, 3236,
         0xb6e2ed6414fd17a7ULL, 0xc27792697ed5f331ULL},
        {topoCases[1], 500, 501, 0, 2090, 372,
         0xb70fd1aa5b981b2fULL, 0x7db8f96cdc141bb5ULL},
        {topoCases[1], 2000, 2000, 2, 7319, 1467,
         0x64b4edf7a8221067ULL, 0x2650a35fe80f8cc4ULL},
        {topoCases[1], 4200, 4201, 67, 225514, 3203,
         0x385fe7b30f8926d2ULL, 0xdf08be7cbe3f4f3bULL},
    };

    TaskTrace trace = randomTrace(7, 80, 10, 5);
    for (const Golden &g : goldens) {
        SCOPED_TRACE(std::string(g.tc.name) + " budget " +
                     std::to_string(g.budget));
        auto sys = SystemBuilder(fuzzConfig(g.tc, 1), trace).build();
        LivenessReport rep = sys->runWatchdog(g.budget);
        EXPECT_FALSE(rep.completed);
        EXPECT_FALSE(rep.wedged);
        EXPECT_EQ(rep.eventsExecuted, g.events);
        EXPECT_EQ(rep.tasksFinished, g.tasks);
        obs::Snapshot snap = sys->metricsRegistry().snapshot();
        EXPECT_EQ(snap.gauge("engine.now"), static_cast<double>(g.now));
        EXPECT_EQ(snap.counter("engine.windows"), g.windows);
        EXPECT_EQ(snap.counter("engine.event_digest"), g.eventDigest);
        EXPECT_EQ(snap.counter("engine.apply_digest"), g.applyDigest);
    }
}

} // namespace
} // namespace tss
