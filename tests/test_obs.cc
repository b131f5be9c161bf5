/**
 * @file
 * Observability tests: flight-recorder byte-determinism across host
 * thread counts and NoC shapes, an exact golden Chrome JSON for a
 * tiny fixed program, tracer-off bit-identity of simulated results,
 * the metrics registry (lookups, conservation, each event counted
 * once, the makespan time base of run averages, the bounded NoC
 * utilization histogram, the whole snapshot pinned), and
 * the Chrome document splicing helpers tss-serve uses.
 */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/system.hh"
#include "driver/experiment.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "same_run.hh"
#include "sim/hash.hh"
#include "workload/address_space.hh"
#include "workload/builder.hh"
#include "workload/workload.hh"

namespace tss
{
namespace
{

PipelineConfig
tinyConfig(unsigned pipes = 1)
{
    PipelineConfig cfg;
    cfg.numPipelines = pipes;
    cfg.numCores = 8;
    cfg.numTrs = 2;
    cfg.numOrt = 1;
    cfg.trsTotalBytes = 256 * 1024;
    cfg.ortTotalBytes = 128 * 1024;
    cfg.ovtTotalBytes = 128 * 1024;
    return cfg;
}

/** A dependency chain: task i reads object i-1, writes object i. */
TaskTrace
chainProgram(unsigned tasks, Cycle runtime = 400)
{
    TaskTrace trace;
    trace.name = "chain";
    auto kernel = trace.addKernel("link");
    TaskBuilder b(trace);
    AddressSpace mem(0x1000'0000);
    std::vector<std::uint64_t> objs;
    for (unsigned i = 0; i <= tasks; ++i)
        objs.push_back(mem.alloc(256));
    for (unsigned i = 0; i < tasks; ++i) {
        b.begin(kernel, runtime)
            .in(objs[i], 256)
            .out(objs[i + 1], 256);
        b.commit();
    }
    return trace;
}

/** Tasks of different threads share objects: ordered mode, parks. */
TaskTrace
sharedProgram(unsigned tasks)
{
    TaskTrace trace;
    trace.name = "shared";
    auto kernel = trace.addKernel("mix");
    TaskBuilder b(trace);
    AddressSpace mem(0x2000'0000);
    std::vector<std::uint64_t> objs;
    for (unsigned i = 0; i < 8; ++i)
        objs.push_back(mem.alloc(512));
    for (unsigned i = 0; i < tasks; ++i) {
        b.begin(kernel, 200 + 40 * (i % 5))
            .in(objs[i % objs.size()], 512)
            .out(objs[(i + 3) % objs.size()], 512);
        b.commit();
    }
    return trace;
}

struct TracedRun
{
    RunResult result;
    std::string traceJson;
};

TracedRun
runTraced(const TaskTrace &trace, PipelineConfig cfg,
          unsigned gen_threads)
{
    auto sys = SystemBuilder(cfg, trace).roundRobin(gen_threads).build();
    TracedRun out;
    out.result = sys->run();
    if (sys->tracer() && cfg.traceMode == obs::TraceMode::Full)
        out.traceJson = sys->tracer()->chromeJson();
    return out;
}

TEST(ObsConfig, FilterParseAndFormatRoundTrip)
{
    using namespace obs;
    EXPECT_EQ(parseTraceFilter(""), cat::all);
    EXPECT_EQ(parseTraceFilter("all"), cat::all);
    EXPECT_EQ(parseTraceFilter("task"), cat::task);
    EXPECT_EQ(parseTraceFilter("task,version"),
              cat::task | cat::version);
    EXPECT_EQ(parseTraceFilter("noc,engine,serve"),
              cat::noc | cat::engine | cat::serve);
    EXPECT_EQ(parseTraceFilter("bogus"), 0u);
    EXPECT_EQ(formatTraceFilter(cat::all), "all");
    EXPECT_EQ(formatTraceFilter(cat::task | cat::noc), "task,noc");
    EXPECT_EQ(parseTraceFilter(formatTraceFilter(cat::version)),
              cat::version);
    EXPECT_EQ(parseTraceMode("off"), TraceMode::Off);
    EXPECT_EQ(parseTraceMode("full"), TraceMode::Full);
    EXPECT_EQ(parseTraceMode("tail"), TraceMode::Tail);
    EXPECT_STREQ(traceModeName(TraceMode::Full), "full");
}

TEST(ObsMetrics, FormatMetricValue)
{
    EXPECT_EQ(obs::formatMetricValue(0.0), "0");
    EXPECT_EQ(obs::formatMetricValue(42.0), "42");
    EXPECT_EQ(obs::formatMetricValue(-3.0), "-3");
    EXPECT_EQ(obs::formatMetricValue(0.5), "0.5");
}

TEST(ObsMetrics, RegistrySnapshotIsNameSortedAndPolled)
{
    obs::Registry reg;
    std::uint64_t hits = 3;
    reg.addCounter("b.hits", [&hits] { return hits; });
    reg.addCounter("a.count", [] { return std::uint64_t(7); });
    reg.addGauge("z.ratio", [] { return 0.25; });
    ASSERT_EQ(reg.size(), 3u);

    obs::Snapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("a.count"), 7u);
    EXPECT_EQ(snap.counter("b.hits"), 3u);
    EXPECT_EQ(snap.counter("missing", 99), 99u);
    EXPECT_TRUE(snap.hasCounter("b.hits"));
    EXPECT_FALSE(snap.hasCounter("nope"));
    EXPECT_DOUBLE_EQ(snap.gauge("z.ratio"), 0.25);

    hits = 11; // providers are polled, not copied
    EXPECT_EQ(reg.snapshot().counter("b.hits"), 11u);

    // Without a fallback, a name that is not bound fails loudly.
    EXPECT_DEATH(snap.counter("b.hit"), "no counter named 'b.hit'");
    EXPECT_DEATH(snap.gauge("a.count"), "no gauge named 'a.count'");
    EXPECT_DOUBLE_EQ(snap.gauge("a.count", -1.0), -1.0);

    std::string json = snap.toJson();
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_LT(json.find("\"a.count\": 7"), json.find("\"b.hits\": 3"));
    EXPECT_NE(json.find("\"z.ratio\": 0.25"), std::string::npos);
}

/**
 * The tentpole guarantee: the exported trace is byte-identical for
 * any --sim-threads, across topologies and placements, including
 * multi-pipeline shared-data programs (ticket/slot park records).
 */
TEST(ObsTrace, ByteIdenticalAcrossSimThreads)
{
    struct Shape
    {
        TopologyKind topology;
        PlacementKind placement;
    };
    const Shape shapes[] = {
        {TopologyKind::Ring, PlacementKind::Adjacent},
        {TopologyKind::Mesh, PlacementKind::Spread},
    };
    TaskTrace trace = sharedProgram(48);
    for (const Shape &shape : shapes) {
        std::string baseline;
        for (unsigned threads : {1u, 2u, 4u}) {
            PipelineConfig cfg = tinyConfig(2);
            cfg.nocTopology = shape.topology;
            cfg.nocPlacement = shape.placement;
            cfg.traceMode = obs::TraceMode::Full;
            cfg.simThreads = threads;
            TracedRun run = runTraced(trace, cfg, 2);
            ASSERT_FALSE(run.traceJson.empty());
            if (baseline.empty())
                baseline = run.traceJson;
            else
                EXPECT_EQ(run.traceJson, baseline)
                    << "trace diverged at simThreads=" << threads;
        }
    }
}

/** Tracing must never change simulated behavior: Off == Tail == Full. */
TEST(ObsTrace, TracerOffBitIdenticalResults)
{
    TaskTrace trace = sharedProgram(40);
    std::vector<RunResult> results;
    for (obs::TraceMode mode :
         {obs::TraceMode::Off, obs::TraceMode::Tail,
          obs::TraceMode::Full}) {
        PipelineConfig cfg = tinyConfig(2);
        cfg.traceMode = mode;
        cfg.simThreads = 2;
        results.push_back(runTraced(trace, cfg, 2).result);
        // The tracer's own record count is bound only with a tracer.
        EXPECT_EQ(results.back().metrics.counters.erase(
                      "obs.trace_records"),
                  mode == obs::TraceMode::Off ? 0u : 1u);
    }
    EXPECT_EQ(results[0].numTasks, 40u);
    EXPECT_GT(results[0].makespan, 0u);
    // The same schedule and every metric, the event and apply
    // digests included: the same events in the same order.
    for (std::size_t i = 1; i < results.size(); ++i)
        expectSameRun(results[i], results[0],
                      "trace mode " + std::to_string(i));
}

/**
 * The registry snapshot must agree with the raw stats structs, and
 * count each event once: a run-wide figure a module already counts is
 * the sum over the modules.
 */
TEST(ObsMetrics, SnapshotMatchesFrontendStats)
{
    TaskTrace trace = chainProgram(30);
    PipelineConfig cfg = tinyConfig();
    auto sys = SystemBuilder(cfg, trace).build();
    RunResult run = sys->run();
    const obs::Snapshot &snap = run.metrics;
    const FrontendStats &stats = sys->frontendStats();
    EXPECT_EQ(snap.counter("frontend.tasks_finished"),
              stats.tasksFinished.value());
    EXPECT_EQ(snap.counter("frontend.tasks_allocated"),
              stats.tasksAllocated.value());
    EXPECT_EQ(snap.counter("frontend.alloc_wait_cycles"),
              sys->gateway().allocWaitCycles());
    double hits = sys->trs(0).blockList().sramHitRate() +
        sys->trs(1).blockList().sramHitRate();
    EXPECT_EQ(snap.gauge("frontend.sram_hit_rate"), hits / 2);

    std::uint64_t executed = 0;
    for (unsigned c = 0; c < cfg.numCores; ++c) {
        executed += snap.counter(
            "core." + std::to_string(c) + ".tasks_executed");
    }
    EXPECT_EQ(executed, snap.counter("frontend.tasks_finished"));

    // The NoC utilization histogram carries its bucket bounds now.
    auto it = snap.histograms.find("noc.link_utilization_pct");
    ASSERT_NE(it, snap.histograms.end());
    const obs::HistogramSnapshot &hist = it->second;
    ASSERT_EQ(hist.lowerBounds.size(), 10u);
    ASSERT_EQ(hist.counts.size(), 10u);
    for (unsigned i = 0; i < 10; ++i)
        EXPECT_EQ(hist.lowerBounds[i], 10u * i);
    // One bucket entry per link.
    EXPECT_EQ(hist.totalCount(),
              sys->network().linkStats(sys->simEngine().now()).links);
    EXPECT_GT(hist.totalCount(), 0u);

    // Each module's average queue length, over the makespan.
    auto queue = [&](const FrontendModule &m) {
        EXPECT_EQ(snap.gauge("module." + m.name() + ".queue_avg"),
                  m.avgQueueLength(run.makespan))
            << m.name();
    };
    for (unsigned i = 0; i < cfg.totalTrs(); ++i)
        queue(sys->trs(i));
    for (unsigned i = 0; i < cfg.totalOrt(); ++i) {
        queue(sys->ort(i));
        queue(sys->ovt(i));
    }
    queue(sys->scheduler());

    // The ORTs count their parks and stalls, the DMA engine its
    // transfers; the frontend figures are their sums. The shared
    // program runs the ordered protocol, so it parks operands and
    // renames (and writes back) versions.
    std::uint64_t deferrals = 0, writebacks = 0;
    auto expectSums = [&](const obs::Snapshot &m, unsigned slices) {
        const std::pair<const char *, const char *> sums[] = {
            {"frontend.decode_deferrals", "deferred_ops"},
            {"frontend.version_slot_parks", "slot_park_events"},
            {"frontend.gateway_stall_events", "stall_events"},
        };
        for (const auto &[total, per_slice] : sums) {
            std::uint64_t sum = 0;
            for (unsigned i = 0; i < slices; ++i) {
                sum += m.counter("slice." + std::to_string(i) + "." +
                                 per_slice);
            }
            EXPECT_EQ(m.counter(total), sum) << total;
        }
        EXPECT_EQ(m.counter("frontend.dma_writebacks"),
                  m.counter("dma.writebacks"));
        deferrals += m.counter("frontend.decode_deferrals");
        writebacks += m.counter("dma.writebacks");
    };
    expectSums(snap, cfg.totalOrt());
    TaskTrace shared = sharedProgram(40);
    PipelineConfig shared_cfg = tinyConfig(2);
    expectSums(runTraced(shared, shared_cfg, 2).result.metrics,
               shared_cfg.totalOrt());
    EXPECT_GT(deferrals, 0u);
    EXPECT_GT(writebacks, 0u);
}

/**
 * The whole snapshot, pinned: an FNV-1a digest of toJson() for the
 * chain program on the tiny machine and for a 2-pipeline Cholesky
 * (the JSON that `pipeline_explorer --workload=Cholesky --scale=0.05
 * --cores=32 --pipes=2 --gen-threads=2 --metrics-out=F` writes). A
 * metric renamed, added, dropped or moved changes its digest; the JSON
 * is printed on a mismatch.
 */
TEST(ObsMetrics, SnapshotJsonIsPinned)
{
    auto expectPinned = [](const RunResult &r, std::uint64_t pin,
                           const char *what) {
        std::string json = r.metrics.toJson();
        std::uint64_t h = digestSeed;
        for (unsigned char c : json)
            h = digestFold(h, c);
        EXPECT_EQ(h, pin) << what << " snapshot moved, digest 0x"
                          << std::hex << h << ":\n"
                          << json;
    };
    TaskTrace chain = chainProgram(30);
    expectPinned(SystemBuilder(tinyConfig(), chain).build()->run(),
                 0xdb385b45012685aeULL, "chain");

    TaskTrace cholesky = makeWorkload("Cholesky", 0.05, 1);
    PipelineConfig cfg = paperConfig(32);
    cfg.numPipelines = 2;
    expectPinned(SystemBuilder(cfg, cholesky).roundRobin(2).build()->run(),
                 0x1a80a64c5322cfa1ULL, "2-pipeline Cholesky");
}

/**
 * Run averages divide by the latest task finish, the makespan, not by
 * the engine's last event: eager DMA write-backs of renamed outputs
 * keep the engine running after the last task finished.
 */
TEST(ObsMetrics, RunAveragesUseTheMakespan)
{
    // Independent writers of large objects: every output is renamed,
    // and its copy back home outlasts the tasks.
    TaskTrace trace;
    trace.name = "writers";
    trace.addKernel("k");
    TaskBuilder b(trace);
    AddressSpace mem(0x3000'0000);
    for (unsigned i = 0; i < 24; ++i) {
        b.begin(0, 500).out(mem.alloc(64 * 1024), 64 * 1024);
        b.commit();
    }
    auto sys = SystemBuilder(tinyConfig(), trace).build();
    Cycle makespan = sys->run().makespan;
    obs::Snapshot snap = sys->metricsRegistry().snapshot();
    ASSERT_GT(snap.gauge("engine.now"), static_cast<double>(makespan));

    EXPECT_EQ(snap.gauge("frontend.tasks_in_flight_avg"),
              sys->frontendStats().tasksInFlight.average(makespan));
    const TopologyNetwork &net = sys->network();
    EXPECT_EQ(snap.gauge("noc.max_link_utilization"),
              net.linkStats(makespan).maxUtilization);
    EXPECT_TRUE(snap.histograms.at("noc.link_utilization_pct") ==
                net.utilizationHistogram(makespan));
}

TEST(ObsTrace, AppendChromeEventsSplices)
{
    obs::Tracer tracer(obs::TraceMode::Full, obs::cat::all, 1, 16);
    tracer.drainWindow();
    std::string doc = tracer.chromeJson();
    ASSERT_EQ(doc.substr(doc.size() - 4), "\n]}\n");

    std::string slice =
        obs::serveStageSlice("serve.execute", 2, 100, 50, 7);
    obs::appendChromeEvents(doc, slice);
    EXPECT_NE(doc.find("serve.execute"), std::string::npos);
    EXPECT_EQ(doc.substr(doc.size() - 4), "\n]}\n");

    // Splicing twice keeps the document well-formed.
    obs::appendChromeEvents(
        doc, obs::serveStageSlice("serve.parse", 0, 10, 5, 7));
    EXPECT_NE(doc.find("serve.parse"), std::string::npos);
    EXPECT_EQ(doc.substr(doc.size() - 4), "\n]}\n");

    // A malformed document is left untouched.
    std::string bogus = "not a chrome trace";
    obs::appendChromeEvents(bogus, slice);
    EXPECT_EQ(bogus, "not a chrome trace");
}

/** The tail ring is bounded and survives into a liveness report. */
TEST(ObsTrace, TailIsBounded)
{
    TaskTrace trace = chainProgram(25);
    PipelineConfig cfg = tinyConfig();
    cfg.traceMode = obs::TraceMode::Tail;
    cfg.traceTailRecords = 32;
    auto sys = SystemBuilder(cfg, trace).build();
    sys->run();

    ASSERT_NE(sys->tracer(), nullptr);
    EXPECT_GT(sys->tracer()->totalRecords(), 32u);
    EXPECT_TRUE(sys->tracer()->log().empty()); // Tail retains no full log
    std::string tail = sys->tracer()->tailJson();
    ASSERT_GE(tail.size(), 4u);
    EXPECT_EQ(tail.substr(tail.size() - 4), "\n]}\n");
    // At most 32 records -> at most 32 "X" slices plus flow/meta.
    std::size_t slices = 0;
    for (std::size_t pos = tail.find("\"ph\": \"X\"");
         pos != std::string::npos;
         pos = tail.find("\"ph\": \"X\"", pos + 1))
        ++slices;
    EXPECT_LE(slices, 64u); // 32 records, each at most 2 slices
}

/** Full mode: the tail is the drained log's suffix, the total its size. */
TEST(ObsTrace, FullModeTailIsTheLogSuffix)
{
    TaskTrace trace = chainProgram(25);
    for (std::size_t cap : {std::size_t(32), std::size_t(1) << 20}) {
        PipelineConfig cfg = tinyConfig();
        cfg.traceMode = obs::TraceMode::Full;
        cfg.traceTailRecords = cap;
        auto sys = SystemBuilder(cfg, trace).build();
        sys->run();
        const obs::Tracer &tracer = *sys->tracer();
        ASSERT_GT(tracer.log().size(), 32u);
        EXPECT_EQ(tracer.totalRecords(), tracer.log().size());
        if (cap >= tracer.log().size())
            EXPECT_EQ(tracer.tailJson(), tracer.chromeJson());
        else
            EXPECT_LT(tracer.tailJson().size(), tracer.chromeJson().size());
    }
}

TEST(ObsLiveness, ReportToJson)
{
    LivenessReport report;
    report.completed = false;
    report.wedged = true;
    report.tasksFinished = 3;
    report.eventsExecuted = 1234;
    LivenessReport::SliceOccupancy occ;
    occ.slice = 1;
    occ.liveVersions = 7;
    occ.freeVersionSlots = 0;
    occ.slotParked = 4;
    occ.ticketParked = 2;
    report.slices.push_back(occ);
    report.hasCulprit = true;
    report.culpritSlice = 1;
    report.culpritTask = 42;
    report.culpritOperand = 0;
    report.culpritAddr = 0xdead;
    report.culpritWaitsForSlot = true;

    std::string json = report.toJson();
    EXPECT_NE(json.find("\"wedged\": true"), std::string::npos);
    EXPECT_NE(json.find("\"tasks_finished\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"live_versions\": 7"), std::string::npos);
    EXPECT_NE(json.find("\"task\": 42"), std::string::npos);
    EXPECT_NE(json.find("\"waits_for_slot\": true"),
              std::string::npos);
    EXPECT_NE(json.find("\"tail_trace\": null"), std::string::npos);

    report.tailTraceJson = "{\"traceEvents\": [\n]}\n";
    json = report.toJson();
    EXPECT_NE(json.find("\"tail_trace\": {\"traceEvents\""),
              std::string::npos);
}

/**
 * Exact golden bytes of the Chrome export for a 3-task chain with the
 * task+version filter on one pipeline. Pins the exporter format, the
 * record keying, and the flow-event structure; regenerate by printing
 * the actual (the failure message carries it) only for a deliberate
 * format change.
 */
TEST(ObsTrace, GoldenChromeJson)
{
    TaskTrace trace = chainProgram(3, 100);
    PipelineConfig cfg = tinyConfig();
    cfg.traceMode = obs::TraceMode::Full;
    cfg.traceFilter = obs::cat::task | obs::cat::version;
    auto sys = SystemBuilder(cfg, trace).build();
    sys->run();
    ASSERT_NE(sys->tracer(), nullptr);
    std::string json = sys->tracer()->chromeJson();

    // Exact bytes: the exporter is part of the deterministic
    // contract, so any change to record ordering or formatting
    // must be a conscious golden update.
    const std::string golden = R"json({"traceEvents": [
{"ph": "M", "pid": 0, "tid": 0, "name": "thread_name", "args": {"name": "source0"}},
{"ph": "M", "pid": 0, "tid": 1, "name": "thread_name", "args": {"name": "core0"}},
{"ph": "M", "pid": 0, "tid": 2, "name": "thread_name", "args": {"name": "core1"}},
{"ph": "M", "pid": 0, "tid": 3, "name": "thread_name", "args": {"name": "core2"}},
{"ph": "M", "pid": 0, "tid": 4, "name": "thread_name", "args": {"name": "core3"}},
{"ph": "M", "pid": 0, "tid": 5, "name": "thread_name", "args": {"name": "core4"}},
{"ph": "M", "pid": 0, "tid": 6, "name": "thread_name", "args": {"name": "core5"}},
{"ph": "M", "pid": 0, "tid": 7, "name": "thread_name", "args": {"name": "core6"}},
{"ph": "M", "pid": 0, "tid": 8, "name": "thread_name", "args": {"name": "core7"}},
{"ph": "M", "pid": 0, "tid": 9, "name": "thread_name", "args": {"name": "gateway"}},
{"ph": "M", "pid": 0, "tid": 10, "name": "thread_name", "args": {"name": "trs0"}},
{"ph": "M", "pid": 0, "tid": 11, "name": "thread_name", "args": {"name": "trs1"}},
{"ph": "M", "pid": 0, "tid": 12, "name": "thread_name", "args": {"name": "ort0"}},
{"ph": "M", "pid": 0, "tid": 13, "name": "thread_name", "args": {"name": "ovt0"}},
{"ph": "M", "pid": 0, "tid": 14, "name": "thread_name", "args": {"name": "scheduler"}},
{"ph": "M", "pid": 1, "tid": 0, "name": "thread_name", "args": {"name": "engine"}},
{"ph": "M", "pid": 1, "tid": 1, "name": "thread_name", "args": {"name": "noc lanes"}},
{"name": "task.submit", "cat": "task", "ph": "X", "ts": 112, "dur": 1, "pid": 0, "tid": 0, "args": {"a": 0, "b": 0}},
{"name": "task", "cat": "task", "ph": "s", "id": 0, "ts": 112, "pid": 0, "tid": 0},
{"name": "task.alloc", "cat": "task", "ph": "X", "ts": 137, "dur": 1, "pid": 0, "tid": 10, "args": {"a": 0, "b": 10}},
{"name": "task", "cat": "task", "ph": "t", "id": 0, "ts": 137, "pid": 0, "tid": 10},
{"name": "task.submit", "cat": "task", "ph": "X", "ts": 224, "dur": 1, "pid": 0, "tid": 0, "args": {"a": 1, "b": 0}},
{"name": "task", "cat": "task", "ph": "s", "id": 1, "ts": 224, "pid": 0, "tid": 0},
{"name": "task.alloc", "cat": "task", "ph": "X", "ts": 250, "dur": 1, "pid": 0, "tid": 11, "args": {"a": 1, "b": 11}},
{"name": "task", "cat": "task", "ph": "t", "id": 1, "ts": 250, "pid": 0, "tid": 11},
{"name": "ovt.create", "cat": "version", "ph": "X", "ts": 284, "dur": 1, "pid": 0, "tid": 13, "args": {"a": 0, "b": 0}},
{"name": "task.submit", "cat": "task", "ph": "X", "ts": 336, "dur": 1, "pid": 0, "tid": 0, "args": {"a": 2, "b": 0}},
{"name": "task", "cat": "task", "ph": "s", "id": 2, "ts": 336, "pid": 0, "tid": 0},
{"name": "task.alloc", "cat": "task", "ph": "X", "ts": 361, "dur": 1, "pid": 0, "tid": 10, "args": {"a": 2, "b": 10}},
{"name": "task", "cat": "task", "ph": "t", "id": 2, "ts": 361, "pid": 0, "tid": 10},
{"name": "ovt.create", "cat": "version", "ph": "X", "ts": 366, "dur": 1, "pid": 0, "tid": 13, "args": {"a": 0, "b": 1}},
{"name": "task.decode", "cat": "task", "ph": "X", "ts": 400, "dur": 1, "pid": 0, "tid": 10, "args": {"a": 0, "b": 2}},
{"name": "task", "cat": "task", "ph": "t", "id": 0, "ts": 400, "pid": 0, "tid": 10},
{"name": "task.ready", "cat": "task", "ph": "X", "ts": 509, "dur": 1, "pid": 0, "tid": 10, "args": {"a": 0, "b": 0}},
{"name": "task", "cat": "task", "ph": "t", "id": 0, "ts": 509, "pid": 0, "tid": 10},
{"name": "task.decode", "cat": "task", "ph": "X", "ts": 530, "dur": 1, "pid": 0, "tid": 11, "args": {"a": 1, "b": 2}},
{"name": "task", "cat": "task", "ph": "t", "id": 1, "ts": 530, "pid": 0, "tid": 11},
{"name": "ovt.create", "cat": "version", "ph": "X", "ts": 543, "dur": 1, "pid": 0, "tid": 13, "args": {"a": 0, "b": 2}},
{"name": "task.dispatch", "cat": "task", "ph": "X", "ts": 601, "dur": 1, "pid": 0, "tid": 1, "args": {"a": 0, "b": 0}},
{"name": "task", "cat": "task", "ph": "t", "id": 0, "ts": 601, "pid": 0, "tid": 1},
{"name": "task.start", "cat": "task", "ph": "X", "ts": 601, "dur": 1, "pid": 0, "tid": 1, "args": {"a": 0, "b": 0}},
{"name": "task", "cat": "task", "ph": "t", "id": 0, "ts": 601, "pid": 0, "tid": 1},
{"name": "ovt.create", "cat": "version", "ph": "X", "ts": 694, "dur": 1, "pid": 0, "tid": 13, "args": {"a": 0, "b": 3}},
{"name": "task.decode", "cat": "task", "ph": "X", "ts": 695, "dur": 1, "pid": 0, "tid": 10, "args": {"a": 2, "b": 2}},
{"name": "task", "cat": "task", "ph": "t", "id": 2, "ts": 695, "pid": 0, "tid": 10},
{"name": "task.retire", "cat": "task", "ph": "X", "ts": 701, "dur": 1, "pid": 0, "tid": 1, "args": {"a": 0, "b": 601}},
{"name": "task", "cat": "task", "ph": "f", "bp": "e", "id": 0, "ts": 701, "pid": 0, "tid": 1},
{"name": "task.run", "cat": "task", "ph": "X", "ts": 601, "dur": 100, "pid": 0, "tid": 1, "args": {"a": 0}},
{"name": "task.ready", "cat": "task", "ph": "X", "ts": 812, "dur": 1, "pid": 0, "tid": 11, "args": {"a": 1, "b": 0}},
{"name": "task", "cat": "task", "ph": "t", "id": 1, "ts": 812, "pid": 0, "tid": 11},
{"name": "ovt.dead", "cat": "version", "ph": "X", "ts": 890, "dur": 1, "pid": 0, "tid": 13, "args": {"a": 0, "b": 0}},
{"name": "task.dispatch", "cat": "task", "ph": "X", "ts": 904, "dur": 1, "pid": 0, "tid": 2, "args": {"a": 1, "b": 1}},
{"name": "task", "cat": "task", "ph": "t", "id": 1, "ts": 904, "pid": 0, "tid": 2},
{"name": "task.start", "cat": "task", "ph": "X", "ts": 904, "dur": 1, "pid": 0, "tid": 2, "args": {"a": 1, "b": 1}},
{"name": "task", "cat": "task", "ph": "t", "id": 1, "ts": 904, "pid": 0, "tid": 2},
{"name": "task.retire", "cat": "task", "ph": "X", "ts": 1004, "dur": 1, "pid": 0, "tid": 2, "args": {"a": 1, "b": 904}},
{"name": "task", "cat": "task", "ph": "f", "bp": "e", "id": 1, "ts": 1004, "pid": 0, "tid": 2},
{"name": "task.run", "cat": "task", "ph": "X", "ts": 904, "dur": 100, "pid": 0, "tid": 2, "args": {"a": 1}},
{"name": "task.ready", "cat": "task", "ph": "X", "ts": 1069, "dur": 1, "pid": 0, "tid": 10, "args": {"a": 2, "b": 0}},
{"name": "task", "cat": "task", "ph": "t", "id": 2, "ts": 1069, "pid": 0, "tid": 10},
{"name": "task.dispatch", "cat": "task", "ph": "X", "ts": 1163, "dur": 1, "pid": 0, "tid": 3, "args": {"a": 2, "b": 2}},
{"name": "task", "cat": "task", "ph": "t", "id": 2, "ts": 1163, "pid": 0, "tid": 3},
{"name": "task.start", "cat": "task", "ph": "X", "ts": 1163, "dur": 1, "pid": 0, "tid": 3, "args": {"a": 2, "b": 2}},
{"name": "task", "cat": "task", "ph": "t", "id": 2, "ts": 1163, "pid": 0, "tid": 3},
{"name": "task.retire", "cat": "task", "ph": "X", "ts": 1263, "dur": 1, "pid": 0, "tid": 3, "args": {"a": 2, "b": 1163}},
{"name": "task", "cat": "task", "ph": "f", "bp": "e", "id": 2, "ts": 1263, "pid": 0, "tid": 3},
{"name": "task.run", "cat": "task", "ph": "X", "ts": 1163, "dur": 100, "pid": 0, "tid": 3, "args": {"a": 2}},
{"name": "ovt.dead", "cat": "version", "ph": "X", "ts": 1362, "dur": 1, "pid": 0, "tid": 13, "args": {"a": 0, "b": 1}},
{"name": "ovt.dead", "cat": "version", "ph": "X", "ts": 1622, "dur": 1, "pid": 0, "tid": 13, "args": {"a": 0, "b": 2}},
{"name": "ovt.dead", "cat": "version", "ph": "X", "ts": 1838, "dur": 1, "pid": 0, "tid": 13, "args": {"a": 0, "b": 3}}
]}
)json";
    EXPECT_EQ(json, golden) << "actual bytes:\n" << json;
}

} // namespace
} // namespace tss
