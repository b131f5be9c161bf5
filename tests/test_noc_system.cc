/**
 * @file
 * System-level tests of the NoC topology/placement/batching subsystem:
 * gateway-side DecodeBatch coalescing (correctness, message savings,
 * park/resume under ORT pressure), slice packet-credit flow control
 * (liveness incl. the ROB-head escape), the idealAdmission
 * ticket-cost oracle (still ordered, still replayable), decision
 * equivalence across topology x placement, and the version-slot
 * reserve/escape liveness protocol under deliberately tiny OVTs
 * (completion at the pinned structural bound, diagnosed wedge one
 * slot below it), asserted via the System liveness watchdog. All
 * traces use synthetic AddressSpace addresses, so every run is
 * bit-deterministic.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "ovt_bound.hh"
#include "driver/experiment.hh"
#include "graph/dep_graph.hh"
#include "sim/random.hh"
#include "workload/address_space.hh"
#include "workload/builder.hh"

namespace tss
{
namespace
{

/** Wide tasks over @p objs: 9 reads and 3 writes each. */
TaskTrace
wideTraceOver(const std::vector<std::uint64_t> &objs, unsigned tasks,
              std::uint64_t seed)
{
    TaskTrace trace;
    trace.name = "wide";
    trace.addKernel("w");
    TaskBuilder b(trace);

    Rng rng(seed);
    constexpr unsigned reads = 9, writes = 3;
    for (unsigned t = 0; t < tasks; ++t) {
        std::vector<unsigned> picks;
        while (picks.size() < reads + writes) {
            auto cand = static_cast<unsigned>(rng.range(objs.size()));
            bool dup = false;
            for (unsigned p : picks)
                dup |= p == cand;
            if (!dup)
                picks.push_back(cand);
        }
        b.begin(0, static_cast<Cycle>(rng.rangeInclusive(200, 500)));
        for (unsigned i = 0; i < reads; ++i)
            b.in(objs[picks[i]], 512);
        for (unsigned i = 0; i < writes; ++i)
            b.out(objs[picks[reads + i]], 512);
        b.commit();
    }
    return trace;
}

/** Wide shared-object tasks: plenty of same-slice operands. */
TaskTrace
wideTrace(unsigned tasks, unsigned objects, std::uint64_t seed)
{
    AddressSpace mem(0x40000000);
    std::vector<std::uint64_t> objs;
    for (unsigned i = 0; i < objects; ++i)
        objs.push_back(mem.alloc(512));
    return wideTraceOver(objs, tasks, seed);
}

RunResult
runShared(const PipelineConfig &cfg, const TaskTrace &trace,
          unsigned threads)
{
    auto sys = SystemBuilder(cfg, trace).roundRobin(threads).build();
    return sys->run(4'000'000'000ULL);
}

void
expectTopological(const TaskTrace &trace, const RunResult &r,
                  const std::string &what)
{
    DepGraph renamed = DepGraph::build(trace, Semantics::Renamed);
    EXPECT_TRUE(renamed.isTopologicalOrder(r.startOrder)) << what;
}

TEST(OperandBatching, CoalescesAndCutsMessages)
{
    TaskTrace trace = wideTrace(120, 48, 3);
    PipelineConfig cfg;
    cfg.numCores = 16;
    cfg.numTrs = 2;
    cfg.numOrt = 2;
    cfg.numPipelines = 2;
    cfg.trsTotalBytes = 1024 * 1024;
    cfg.ortTotalBytes = 128 * 1024;
    cfg.ovtTotalBytes = 128 * 1024;

    cfg.batchOperands = false;
    RunResult solo = runShared(cfg, trace, 4);
    expectTopological(trace, solo, "unbatched");
    EXPECT_EQ(solo.metrics.counter("frontend.decode_batches"), 0u);

    cfg.batchOperands = true;
    RunResult batched = runShared(cfg, trace, 4);
    expectTopological(trace, batched, "batched");

    EXPECT_EQ(batched.numTasks, trace.size());
    EXPECT_GT(batched.metrics.counter("frontend.decode_batches"), 0u);
    // 12 operands over 4 slices: a healthy fraction must coalesce.
    double fill = batched.metrics.gauge("frontend.batch_fill_mean");
    EXPECT_GT(fill, 1.2);
    EXPECT_LE(fill, 3.0); // 64 B budget: <= 3 ops
    EXPECT_LT(batched.metrics.counter("noc.messages"),
              solo.metrics.counter("noc.messages"))
        << "batching must reduce NoC packets";
}

TEST(OperandBatching, SurvivesOrtPressureParkAndResume)
{
    // An OVT sized to run out of version slots forces the
    // DecodeBatch park/resume path: a batch blocked mid-descriptor
    // must resume where it stopped, not replay or drop operands.
    // (Single generating thread: version-slot exhaustion under the
    // ordered multi-thread protocol is a pre-existing capacity
    // deadlock regardless of batching, so the park path is exercised
    // in the historical partitioned mode.)
    TaskTrace trace = wideTrace(80, 64, 5);
    PipelineConfig cfg;
    cfg.numCores = 8;
    cfg.numTrs = 2;
    cfg.numOrt = 1;
    cfg.numPipelines = 1;
    cfg.trsTotalBytes = 512 * 1024;
    cfg.ortTotalBytes = 2 * 1024; // 128 entries, 8 sets
    cfg.ovtTotalBytes = 512;      // 32 version slots
    cfg.batchOperands = true;

    RunResult r = runShared(cfg, trace, 1);
    expectTopological(trace, r, "pressure");
    EXPECT_EQ(r.numTasks, trace.size());
    EXPECT_GT(r.metrics.counter("frontend.decode_batches"), 0u);
    EXPECT_GT(r.metrics.counter("frontend.gateway_stall_events"), 0u)
        << "the configuration was meant to stall the slice";
}

TEST(CreditFlowControl, BoundsInFlightAndStaysLive)
{
    TaskTrace trace = wideTrace(150, 48, 7);
    PipelineConfig cfg;
    cfg.numCores = 16;
    cfg.numTrs = 2;
    cfg.numOrt = 1;
    cfg.numPipelines = 2;
    cfg.trsTotalBytes = 1024 * 1024;
    cfg.ortTotalBytes = 128 * 1024;
    cfg.ovtTotalBytes = 128 * 1024;

    cfg.slicePacketCredits = 0;
    RunResult open = runShared(cfg, trace, 4);

    cfg.slicePacketCredits = 1;
    RunResult tight = runShared(cfg, trace, 4);
    expectTopological(trace, tight, "credits=1");
    EXPECT_EQ(tight.numTasks, trace.size());

    // Flow control answers every decode packet with a credit packet
    // (decode rate itself is emergent — interleavings may shift it
    // either way, so only the structural invariant is asserted).
    EXPECT_GT(tight.metrics.counter("noc.messages"),
              open.metrics.counter("noc.messages"));
    EXPECT_EQ(open.numTasks, trace.size());
}

TEST(CreditFlowControl, TinyWindowPlusCreditsDoesNotDeadlock)
{
    // The window-pressure shape of test_sharded_frontend, with flow
    // control on top: the ROB-head escape must keep the oldest task
    // decodable even when its slice's credits are pinned by parked
    // packets.
    TaskTrace trace;
    trace.name = "pressure";
    trace.addKernel("k");
    TaskBuilder b(trace);
    AddressSpace mem(0x2000000);
    std::uint64_t hot = mem.alloc(512);
    std::vector<unsigned> thread_of;
    for (unsigned i = 0; i < 120; ++i) {
        b.begin(0, 50).out(mem.alloc(256), 256);
        b.commit();
        thread_of.push_back(0);
    }
    for (unsigned i = 0; i < 60; ++i) {
        b.begin(0, 50).inout(hot, 512);
        b.commit();
        thread_of.push_back(i == 0 ? 0 : 1);
    }

    PipelineConfig cfg;
    cfg.numCores = 4;
    cfg.numTrs = 1;
    cfg.numOrt = 1;
    cfg.numPipelines = 2;
    cfg.trsTotalBytes = 2 * 8 * 128; // 8-block window per pipeline
    cfg.ortTotalBytes = 64 * 1024;
    cfg.ovtTotalBytes = 64 * 1024;
    cfg.slicePacketCredits = 1;

    auto sys = SystemBuilder(cfg, trace)
                   .threads(std::move(thread_of))
                   .build();
    RunResult r = sys->run(2'000'000'000ULL);
    EXPECT_EQ(r.numTasks, trace.size());
    expectTopological(trace, r, "tiny window + credits");
}

TEST(IdealAdmission, StaysOrderedAndStillParksOperands)
{
    TaskTrace trace = wideTrace(150, 32, 11);
    PipelineConfig cfg;
    cfg.numCores = 16;
    cfg.numTrs = 2;
    cfg.numOrt = 2;
    cfg.numPipelines = 2;
    cfg.trsTotalBytes = 1024 * 1024;
    cfg.ortTotalBytes = 128 * 1024;
    cfg.ovtTotalBytes = 128 * 1024;

    cfg.idealAdmission = false;
    RunResult real = runShared(cfg, trace, 4);
    cfg.idealAdmission = true;
    RunResult ideal = runShared(cfg, trace, 4);

    // The oracle still enforces per-object program order: decisions
    // stay topological and the protocol still parks operands — it
    // just charges (next to) nothing for them.
    expectTopological(trace, real, "real admission");
    expectTopological(trace, ideal, "ideal admission");
    EXPECT_EQ(ideal.numTasks, trace.size());
    EXPECT_GT(real.metrics.counter("frontend.decode_deferrals"), 0u);
    EXPECT_GT(ideal.metrics.counter("frontend.decode_deferrals"), 0u);
}

/**
 * The version-slot capacity deadlock, fixed (ROADMAP "version-slot
 * capacity deadlock"): with a deliberately tiny OVT and several
 * sharing generating threads, ordered decode used to wedge —
 * out-of-turn operands head-parked the slice on slot exhaustion and
 * the slots they waited for could only free via retirements stuck
 * behind the parked head. The reserve/escape protocol (core/ort.hh)
 * instead capacity-parks slot-starved operands off the queue,
 * reserves the last few slots for the machine-wide oldest unfinished
 * task, and recycles slots eagerly at retirement — so the same repro
 * now runs to completion. The run stays fully deterministic
 * (synthetic addresses, deterministic event queue); the watchdog
 * asserts no wedge *and* that the escape path actually fired
 * (capacity parks observed — at 16 slots/slice the repro starves).
 */
TEST(OvtCapacity, TinyOvtOrderedDecodeCompletesViaReserveEscape)
{
    TaskTrace trace = wideTrace(80, 64, 5);
    PipelineConfig cfg;
    cfg.numCores = 8;
    cfg.numTrs = 2;
    cfg.numOrt = 1;
    cfg.numPipelines = 2;
    cfg.trsTotalBytes = 1024 * 1024;
    cfg.ortTotalBytes = 128 * 1024;
    // 16 version slots per slice (16 B per slot, 2 slices).
    cfg.ovtTotalBytes = Bytes(16) * 16 * cfg.totalOrt();

    auto sys = SystemBuilder(cfg, trace).roundRobin(3).build();
    ASSERT_TRUE(sys->sharedData());
    LivenessReport rep = sys->runWatchdog(200'000'000ULL);
    EXPECT_TRUE(rep.completed)
        << "finished " << rep.tasksFinished << "/" << trace.size()
        << (rep.wedged ? " (wedged)" : " (event limit)");
    EXPECT_FALSE(rep.wedged);
    EXPECT_EQ(rep.tasksFinished, trace.size());
    // The fix is exercised, not bypassed: slot starvation occurred
    // and the capacity-park escape handled it.
    std::size_t parks = 0;
    for (unsigned s = 0; s < cfg.totalOrt(); ++s)
        parks += sys->ort(s).slotParkEvents();
    EXPECT_GT(parks, 0u) << "16 slots/slice should starve the repro";
}

/**
 * The minimum-safe OVT bound of the repro above, measured by
 * bisection and pinned in tests/ovt_bound.hh so capacity-sizing
 * changes surface loudly. Before the reserve/escape protocol the
 * bound was 86 slots/slice — the workload's peak concurrent
 * live-version demand. The protocol drives it down to the structural
 * minimum of 10: the per-slice version footprint of a *single* task
 * (task 32 of this trace places 10 of its 12 memory operands on one
 * slice, and the machine-oldest task must hold all of its per-slice
 * versions live at once to finish decoding — see ovt_bound.hh).
 *
 * One slot below the bound the wedge is real and *diagnosable*: the
 * watchdog report names the starved slice (zero free slots) and the
 * culprit — task 32's capacity-parked operand, the machine-oldest
 * unfinished task that even the reserve cannot fit. At the bound the
 * repro completes, and the decision (start order, core assignment,
 * makespan) is bit-identical across --sim-threads {1, 2, 4}.
 */
TEST(OvtCapacity, MinimumSafeOvtBoundForWideRepro)
{
    TaskTrace trace = wideTrace(80, 64, 5);
    constexpr unsigned safeSlots = kMinSafeOvtSlotsPerSlice;

    auto makeConfig = [](unsigned slots) {
        PipelineConfig cfg;
        cfg.numCores = 8;
        cfg.numTrs = 2;
        cfg.numOrt = 1;
        cfg.numPipelines = 2;
        cfg.trsTotalBytes = 1024 * 1024;
        cfg.ortTotalBytes = 128 * 1024;
        cfg.ovtTotalBytes = Bytes(slots) * 16 * cfg.totalOrt();
        return cfg;
    };

    // One below the bound: a deterministic, fully diagnosed wedge.
    {
        PipelineConfig cfg = makeConfig(safeSlots - 1);
        auto sys = SystemBuilder(cfg, trace).roundRobin(3).build();
        LivenessReport rep = sys->runWatchdog(200'000'000ULL);
        ASSERT_TRUE(rep.wedged)
            << safeSlots - 1 << " slots/slice should still wedge";
        EXPECT_FALSE(rep.completed);

        // The report carries the post-mortem: some slice is out of
        // slots with capacity-parked operands, and the culprit is the
        // machine-oldest unfinished task waiting for a slot.
        ASSERT_FALSE(rep.slices.empty());
        bool starved_slice = false;
        for (const auto &s : rep.slices)
            starved_slice |= s.freeVersionSlots == 0 && s.slotParked > 0;
        EXPECT_TRUE(starved_slice);
        ASSERT_TRUE(rep.hasCulprit);
        EXPECT_EQ(rep.culpritTask, rep.tasksFinished)
            << "culprit should be the oldest unfinished task";
        EXPECT_TRUE(rep.culpritWaitsForSlot);
        // Task 32 is the repro's worst offender (10 same-slice
        // operands); its starvation is what defines the bound.
        EXPECT_EQ(rep.culpritTask, 32u);
    }

    // At the bound: completion, with a decision that is bit-identical
    // across simThreads values.
    RunResult baseline;
    for (unsigned threads : {1u, 2u, 4u}) {
        PipelineConfig cfg = makeConfig(safeSlots);
        cfg.simThreads = threads;
        auto sys = SystemBuilder(cfg, trace).roundRobin(3).build();
        RunResult r = sys->run(4'000'000'000ULL);
        EXPECT_EQ(r.numTasks, trace.size())
            << safeSlots << " slots/slice should complete";
        expectTopological(trace, r, "minimum-safe bound");
        if (threads == 1) {
            baseline = r;
        } else {
            EXPECT_EQ(r.makespan, baseline.makespan)
                << threads << " sim threads";
            EXPECT_EQ(r.startOrder, baseline.startOrder)
                << threads << " sim threads";
            EXPECT_EQ(r.coreOf, baseline.coreOf)
                << threads << " sim threads";
            EXPECT_EQ(r.metrics.counter("engine.events_executed"),
                      baseline.metrics.counter("engine.events_executed"))
                << threads << " sim threads";
        }
    }
}

/**
 * The capacity edges, pinned to the event. The frontend stores only
 * the part of each table a trace can touch (core/footprint.hh), yet a
 * run must stall and park exactly where Table II's whole tables did:
 * the digests and counts below were taken from a build that allocated
 * every table whole. Three edges: an ORT set filled by objects that
 * all map to it (1 set touched of 2,048) and a slice's version slots
 * run dry, both stalling the gateway (unordered), and the reserve
 * escape of ordered decode.
 */
TEST(CapacityEdge, StallsAndParksWhereWholeTablesDid)
{
    struct Edge
    {
        const char *what;
        unsigned pipes;
        unsigned threads;
        unsigned slotsPerSlice; ///< 0: Table II's
        bool sameSet;           ///< every object in one ORT set
        std::uint64_t eventDigest;
        std::uint64_t applyDigest;
        std::uint64_t stallEvents;
        std::uint64_t slotParks;
    };
    const Edge edges[] = {
        {"one ORT set full, unordered", 1, 1, 0, true,
         0xcc14c40a61f161bfULL, 0x0a2192a11d7fbc79ULL, 89, 0},
        {"version slots dry, unordered", 1, 1, 16, false,
         0xb1aaecacea1f87b8ULL, 0x78c255ccd1cc929eULL, 91, 0},
        {"reserve escape, ordered", 2, 3, 16, false,
         0x0582b7dac1fecb22ULL, 0x398ccaf343bc8494ULL, 0, 944},
    };
    for (const Edge &e : edges) {
        PipelineConfig cfg;
        cfg.numCores = 8;
        cfg.numTrs = 2;
        cfg.numOrt = 1;
        cfg.numPipelines = e.pipes;
        cfg.trsTotalBytes = 1024 * 1024;
        if (e.slotsPerSlice) {
            cfg.ovtTotalBytes =
                Bytes(e.slotsPerSlice) * 16 * cfg.totalOrt();
        }

        AddressSpace mem(0x40000000);
        std::vector<std::uint64_t> objs;
        while (objs.size() < 64) {
            std::uint64_t addr = mem.alloc(512);
            auto set = [&cfg](std::uint64_t a) {
                return PipelineConfig::ortSetOf(a, cfg.ortSets());
            };
            if (!e.sameSet || objs.empty() || set(addr) == set(objs[0]))
                objs.push_back(addr);
        }
        TaskTrace trace = wideTraceOver(objs, 80, 5);

        auto sys =
            SystemBuilder(cfg, trace).roundRobin(e.threads).build();
        EXPECT_EQ(sys->sharedData(), e.threads > 1) << e.what;
        RunResult r = sys->run(4'000'000'000ULL);
        EXPECT_EQ(r.metrics.counter("engine.event_digest"),
                  e.eventDigest)
            << e.what;
        EXPECT_EQ(r.metrics.counter("engine.apply_digest"),
                  e.applyDigest)
            << e.what;
        EXPECT_EQ(r.metrics.counter("frontend.gateway_stall_events"),
                  e.stallEvents)
            << e.what;
        EXPECT_EQ(r.metrics.counter("frontend.version_slot_parks"),
                  e.slotParks)
            << e.what;
    }
}

TEST(TopologyPlacement, DecisionsCompleteAcrossFabrics)
{
    TaskTrace trace = wideTrace(100, 48, 13);
    struct Config
    {
        TopologyKind topology;
        PlacementKind placement;
        bool batch;
    };
    const Config configs[] = {
        {TopologyKind::Fixed, PlacementKind::Adjacent, false},
        {TopologyKind::Ring, PlacementKind::Spread, false},
        {TopologyKind::Ring, PlacementKind::Random, true},
        {TopologyKind::Mesh, PlacementKind::Adjacent, false},
        {TopologyKind::Mesh, PlacementKind::Spread, true},
    };

    for (const Config &config : configs) {
        PipelineConfig cfg;
        cfg.numCores = 16;
        cfg.numTrs = 2;
        cfg.numOrt = 1;
        cfg.numPipelines = 2;
        cfg.trsTotalBytes = 1024 * 1024;
        cfg.ortTotalBytes = 128 * 1024;
        cfg.ovtTotalBytes = 128 * 1024;
        cfg.nocTopology = config.topology;
        cfg.nocPlacement = config.placement;
        cfg.batchOperands = config.batch;
        cfg.slicePacketCredits = 2;

        std::string what = std::string(toString(config.topology)) +
            "/" + toString(config.placement);
        RunResult r = runShared(cfg, trace, 3);
        EXPECT_EQ(r.numTasks, trace.size()) << what;
        expectTopological(trace, r, what);

        // Every task started exactly once.
        std::vector<std::uint32_t> order = r.startOrder;
        std::sort(order.begin(), order.end());
        for (std::uint32_t i = 0;
             i < static_cast<std::uint32_t>(order.size()); ++i)
            ASSERT_EQ(order[i], i) << what;
    }
}

} // namespace
} // namespace tss
