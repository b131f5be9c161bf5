/**
 * @file
 * The conservative windowed engine (sim/sim_engine.hh): cross-domain
 * delivery timing at the lookahead boundary and one cycle to either
 * side, the conservative floor on below-window deliveries, a
 * cross-domain exchange that matches the same stations on one shard,
 * and bit-identical System results across simThreads — the
 * determinism contract any parallel drain must keep, checked over
 * full topology/placement/batching configs.
 */

#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "core/system.hh"
#include "driver/experiment.hh"
#include "noc/ring.hh"
#include "module_harness.hh"
#include "same_run.hh"

namespace tss
{
namespace
{

/** Endpoint recording (arrival cycle, source) pairs. */
class Recorder : public Endpoint
{
  public:
    explicit Recorder(EventQueue &queue) : eq(queue) {}

    void
    receive(MessagePtr msg) override
    {
        log.emplace_back(eq.now(), msg->src);
    }

    EventQueue &eq;
    std::vector<std::pair<Cycle, NodeId>> log;
};

/**
 * One cross-domain send through a fresh two-domain engine: an event
 * at cycle @p inject on domain 0 (station 0) injects a @p bytes
 * message to station 1 (domain 1). Returns the delivery cycle.
 * The fixed fabric's delay is latency + ceil(bytes/16), so bytes
 * picks the delivery relative to the lookahead L = latency + 1:
 * 16 = exactly L, 17 = L + 1.
 */
Cycle
deliverOnce(Cycle inject, Bytes bytes)
{
    SimEngine engine(2);
    FixedNetwork net("net", engine.shard(0), fixedFabric(4, 16.0));
    engine.setLookahead(net.minDeliveryDelay());

    Recorder sink(engine.shard(1));
    net.attach(1, sink);
    net.bindQueue(0, engine.shard(0));
    net.bindQueue(1, engine.shard(1));

    engine.shard(0).scheduleStation(inject, 0, [&net, bytes] {
        net.send(std::make_unique<Message>(0, 1, bytes));
    });
    engine.run();

    EXPECT_TRUE(engine.empty());
    EXPECT_EQ(sink.log.size(), 1u);
    return sink.log.empty() ? invalidCycle : sink.log[0].first;
}

TEST(SimEngine, DeliveryAtLookaheadBoundaryIsExact)
{
    // 16 bytes serialize in 1 cycle: delivery = inject + latency + 1,
    // exactly the window end — legal (the window is half-open) and
    // must not be disturbed by the conservative floor.
    EXPECT_EQ(deliverOnce(10, 16), 15u);
}

TEST(SimEngine, DeliveryOneCyclePastBoundaryIsExact)
{
    // 17 bytes serialize in 2 cycles: one past the window end.
    EXPECT_EQ(deliverOnce(10, 17), 16u);
}

TEST(SimEngine, BelowWindowDeliveryIsFlooredAtWindowEnd)
{
    // A same-station self-message crosses no link: it serializes in
    // one cycle and would arrive at 11, *inside* the window [10, 14]
    // (L = hop latency 4 + 1) that already drained. The engine's
    // conservative floor lifts it to the window end — a cycle fixed
    // by the window grid, so determinism survives the clamp.
    NocParams p;
    p.numCores = 8;
    p.hopLatency = 4;
    SimEngine engine(1);
    RingNetwork net("net", engine.shard(0), p);
    engine.setLookahead(net.minDeliveryDelay());
    Recorder sink(engine.shard(0));
    net.attach(0, sink);
    engine.shard(0).scheduleStation(10, 0, [&net] {
        net.send(std::make_unique<Message>(0, 0, 16));
    });
    engine.run();
    ASSERT_EQ(sink.log.size(), 1u);
    EXPECT_EQ(sink.log[0].first, 15u);
}

TEST(SimEngine, CrossDomainPingPongMatchesSequential)
{
    // Two stations in different domains bounce a message back and
    // forth; every bounce crosses the lookahead barrier. The complete
    // arrival logs, final times and event counts must be identical
    // to the same two stations sharing one shard: splitting stations
    // across domains must not move a delivery.
    auto play = [](unsigned domains) {
        SimEngine engine(domains);
        FixedNetwork net("net", engine.shard(0), fixedFabric(3, 16.0));
        engine.setLookahead(net.minDeliveryDelay());

        struct Bouncer : Endpoint
        {
            Network *net = nullptr;
            NodeId self = 0;
            int remaining = 0;
            std::vector<std::pair<Cycle, NodeId>> log;
            EventQueue *eq = nullptr;

            void
            receive(MessagePtr msg) override
            {
                log.emplace_back(eq->now(), msg->src);
                if (remaining-- <= 0)
                    return;
                net->send(std::make_unique<Message>(self, msg->src,
                                                    16));
            }
        };

        Bouncer a, b;
        a.net = &net;
        a.self = 0;
        a.remaining = 8;
        a.eq = &engine.shard(0);
        b.net = &net;
        b.self = 1;
        b.remaining = 8;
        b.eq = &engine.shard(domains - 1);
        net.attach(0, a);
        net.attach(1, b);
        net.bindQueue(0, engine.shard(0));
        net.bindQueue(1, engine.shard(domains - 1));

        engine.shard(0).scheduleStation(1, 0, [&net] {
            net.send(std::make_unique<Message>(0, 1, 16));
        });
        engine.run();

        auto log = a.log;
        log.insert(log.end(), b.log.begin(), b.log.end());
        return std::make_tuple(log, engine.now(), engine.executed());
    };

    auto sequential = play(1);
    auto sharded = play(2);
    EXPECT_EQ(std::get<0>(sharded), std::get<0>(sequential));
    EXPECT_EQ(std::get<1>(sharded), std::get<1>(sequential));
    EXPECT_EQ(std::get<2>(sharded), std::get<2>(sequential));
    EXPECT_GT(std::get<0>(sequential).size(), 16u);
}

TEST(SimEngine, SystemBitIdenticalAcrossSimThreads)
{
    // The acceptance contract: a full multi-pipeline System produces
    // bit-identical results — timing, stats, and the complete
    // scheduling decision — at simThreads 1, 2 and 4, across the
    // topology / placement / batching / credit matrix.
    struct NocPoint
    {
        TopologyKind topology;
        PlacementKind placement;
        bool batch;
        unsigned credits;
    };
    const NocPoint points[] = {
        {TopologyKind::Fixed, PlacementKind::Adjacent, false, 0},
        {TopologyKind::Ring, PlacementKind::Spread, true, 1},
        {TopologyKind::Mesh, PlacementKind::Random, true, 2},
    };

    TaskTrace trace = makeWorkload("Cholesky", 0.02, 3);
    for (const NocPoint &p : points) {
        PipelineConfig cfg = paperConfig(32);
        cfg.numTrs = 4;
        cfg.numPipelines = 4;
        cfg.nocTopology = p.topology;
        cfg.nocPlacement = p.placement;
        cfg.batchOperands = p.batch;
        cfg.slicePacketCredits = p.credits;

        cfg.simThreads = 1;
        RunResult baseline = runHardware(cfg, trace, 8);
        for (unsigned threads : {2u, 4u}) {
            cfg.simThreads = threads;
            RunResult parallel = runHardware(cfg, trace, 8);
            expectSameRun(parallel, baseline,
                          std::string(toString(p.topology)) + "/" +
                              toString(p.placement) + "/" +
                              std::to_string(threads) + " threads");
        }
    }
}

TEST(SimEngine, RelocatedRealKernelBitIdenticalAcrossSimThreads)
{
    // Same contract on a real captured StarSs kernel relocated onto
    // the synthetic address space — the fig17 reference path.
    auto program = starss::makeCholeskyProgram(1, 6, 8);
    TaskTrace trace = program->context().relocatedTrace();
    PipelineConfig cfg = paperConfig(32);
    cfg.numPipelines = 2;

    cfg.simThreads = 1;
    RunResult baseline = runHardware(cfg, trace, 4);
    cfg.simThreads = 2;
    RunResult parallel = runHardware(cfg, trace, 4);
    expectSameRun(parallel, baseline, "relocated Cholesky");
}

TEST(SimEngine, ConcurrentSystemsAreIndependent)
{
    // Independent Systems simulating on different host threads (the
    // tss-serve execute pool runs one per worker) must not perturb
    // each other: every per-event context the engine uses — the
    // thread-local execCtx and each queue's windowFloor — is scoped
    // to one engine. Regression for a process-shared floor, which let
    // one engine's window end leak into another engine's delivery
    // clamp (intermittently shifted makespans, and double version
    // release when events landed at corrupted cycles).
    TaskTrace trace = makeWorkload("Cholesky", 0.02, 2);
    PipelineConfig cfg = paperConfig(32);
    cfg.numPipelines = 2;

    cfg.simThreads = 1;
    RunResult baseline = runHardware(cfg, trace, 4);

    constexpr unsigned kThreads = 6;
    constexpr unsigned kRunsPerThread = 3;
    std::vector<RunResult> results(kThreads * kRunsPerThread);
    std::vector<std::thread> runners;
    for (unsigned t = 0; t < kThreads; ++t) {
        runners.emplace_back([&, t] {
            // Half the threads ask for a 2-thread engine: a host
            // knob, which must stay invisible in every result.
            PipelineConfig mine = cfg;
            mine.simThreads = (t % 2) ? 2 : 1;
            for (unsigned r = 0; r < kRunsPerThread; ++r)
                results[t * kRunsPerThread + r] = runHardware(mine, trace, 4);
        });
    }
    for (auto &runner : runners)
        runner.join();

    for (unsigned i = 0; i < results.size(); ++i)
        expectSameRun(results[i], baseline,
                      "concurrent run " + std::to_string(i));
}

} // namespace
} // namespace tss
