/**
 * @file
 * Frontend-module behaviour tests, driven through small end-to-end
 * pipelines with introspection: ORT capacity stalls, OVT version
 * lifecycle, renaming and chaining ablations, TRS storage accounting,
 * gateway flow control, and the slot-generation tombstone rule.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "graph/dep_graph.hh"
#include "workload/address_space.hh"
#include "workload/builder.hh"
#include "workload/workload.hh"

namespace tss
{
namespace
{

PipelineConfig
tinyConfig()
{
    PipelineConfig cfg;
    cfg.numCores = 16;
    cfg.numTrs = 2;
    cfg.numOrt = 1;
    cfg.trsTotalBytes = 64 * 1024;  // 512 blocks
    cfg.ortTotalBytes = 32 * 1024;
    cfg.ovtTotalBytes = 32 * 1024;
    return cfg;
}

/** count independent writer tasks over distinct objects. */
TaskTrace
distinctWriters(unsigned count, Bytes bytes = 1024)
{
    TaskTrace trace;
    trace.name = "writers";
    trace.addKernel("k");
    TaskBuilder b(trace);
    AddressSpace mem;
    for (unsigned i = 0; i < count; ++i) {
        b.begin(0, 2000).out(mem.alloc(bytes), bytes);
        b.commit();
    }
    return trace;
}

TEST(Frontend, TrsStorageFullyRecycled)
{
    TaskTrace trace = genCholeskyBlocked(8, 4096, 1);
    auto pipe = SystemBuilder(tinyConfig(), trace).build();
    RunResult result = pipe->run(100'000'000);
    EXPECT_EQ(result.numTasks, trace.size());
    // Every block must be back on the free lists.
    for (unsigned i = 0; i < pipe->config().numTrs; ++i) {
        EXPECT_EQ(pipe->trs(i).freeBlocks(),
                  pipe->config().blocksPerTrs());
        EXPECT_EQ(pipe->trs(i).liveSlots(), 0u);
    }
}

TEST(Frontend, OvtVersionsFullyReleased)
{
    TaskTrace trace = genCholeskyBlocked(8, 4096, 1);
    PipelineConfig cfg = tinyConfig();
    auto pipe = SystemBuilder(cfg, trace).build();
    pipe->run(100'000'000);
    // With eager write-back every version retires once drained.
    for (unsigned i = 0; i < cfg.numOrt; ++i) {
        EXPECT_EQ(pipe->ovt(i).liveVersions(), 0u);
        EXPECT_EQ(pipe->ovt(i).liveRenameBuffers(), 0u);
        EXPECT_EQ(pipe->ort(i).freeVersionSlots(),
                  cfg.slotsPerOvt());
    }
}

TEST(Frontend, OrtCapacityStallsThenRecovers)
{
    // Far more distinct objects than the tiny ORT can hold forces
    // the paper's gateway-stall path; the run must still complete.
    PipelineConfig cfg = tinyConfig();
    cfg.ortTotalBytes = 2 * 1024;  // 128 entries
    cfg.ovtTotalBytes = 2 * 1024;
    TaskTrace trace = distinctWriters(2000);
    auto pipe = SystemBuilder(cfg, trace).build();
    RunResult result = pipe->run(500'000'000);
    EXPECT_EQ(result.numTasks, 2000u);
    EXPECT_GT(result.metrics.counter("frontend.gateway_stall_events"), 0u);
    EXPECT_GT(result.metrics.counter("frontend.gateway_stall_cycles"), 0u);
}

TEST(Frontend, TrsCapacityBoundsWindow)
{
    PipelineConfig cfg = tinyConfig();
    cfg.trsTotalBytes = 16 * 1024; // 2 TRS x 64 blocks
    TaskTrace trace = distinctWriters(1000);
    auto pipe = SystemBuilder(cfg, trace).build();
    RunResult result = pipe->run(500'000'000);
    EXPECT_EQ(result.numTasks, 1000u);
    // The in-flight window can never exceed the block capacity.
    EXPECT_LE(result.metrics.gauge("frontend.tasks_in_flight_peak"), 128.0);
    EXPECT_GT(result.metrics.counter("frontend.alloc_wait_cycles"), 0u);
}

RunResult
runOnce(const PipelineConfig &cfg, const TaskTrace &trace)
{
    auto pipe = SystemBuilder(cfg, trace).build();
    return pipe->run(500'000'000);
}

TEST(Frontend, RenamingAblationSerializesWaw)
{
    // N writers to one object: renamed => parallel; in-place =>
    // serial (WaW chains through version unblocking).
    TaskTrace trace;
    trace.name = "waw";
    trace.addKernel("k");
    TaskBuilder b(trace);
    for (int i = 0; i < 32; ++i) {
        b.begin(0, 10000).out(0xC000, 4096);
        b.commit();
    }

    PipelineConfig renamed = tinyConfig();
    renamed.numCores = 32;
    RunResult with = runOnce(renamed, trace);

    PipelineConfig in_place = renamed;
    in_place.renameOutputs = false;
    RunResult without = runOnce(in_place, trace);

    EXPECT_GT(with.speedup, 8.0);
    EXPECT_LT(without.speedup, 1.5);
    EXPECT_GT(with.metrics.counter("frontend.versions_renamed"), 0u);
    EXPECT_EQ(without.metrics.counter("frontend.versions_renamed"), 0u);
}

TEST(Frontend, ChainingAblationStillCorrect)
{
    TaskTrace trace = genCholeskyBlocked(8, 4096, 1);
    PipelineConfig cfg = tinyConfig();
    cfg.consumerChaining = false;
    auto pipe = SystemBuilder(cfg, trace).build();
    RunResult result = pipe->run(200'000'000);
    EXPECT_EQ(result.numTasks, trace.size());
    DepGraph graph = DepGraph::build(trace, Semantics::Renamed);
    EXPECT_TRUE(graph.isTopologicalOrder(result.startOrder));
    // Without chaining no TRS-to-TRS forwarding happens.
    EXPECT_EQ(pipe->frontendStats().dataReadyForwards.value(), 0u);
}

TEST(Frontend, ChainingForwardsReadyMessages)
{
    // One producer, many readers: chained consumers relay data-ready.
    TaskTrace trace;
    trace.name = "fanout";
    trace.addKernel("k");
    TaskBuilder b(trace);
    b.begin(0, 5000).out(0xD000, 4096);
    b.commit();
    for (int i = 0; i < 10; ++i) {
        b.begin(0, 5000).in(0xD000, 4096);
        b.commit();
    }
    PipelineConfig cfg = tinyConfig();
    auto pipe = SystemBuilder(cfg, trace).build();
    RunResult result = pipe->run(100'000'000);
    EXPECT_EQ(result.numTasks, 11u);
    // 10 readers: reader k>0 chains on reader k-1 (9 forwards; the
    // first gets its ready from the producer's task-finish walk).
    EXPECT_GE(pipe->frontendStats().dataReadyForwards.value(), 9u);
    EXPECT_GE(result.metrics.gauge("frontend.chain_consumers_max"), 9.0);
}

TEST(Frontend, TombstoneRegistrationAnswered)
{
    // A producer finishes long before a late reader decodes: the
    // reader's registration must be answered from the freed slot
    // (generation tombstone, DESIGN.md deviation #2). Construct:
    // producer, a long chain of unrelated tasks to delay the reader's
    // decode, then the reader.
    TaskTrace trace;
    trace.name = "tombstone";
    trace.addKernel("k");
    TaskBuilder b(trace);
    AddressSpace mem;
    b.begin(0, 100).out(0xE000, 1024); // fast producer
    b.commit();
    for (int i = 0; i < 200; ++i) {
        b.begin(0, 50000).out(mem.alloc(1024), 1024);
        b.commit();
    }
    b.begin(0, 100).in(0xE000, 1024); // late reader
    b.commit();

    PipelineConfig cfg = tinyConfig();
    auto pipe = SystemBuilder(cfg, trace).build();
    RunResult result = pipe->run(200'000'000);
    EXPECT_EQ(result.numTasks, 202u);
}

TEST(Frontend, GatewayBufferThrottlesSource)
{
    // Tasks arrive much faster than the tiny backend can drain them;
    // the 20-entry gateway buffer must block the generating thread.
    PipelineConfig cfg = tinyConfig();
    cfg.numCores = 1;
    cfg.trsTotalBytes = 8 * 1024; // minimal window
    TaskTrace trace = distinctWriters(500, 256);
    auto pipe = SystemBuilder(cfg, trace).build();
    RunResult result = pipe->run(2'000'000'000);
    EXPECT_EQ(result.numTasks, 500u);
    EXPECT_GT(result.metrics.counter("frontend.source_stall_cycles"), 0u);
}

TEST(Frontend, ScalarOperandsBypassOrts)
{
    TaskTrace trace;
    trace.name = "scalars";
    trace.addKernel("k");
    TaskBuilder b(trace);
    for (int i = 0; i < 50; ++i) {
        b.begin(0, 1000).scalar().scalar().scalar();
        b.commit();
    }
    PipelineConfig cfg = tinyConfig();
    auto pipe = SystemBuilder(cfg, trace).build();
    RunResult result = pipe->run(100'000'000);
    EXPECT_EQ(result.numTasks, 50u);
    // No memory operands: no versions at all.
    EXPECT_EQ(result.metrics.counter("frontend.versions_created"), 0u);
    // Scalar-only tasks are ready immediately: near-full parallelism.
    EXPECT_GT(result.speedup, 3.0);
}

TEST(Frontend, DmaWritebackForRenamedFinals)
{
    // Renamed outputs that are never superseded must be copied back.
    TaskTrace trace = distinctWriters(100, 4096);
    PipelineConfig cfg = tinyConfig();
    auto pipe = SystemBuilder(cfg, trace).build();
    RunResult result = pipe->run(100'000'000);
    EXPECT_EQ(result.metrics.counter("frontend.versions_renamed"), 100u);
    EXPECT_EQ(result.metrics.counter("frontend.dma_writebacks"), 100u);
}

TEST(Frontend, InoutNeedsTwoReadyMessages)
{
    // writer -> reader -> inout: the inout waits both for the data
    // (RaW) and for the reader to release the version (WaR).
    TaskTrace trace;
    trace.name = "inout2";
    trace.addKernel("k");
    TaskBuilder b(trace);
    b.begin(0, 10000).out(0xF000, 1024);
    b.commit();
    b.begin(0, 50000).in(0xF000, 1024);
    b.commit();
    b.begin(0, 1000).inout(0xF000, 1024);
    b.commit();

    PipelineConfig cfg = tinyConfig();
    auto pipe = SystemBuilder(cfg, trace).build();
    RunResult result = pipe->run(100'000'000);
    const auto &records = pipe->taskRegistry().allRecords();
    // The inout may only start after the reader finished.
    EXPECT_GE(records[2].started, records[1].finished);
    EXPECT_GE(records[1].started, records[0].finished);
    (void)result;
}

TEST(Frontend, MaxOperandTasksUseIndirectBlocks)
{
    TaskTrace trace;
    trace.name = "fat";
    trace.addKernel("k");
    TaskBuilder b(trace);
    AddressSpace mem;
    for (int t = 0; t < 20; ++t) {
        b.begin(0, 2000);
        for (unsigned i = 0; i < layout::maxOperands; ++i)
            b.in(mem.alloc(256), 256);
        b.commit();
    }
    PipelineConfig cfg = tinyConfig();
    auto pipe = SystemBuilder(cfg, trace).build();
    RunResult result = pipe->run(100'000'000);
    EXPECT_EQ(result.numTasks, 20u);
    // 19 operands => 4 blocks => fragmentation is positive.
    EXPECT_GT(result.metrics.gauge("frontend.fragmentation_mean"), 0.0);
}

} // namespace
} // namespace tss
