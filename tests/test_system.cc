/**
 * @file
 * SystemBuilder composition tests: multi-pipeline frontends built
 * purely from PipelineConfig, global module index spaces, and
 * equivalence between single- and multi-pipeline systems.
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

/** Merge parts round-robin; returns the thread assignment. */
std::pair<TaskTrace, std::vector<unsigned>>
interleave(std::vector<TaskTrace> parts)
{
    TaskTrace merged;
    merged.name = "merged";
    merged.addKernel("k");
    std::vector<unsigned> thread_of;
    std::vector<std::size_t> pos(parts.size(), 0);
    bool more = true;
    while (more) {
        more = false;
        for (std::size_t p = 0; p < parts.size(); ++p) {
            if (pos[p] >= parts[p].size())
                continue;
            TraceTask task = parts[p].tasks[pos[p]++];
            task.kernel = 0;
            merged.tasks.push_back(std::move(task));
            thread_of.push_back(static_cast<unsigned>(p));
            more = true;
        }
    }
    return {std::move(merged), std::move(thread_of)};
}

TaskTrace
tinyTasks(unsigned count, std::uint64_t base_addr)
{
    TaskTrace trace;
    trace.name = "tiny";
    trace.addKernel("k");
    TaskBuilder b(trace);
    AddressSpace mem(base_addr);
    for (unsigned i = 0; i < count; ++i) {
        b.begin(0, 400).out(mem.alloc(512), 512);
        b.commit();
    }
    return trace;
}

PipelineConfig
smallConfig()
{
    PipelineConfig cfg;
    cfg.numCores = 16;
    cfg.numTrs = 2;
    cfg.numOrt = 1;
    cfg.trsTotalBytes = 256 * 1024;
    cfg.ortTotalBytes = 64 * 1024;
    cfg.ovtTotalBytes = 64 * 1024;
    return cfg;
}

TEST(SystemConfig, MultiPipelineTileLayout)
{
    PipelineConfig cfg = smallConfig();
    cfg.numPipelines = 2;
    // Per pipeline: gateway + 2 TRS + ORT + OVT = 5 tiles; plus the
    // shared scheduler.
    EXPECT_EQ(cfg.pipelineSpan(), 5u);
    EXPECT_EQ(cfg.frontendTiles(), 11u);
    EXPECT_EQ(cfg.totalTrs(), 4u);
    EXPECT_EQ(cfg.totalOrt(), 2u);
    EXPECT_EQ(cfg.gatewayTile(1), 5u);
    EXPECT_EQ(cfg.trsTile(0, 1), 6u);
    EXPECT_EQ(cfg.ortTile(0, 1), 8u);
    EXPECT_EQ(cfg.ovtTile(0, 1), 9u);
    EXPECT_EQ(cfg.schedulerTile(), 10u);

    // Single-pipeline layout is unchanged from the historical one.
    PipelineConfig base;
    EXPECT_EQ(base.frontendTiles(), 2u + base.numTrs + 2 * base.numOrt);
    EXPECT_EQ(base.schedulerTile(),
              1u + base.numTrs + 2 * base.numOrt);
}

TEST(SystemBuilderTest, TwoPipelinesFromConfigOnly)
{
    TaskTrace a = tinyTasks(200, 0x1000'0000);
    TaskTrace b = tinyTasks(200, 0x9000'0000);
    auto [merged, thread_of] = interleave({a, b});

    PipelineConfig cfg = smallConfig();
    cfg.numPipelines = 2;

    auto sys = SystemBuilder(cfg, merged).threads(thread_of).build();
    EXPECT_EQ(sys->numPipelines(), 2u);

    RunResult result = sys->run(1'000'000'000);
    EXPECT_EQ(result.numTasks, merged.size());

    DepGraph graph = DepGraph::build(merged, Semantics::Renamed);
    EXPECT_TRUE(graph.isTopologicalOrder(result.startOrder));

    // Both frontends did real work: every pipeline's TRS set hosted
    // half the tasks, so both sides allocated and freed blocks.
    std::uint64_t pipe0 = 0, pipe1 = 0;
    for (unsigned i = 0; i < cfg.numTrs; ++i)
        pipe0 += sys->trs(i).packetsProcessed();
    for (unsigned i = cfg.numTrs; i < cfg.totalTrs(); ++i)
        pipe1 += sys->trs(i).packetsProcessed();
    EXPECT_GT(pipe0, 0u);
    EXPECT_GT(pipe1, 0u);
}

TEST(SystemBuilderTest, TwoPipelinesMatchOnePipelineResults)
{
    // The same partitioned two-thread workload must complete with
    // identical task counts and a valid order whether the threads
    // share one frontend or get a pipeline each.
    TaskTrace a = genCholeskyBlocked(6, 4096, 1);
    TaskTrace b = genCholeskyBlocked(6, 4096, 2);
    for (auto &task : b.tasks)
        for (auto &op : task.operands)
            op.addr += 0x4000'0000ULL;
    auto [merged, thread_of] = interleave({a, b});

    PipelineConfig cfg = smallConfig();

    auto shared_frontend =
        SystemBuilder(cfg, merged).threads(thread_of).build();
    RunResult one = shared_frontend->run(1'000'000'000);

    cfg.numPipelines = 2;
    auto sys = SystemBuilder(cfg, merged).threads(thread_of).build();
    RunResult two = sys->run(1'000'000'000);

    EXPECT_EQ(one.numTasks, two.numTasks);
    DepGraph graph = DepGraph::build(merged, Semantics::Renamed);
    EXPECT_TRUE(graph.isTopologicalOrder(one.startOrder));
    EXPECT_TRUE(graph.isTopologicalOrder(two.startOrder));
}

TEST(SystemBuilderTest, PipelinePerThreadScalesGenerationRate)
{
    // Four generation-bound threads on one gateway contend for its
    // single in-order issue port; four pipelines decode in parallel.
    std::vector<TaskTrace> parts;
    for (unsigned p = 0; p < 4; ++p)
        parts.push_back(tinyTasks(1500, 0x1000'0000ULL * (p + 1)));
    auto [merged, thread_of] = interleave(parts);

    // Capability probe: capacities are machine-wide totals (constant
    // across numPipelines), oversized here so neither configuration
    // hits window-capacity stalls and the comparison isolates
    // generation/decode parallelism.
    PipelineConfig cfg;
    cfg.numCores = 64;
    cfg.numTrs = 4;
    cfg.numOrt = 2;
    cfg.trsTotalBytes = 8u * 1024 * 1024;
    cfg.ortTotalBytes = 1024 * 1024;
    cfg.ovtTotalBytes = 1024 * 1024;

    auto single =
        SystemBuilder(cfg, merged).threads(thread_of).build();
    Cycle makespan_shared = single->run(2'000'000'000).makespan;

    cfg.numPipelines = 4;
    auto sys = SystemBuilder(cfg, merged).threads(thread_of).build();
    Cycle makespan_split = sys->run(2'000'000'000).makespan;

    EXPECT_LT(static_cast<double>(makespan_split),
              0.6 * static_cast<double>(makespan_shared));
}

TEST(SystemBuilderTest, AccessorsReachEveryUnit)
{
    TaskTrace trace = tinyTasks(50, 0x2000'0000);
    PipelineConfig cfg = smallConfig();
    auto sys = SystemBuilder(cfg, trace).build();

    // gateway() defaults to pipeline 0 — same unit either way.
    EXPECT_EQ(&sys->gateway(), &sys->gateway(0));
    EXPECT_EQ(sys->trs(1).freeBlocks(), sys->trs(0).freeBlocks());
    (void)sys->eventQueue();
    (void)sys->scheduler();

    RunResult result = sys->run(100'000'000);
    EXPECT_EQ(result.numTasks, trace.size());
}

TEST(SystemBuilderTest, RejectsEmptyModuleCountsAndOversizedTasks)
{
    TaskTrace trace = tinyTasks(4, 0x2000'0000);
    // The TRS capacity divides by the TRS count: the count is checked
    // first, so a zero count is a named fatal, not a division by zero.
    PipelineConfig no_trs = smallConfig();
    no_trs.numTrs = 0;
    EXPECT_DEATH(SystemBuilder(no_trs, trace).build(),
                 "at least one TRS, ORT and core");
    PipelineConfig no_pipes = smallConfig();
    no_pipes.numPipelines = 0;
    EXPECT_DEATH(SystemBuilder(no_pipes, trace).build(),
                 "at least one frontend pipeline");

    TaskTrace wide = tinyTasks(1, 0x2000'0000);
    for (unsigned i = 0; i < layout::maxOperands; ++i)
        wide.tasks[0].operands.push_back({Dir::In, 0x3000'0000u + i, 8});
    EXPECT_DEATH(SystemBuilder(smallConfig(), wide).build(),
                 "task with 20 operands exceeds the 19-operand");
}

} // namespace
} // namespace tss
