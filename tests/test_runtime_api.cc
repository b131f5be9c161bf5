/**
 * @file
 * Tests for the StarSs-like programming model and one-core replay
 * (ParallelExecutor::runReplay of a oneCoreSchedule): trace capture
 * fidelity, sequential execution, and — the headline property —
 * out-of-order execution with memory renaming producing results
 * identical to sequential execution for every legal schedule.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "core/system.hh"
#include "graph/dep_graph.hh"
#include "runtime/parallel_exec.hh"
#include "runtime/starss.hh"
#include "sim/random.hh"

namespace tss
{
namespace
{

using starss::Buffers;
using starss::ParallelExecutor;
using starss::TaskContext;

TEST(StarssApi, CapturesTraceWithDirections)
{
    TaskContext ctx;
    std::vector<float> a(16), b(16), c(16);
    auto k = ctx.addKernel("gemm", [](Buffers &) {}, 23.0);
    ctx.spawn(k, {starss::in(a.data(), 64), starss::in(b.data(), 64),
                  starss::inout(c.data(), 64)});

    const TaskTrace &trace = ctx.trace();
    ASSERT_EQ(trace.size(), 1u);
    EXPECT_EQ(trace.kernelNames[0], "gemm");
    ASSERT_EQ(trace.tasks[0].operands.size(), 3u);
    EXPECT_EQ(trace.tasks[0].operands[0].dir, Dir::In);
    EXPECT_EQ(trace.tasks[0].operands[2].dir, Dir::InOut);
    EXPECT_EQ(trace.tasks[0].operands[0].addr,
              reinterpret_cast<std::uint64_t>(a.data()));
    EXPECT_EQ(trace.tasks[0].runtime, defaultClock.usToCycles(23.0));
}

TEST(StarssApi, SequentialExecutionRunsKernels)
{
    TaskContext ctx;
    int x = 1;
    auto dbl = ctx.addKernel("dbl", [](Buffers &b) {
        *b.as<int>(0) *= 2;
    });
    for (int i = 0; i < 5; ++i)
        ctx.spawn(dbl, {starss::inout(&x, sizeof(int))});
    ctx.runSequential();
    EXPECT_EQ(x, 32);
}

/** Accumulation program with reads/writes/inouts over a few cells. */
void
buildAccumulation(TaskContext &ctx, std::vector<double> &cells)
{
    auto addk = ctx.addKernel("add", [](Buffers &b) {
        *b.as<double>(1) += *b.as<double>(0);
    });
    auto setk = ctx.addKernel("set", [](Buffers &b) {
        *b.as<double>(0) = 7.0;
    });
    auto scale = ctx.addKernel("scale", [](Buffers &b) {
        *b.as<double>(1) = *b.as<double>(0) * 3.0;
    });
    constexpr Bytes d = sizeof(double);
    // A mix creating RaW, WaR and WaW hazards across the cells.
    ctx.spawn(setk, {starss::out(&cells[0], d)});
    ctx.spawn(addk, {starss::in(&cells[0], d),
                     starss::inout(&cells[1], d)});
    ctx.spawn(scale, {starss::in(&cells[1], d),
                      starss::out(&cells[2], d)});
    ctx.spawn(setk, {starss::out(&cells[0], d)}); // WaW on 0
    ctx.spawn(addk, {starss::in(&cells[2], d),
                     starss::inout(&cells[0], d)});
    ctx.spawn(addk, {starss::in(&cells[0], d),
                     starss::inout(&cells[3], d)});
}

TEST(OneCoreReplay, ProgramOrderMatchesSequential)
{
    std::vector<double> seq{0, 1, 2, 3};
    {
        TaskContext ctx;
        buildAccumulation(ctx, seq);
        ctx.runSequential();
    }

    std::vector<double> ooo{0, 1, 2, 3};
    TaskContext ctx;
    buildAccumulation(ctx, ooo);
    std::vector<std::uint32_t> order(ctx.numTasks());
    std::iota(order.begin(), order.end(), 0);
    ParallelExecutor(ctx).runReplay(starss::oneCoreSchedule(order));
    EXPECT_EQ(ooo, seq);
}

TEST(OneCoreReplay, EveryLegalOrderMatchesSequential)
{
    std::vector<double> seq{0, 1, 2, 3};
    {
        TaskContext ctx;
        buildAccumulation(ctx, seq);
        ctx.runSequential();
    }

    // Enumerate random legal topological orders of the renamed graph
    // and check each reproduces the sequential result.
    Rng rng(123);
    for (int round = 0; round < 30; ++round) {
        std::vector<double> ooo{0, 1, 2, 3};
        TaskContext ctx;
        buildAccumulation(ctx, ooo);
        DepGraph graph =
            DepGraph::build(ctx.trace(), Semantics::Renamed);

        // Random Kahn's algorithm.
        auto n = static_cast<std::uint32_t>(ctx.numTasks());
        std::vector<unsigned> indeg(n, 0);
        for (std::uint32_t t = 0; t < n; ++t)
            indeg[t] = static_cast<unsigned>(graph.inDegree(t));
        std::vector<std::uint32_t> frontier;
        for (std::uint32_t t = 0; t < n; ++t)
            if (indeg[t] == 0)
                frontier.push_back(t);
        std::vector<std::uint32_t> order;
        while (!frontier.empty()) {
            std::size_t pick = rng.range(frontier.size());
            std::uint32_t t = frontier[pick];
            frontier.erase(frontier.begin() +
                           static_cast<std::ptrdiff_t>(pick));
            order.push_back(t);
            for (std::uint32_t s : graph.succ(t))
                if (--indeg[s] == 0)
                    frontier.push_back(s);
        }
        ASSERT_EQ(order.size(), n);

        ParallelExecutor(ctx).runReplay(starss::oneCoreSchedule(order));
        ASSERT_EQ(ooo, seq) << "round " << round;
    }
}

TEST(OneCoreReplay, PipelineScheduleMatchesSequential)
{
    // Blocked vector-scaling pipeline: writers renamed, readers of
    // old versions, inout accumulators — scheduled by the simulated
    // task superscalar pipeline itself.
    constexpr unsigned blocks = 12;
    constexpr unsigned elems = 64;
    std::vector<std::vector<double>> seq(blocks,
                                         std::vector<double>(elems));
    std::vector<std::vector<double>> ooo(blocks,
                                         std::vector<double>(elems));
    for (unsigned i = 0; i < blocks; ++i)
        for (unsigned j = 0; j < elems; ++j)
            seq[i][j] = ooo[i][j] = i + j * 0.5;

    auto build = [&](TaskContext &ctx,
                     std::vector<std::vector<double>> &data) {
        constexpr Bytes bb = elems * sizeof(double);
        auto square = ctx.addKernel("square", [=](Buffers &b) {
            for (unsigned j = 0; j < elems; ++j)
                b.as<double>(0)[j] *= b.as<double>(0)[j];
        });
        auto axpy = ctx.addKernel("axpy", [=](Buffers &b) {
            for (unsigned j = 0; j < elems; ++j)
                b.as<double>(1)[j] += 0.25 * b.as<double>(0)[j];
        });
        for (int round = 0; round < 4; ++round) {
            for (unsigned i = 0; i < blocks; ++i)
                ctx.spawn(square,
                          {starss::inout(data[i].data(), bb)}, 5.0);
            for (unsigned i = 0; i + 1 < blocks; ++i)
                ctx.spawn(axpy, {starss::in(data[i].data(), bb),
                                 starss::inout(data[i + 1].data(),
                                               bb)}, 8.0);
        }
    };

    TaskContext seq_ctx;
    build(seq_ctx, seq);
    seq_ctx.runSequential();

    TaskContext ctx;
    build(ctx, ooo);
    PipelineConfig cfg;
    cfg.numCores = 16;
    cfg.numTrs = 2;
    cfg.numOrt = 1;
    cfg.trsTotalBytes = 256 * 1024;
    cfg.ortTotalBytes = 64 * 1024;
    cfg.ovtTotalBytes = 64 * 1024;
    auto pipe = SystemBuilder(cfg, ctx.trace()).build();
    RunResult result = pipe->run(500'000'000);

    starss::ParallelRunStats stats = ParallelExecutor(ctx).runReplay(
        starss::oneCoreSchedule(result.startOrder));
    EXPECT_GT(stats.versions, 0u);
    EXPECT_EQ(ooo, seq);
}

TEST(OneCoreReplay, CountsOneVersionPerWrite)
{
    TaskContext ctx;
    double x = 0;
    auto w = ctx.addKernel("w", [](Buffers &b) {
        *b.as<double>(0) = 1.0;
    });
    for (int i = 0; i < 7; ++i)
        ctx.spawn(w, {starss::out(&x, sizeof(double))});
    std::vector<std::uint32_t> order(7);
    std::iota(order.begin(), order.end(), 0);
    starss::ParallelRunStats stats =
        ParallelExecutor(ctx).runReplay(starss::oneCoreSchedule(order));
    EXPECT_EQ(stats.versions, 7u);
}

TEST(OneCoreReplayDeathTest, RejectsAnOrderAgainstTheRenamedGraph)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    TaskContext ctx;
    double x = 0;
    auto add = ctx.addKernel("add", [](Buffers &b) {
        *b.as<double>(0) += 1.0;
    });
    ctx.spawn(add, {starss::inout(&x, sizeof(double))});
    ctx.spawn(add, {starss::inout(&x, sizeof(double))});
    EXPECT_EXIT(
        ParallelExecutor(ctx).runReplay(starss::oneCoreSchedule({1, 0})),
        testing::ExitedWithCode(1), "violates the renamed");
}

} // namespace
} // namespace tss
