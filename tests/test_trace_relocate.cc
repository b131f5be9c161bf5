/**
 * @file
 * The trace relocation pass (trace/relocate.hh): region discovery
 * (interval merging, stride coalescing, capture-registry extents),
 * aliasing preservation, base-invariance (the ASLR property: where
 * the source allocator put the regions must not matter), the seeded
 * layout option, the pinned layouts of the real programs, the
 * registry's fatal checks, and the acceptance-criteria differential
 * oracle — relocated decisions executed for real across threads
 * {1, 2, 4, 16} in both parallel modes stay bit-identical to
 * sequential execution.
 */

#include <gtest/gtest.h>

#include <iterator>

#include "core/system.hh"
#include "driver/experiment.hh"
#include "graph/dep_graph.hh"
#include "runtime/parallel_exec.hh"
#include "sim/hash.hh"
#include "trace/relocate.hh"
#include "workload/address_space.hh"
#include "workload/builder.hh"
#include "workload/starss_programs.hh"

namespace tss
{
namespace
{

/** Memory-operand addresses of a trace, flattened in trace order. */
std::vector<std::uint64_t>
operandAddresses(const TaskTrace &trace)
{
    std::vector<std::uint64_t> out;
    for (const TraceTask &task : trace.tasks)
        for (const TraceOperand &op : task.operands)
            if (isMemoryOperand(op.dir))
                out.push_back(op.addr);
    return out;
}

TEST(TraceRelocate, MergesOverlappingAndAbuttingIntervals)
{
    // Three accesses of one 1024-byte allocation (two abutting halves
    // plus an overlapping window) and one separate object.
    const std::uint64_t a = 0x7f31'2480'0000, b = 0x7f99'0000'4000;
    TaskTrace trace;
    trace.addKernel("k");
    TaskBuilder tb(trace);
    tb.begin(0, 100).in(a, 512).out(a + 512, 512).commit();
    tb.begin(0, 100).inout(a + 256, 512).in(b, 256).commit();

    RelocationMap map = buildRelocationMap(trace);
    ASSERT_EQ(map.regions().size(), 2u);

    // Intra-region offsets survive; distinct regions stay distinct.
    TaskTrace rel = map.apply(trace);
    auto src = operandAddresses(trace);
    auto dst = operandAddresses(rel);
    EXPECT_EQ(dst[1] - dst[0], 512u);
    EXPECT_EQ(dst[2] - dst[0], 256u);
    EXPECT_NE(map.find(src[3])->targetBase, map.find(src[0])->targetBase);
    EXPECT_TRUE(sameAliasing(trace, rel));
}

TEST(TraceRelocate, CoalescesStridedRunsIntoOneRegion)
{
    // Four equally-sized accesses walking a larger allocation at a
    // constant stride (512-byte rows of a 768-byte pitch): one
    // region, offsets preserved.
    const std::uint64_t base = 0x5555'0000'0000;
    TaskTrace trace;
    trace.addKernel("k");
    TaskBuilder tb(trace);
    for (unsigned i = 0; i < 4; ++i)
        tb.begin(0, 100).inout(base + i * 768, 512).commit();

    RelocationMap map = buildRelocationMap(trace);
    ASSERT_EQ(map.regions().size(), 1u);
    TaskTrace rel = map.apply(trace);
    auto dst = operandAddresses(rel);
    for (unsigned i = 1; i < 4; ++i)
        EXPECT_EQ(dst[i] - dst[0], i * 768u);
    EXPECT_TRUE(sameAliasing(trace, rel));
}

TEST(TraceRelocate, RelocationIsBaseInvariant)
{
    // The same program structure captured under two different source
    // layouts (different bases, different inter-object gaps, reversed
    // placement order — everything ASLR and the allocator could do)
    // must relocate to the identical trace.
    auto capture = [](std::uint64_t base, std::uint64_t gap,
                      bool reversed) {
        std::vector<std::uint64_t> objs(6);
        for (unsigned i = 0; i < objs.size(); ++i) {
            unsigned slot = reversed
                ? static_cast<unsigned>(objs.size()) - 1 - i
                : i;
            objs[slot] = base + slot * (512 + gap);
        }
        TaskTrace trace;
        trace.addKernel("k");
        TaskBuilder tb(trace);
        for (unsigned t = 0; t < 40; ++t) {
            tb.begin(0, 100 + t)
                .in(objs[t % objs.size()], 512)
                .inout(objs[(t + 2) % objs.size()], 512);
            tb.commit();
        }
        return trace;
    };

    TaskTrace low = capture(0x1000'0000, 1024, false);
    TaskTrace high = capture(0x7fff'8000'0000, 4096, true);
    ASSERT_FALSE(operandAddresses(low) == operandAddresses(high));

    TaskTrace rel_low = relocateTrace(low);
    TaskTrace rel_high = relocateTrace(high);
    EXPECT_EQ(operandAddresses(rel_low), operandAddresses(rel_high));

    // Identical addresses -> identical shardOf routing and identical
    // simulated timing, at any shard count.
    PipelineConfig cfg;
    cfg.numOrt = 2;
    cfg.numPipelines = 2;
    auto lo = operandAddresses(rel_low);
    auto hi = operandAddresses(rel_high);
    for (std::size_t i = 0; i < lo.size(); ++i)
        EXPECT_EQ(cfg.shardOf(lo[i]), cfg.shardOf(hi[i]));
}

TEST(TraceRelocate, SeededLayoutShufflesPlacementButPreservesAliasing)
{
    TaskTrace trace;
    trace.addKernel("k");
    TaskBuilder tb(trace);
    // Widely separated source objects: abutting or strided ones would
    // (correctly) merge into a single region, leaving no layout to
    // shuffle.
    AddressSpace mem(0x9000'0000, 4096);
    std::vector<std::uint64_t> objs;
    for (unsigned i = 0; i < 12; ++i)
        objs.push_back(mem.alloc(512));
    for (unsigned t = 0; t < 60; ++t) {
        tb.begin(0, 50)
            .in(objs[t % objs.size()], 512)
            .out(objs[(t + 5) % objs.size()], 512);
        tb.commit();
    }

    RelocationOptions canonical;
    RelocationOptions seeded;
    seeded.layoutSeed = 7;
    TaskTrace rel0 = relocateTrace(trace, canonical);
    TaskTrace rel7 = relocateTrace(trace, seeded);
    TaskTrace rel7b = relocateTrace(trace, seeded);

    EXPECT_NE(operandAddresses(rel0), operandAddresses(rel7));
    EXPECT_EQ(operandAddresses(rel7), operandAddresses(rel7b));
    EXPECT_TRUE(sameAliasing(trace, rel0));
    EXPECT_TRUE(sameAliasing(trace, rel7));

    // Aliasing preserved => the renamed dependency graph — the
    // semantic content of the trace — is layout-invariant.
    auto edges0 = DepGraph::build(rel0, Semantics::Renamed).allEdges();
    auto edges7 = DepGraph::build(rel7, Semantics::Renamed).allEdges();
    auto orig = DepGraph::build(trace, Semantics::Renamed).allEdges();
    EXPECT_EQ(edges0, orig);
    EXPECT_EQ(edges7, orig);
}

TEST(TraceRelocate, CaptureRegistryContainsEveryOperand)
{
    auto program = starss::makeCholeskyProgram(1, 4, 8);
    starss::TaskContext &ctx = program->context();

    // Every block registered, every memory operand inside exactly one.
    EXPECT_EQ(ctx.regions().size(), 16u); // 4x4 blocks
    const TaskTrace &trace = ctx.trace();
    for (const TraceTask &task : trace.tasks) {
        for (const TraceOperand &op : task.operands) {
            if (!isMemoryOperand(op.dir))
                continue;
            unsigned containing = 0;
            for (const MemRegion &r : ctx.regions())
                containing += op.addr >= r.base &&
                    op.addr + op.bytes <= r.base + r.bytes;
            EXPECT_EQ(containing, 1u);
        }
    }

    // The relocated trace lands in the synthetic range and keeps the
    // renamed graph bit-identical.
    RelocationOptions opts;
    TaskTrace rel = ctx.relocatedTrace(opts);
    for (std::uint64_t addr : operandAddresses(rel))
        EXPECT_GE(addr, opts.targetBase);
    EXPECT_TRUE(sameAliasing(trace, rel));
    EXPECT_EQ(DepGraph::build(rel, Semantics::Renamed).allEdges(),
              DepGraph::build(trace, Semantics::Renamed).allEdges());
}

/**
 * The layouts of the real programs, pinned: an FNV digest of every
 * relocated memory-operand address, in trace order, of each of
 * realPrograms() at seed 1, under the canonical first-touch layout
 * and under layout seed 7. A change to how registered regions are
 * resolved or placed moves these.
 */
TEST(TraceRelocate, RealProgramLayoutsArePinned)
{
    struct Pin
    {
        const char *name;
        std::uint64_t canonical;
        std::uint64_t seeded;
    };
    const Pin pins[] = {
        {"cholesky", 0xb582d2d5410d3d9dULL, 0xf039443f3124159dULL},
        {"matmul", 0x2d55c112841c2225ULL, 0xe27bafcf240b6225ULL},
        {"jacobi", 0x8f0b2406df6a8da5ULL, 0xa8589ac9563691a5ULL},
        {"reduce", 0x0522650f6404a59dULL, 0xdc5b7e6a1b0e9b9dULL},
    };
    auto digest = [](const TaskTrace &trace) {
        std::uint64_t h = digestSeed;
        for (std::uint64_t addr : operandAddresses(trace))
            h = digestFold(h, addr);
        return h;
    };
    RelocationOptions seeded;
    seeded.layoutSeed = 7;
    const auto &programs = starss::realPrograms();
    ASSERT_EQ(programs.size(), std::size(pins));
    for (std::size_t i = 0; i < programs.size(); ++i) {
        SCOPED_TRACE(programs[i].name);
        EXPECT_EQ(programs[i].name, pins[i].name);
        auto program = programs[i].make(1);
        const starss::TaskContext &ctx = program->context();
        EXPECT_EQ(digest(ctx.relocatedTrace()), pins[i].canonical);
        EXPECT_EQ(digest(ctx.relocatedTrace(seeded)), pins[i].seeded);
    }
}

/** A two-task program over one 512-byte object at @p obj. */
void
spawnTwoTasks(starss::TaskContext &ctx, std::uint8_t *obj)
{
    starss::KernelId k = ctx.addKernel("k", [](starss::Buffers &) {});
    ctx.spawn(k, {starss::out(obj, 512)});
    ctx.spawn(k, {starss::inout(obj + 256, 256)});
}

TEST(TraceRelocate, RegionRegisteredAfterItsSpawnRelocates)
{
    // Operands resolve to regions when the trace is relocated, so a
    // region registered after the task that touches it counts.
    std::vector<std::uint8_t> obj(512);
    starss::TaskContext late, early;
    spawnTwoTasks(late, obj.data());
    late.registerRegion(obj.data(), obj.size());
    early.registerRegion(obj.data(), obj.size());
    spawnTwoTasks(early, obj.data());

    TaskTrace rel = late.relocatedTrace();
    EXPECT_EQ(operandAddresses(rel),
              operandAddresses(early.relocatedTrace()));
    auto dst = operandAddresses(rel);
    EXPECT_EQ(dst[0], RelocationOptions{}.targetBase);
    EXPECT_EQ(dst[1] - dst[0], 256u);
}

TEST(TraceRelocateDeathTest, OperandOutsideEveryRegionDies)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    // A fixed address, so the re-executed death test prints the same
    // operand; nothing runs, so no memory is touched.
    auto *obj = reinterpret_cast<std::uint8_t *>(
        std::uintptr_t{0x7000'0000});
    starss::TaskContext ctx;
    ctx.registerRegion(obj, 256);
    spawnTwoTasks(ctx, obj);
    // Task 0's operand [obj, +512) spills past the 256-byte region.
    EXPECT_EXIT((void)ctx.relocatedTrace(), testing::ExitedWithCode(1),
                "operand \\[70000000,\\+512\\) of task 0 is not "
                "contained in any captured region");
}

TEST(TraceRelocateDeathTest, OverlappingRegionsDie)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    const std::uint64_t a = 0x7000'0000, b = a + 256;
    TaskTrace trace;
    trace.addKernel("k");
    TaskBuilder(trace).begin(0, 100).inout(a, 64).commit();
    const std::vector<MemRegion> regions = {{b, 512}, {a, 512}};
    EXPECT_EXIT((void)buildRelocationMap(trace, {}, regions),
                testing::ExitedWithCode(1),
                "captured regions overlap: \\[70000000,\\+512\\) "
                "and \\[70000100,\\+512\\)");
}

/**
 * Acceptance criteria: the differential oracle stays bit-identical
 * vs sequential execution for relocated traces across threads
 * {1, 2, 4, 16} x both parallel modes. Decisions are made by
 * simulating the *relocated* trace (multi-thread generation, shared
 * data) and replayed on the program's real memory; graph mode runs
 * against the renamed graph, which relocation provably leaves
 * untouched (asserted above).
 */
TEST(TraceRelocate, OracleBitIdenticalAcrossThreadsAndModes)
{
    for (const auto &info : starss::realPrograms()) {
        auto reference = info.make(11);
        reference->context().runSequential();
        std::vector<std::uint8_t> expected = reference->snapshot();

        for (unsigned threads : {1u, 2u, 4u, 16u}) {
            // Replay mode: a decision simulated on the relocated
            // trace, executed on the real pointers.
            {
                auto program = info.make(11);
                TaskTrace relocated =
                    program->context().relocatedTrace();
                PipelineConfig cfg = paperConfig(threads);
                cfg.numTrs = 2;
                RunResult decision = runHardware(cfg, relocated, 2);
                DepGraph renamed =
                    DepGraph::build(relocated, Semantics::Renamed);
                EXPECT_TRUE(
                    renamed.isTopologicalOrder(decision.startOrder))
                    << info.name << " @" << threads;

                starss::ParallelExecutor exec(program->context());
                exec.runReplay(decision);
                EXPECT_EQ(program->snapshot(), expected)
                    << info.name << ": relocated replay diverged at "
                    << threads << " cores";
            }

            // Graph mode: dataflow execution over the (relocation-
            // invariant) renamed graph.
            {
                auto program = info.make(11);
                starss::ParallelExecutor exec(program->context());
                starss::ParallelRunStats stats =
                    exec.runGraph(threads);
                EXPECT_EQ(stats.threads, threads);
                EXPECT_EQ(program->snapshot(), expected)
                    << info.name << ": graph mode diverged at "
                    << threads << " threads";
            }
        }
    }
}

} // namespace
} // namespace tss
