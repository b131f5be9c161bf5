/**
 * @file
 * Property-based tests: randomized task streams through randomized
 * pipeline configurations must always (a) complete, (b) execute in an
 * order consistent with the reference renamed dependency graph,
 * (c) leak no storage, and (d) stay within the configured window.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "graph/dep_graph.hh"
#include "sim/random.hh"
#include "swruntime/sw_runtime.hh"
#include "workload/builder.hh"

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
    trace.name = "random";
    trace.addKernel("k");
    std::vector<std::uint64_t> pool(objects);
    for (unsigned i = 0; i < objects; ++i)
        pool[i] = 0x1000 + 0x1000ULL * i;

    TaskBuilder b(trace);
    for (unsigned t = 0; t < tasks; ++t) {
        auto nops = static_cast<unsigned>(rng.rangeInclusive(1,
            static_cast<std::int64_t>(max_ops)));
        b.begin(0, 200 + rng.range(20000));
        // Avoid duplicate objects within one task (the paper's model
        // gives one operand per object per task).
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

struct PropertyCase
{
    std::uint64_t seed;
    unsigned tasks;
    unsigned objects;
    unsigned maxOps;
    unsigned numTrs;
    unsigned numOrt;
    unsigned cores;
    Bytes trsKb;
    bool chaining;
    bool rename;
};

class PipelineProperty : public ::testing::TestWithParam<PropertyCase>
{
};

TEST_P(PipelineProperty, CompletesCorrectlyWithoutLeaks)
{
    const PropertyCase &pc = GetParam();
    TaskTrace trace =
        randomTrace(pc.seed, pc.tasks, pc.objects, pc.maxOps);

    PipelineConfig cfg;
    cfg.numTrs = pc.numTrs;
    cfg.numOrt = pc.numOrt;
    cfg.numCores = pc.cores;
    cfg.trsTotalBytes = pc.trsKb * 1024;
    cfg.ortTotalBytes = 64 * 1024;
    cfg.ovtTotalBytes = 64 * 1024;
    cfg.consumerChaining = pc.chaining;
    cfg.renameOutputs = pc.rename;

    auto pipe = SystemBuilder(cfg, trace).build();
    RunResult result = pipe->run(2'000'000'000);

    // (a) completion.
    ASSERT_EQ(result.numTasks, trace.size());
    ASSERT_EQ(pipe->frontendStats().tasksFinished.value(),
              trace.size());

    // (b) schedule validity. Without renaming the pipeline enforces
    // strictly more ordering, so the renamed graph stays the
    // reference in both modes.
    DepGraph graph = DepGraph::build(trace, Semantics::Renamed);
    EXPECT_TRUE(graph.isTopologicalOrder(result.startOrder));
    if (!pc.rename) {
        DepGraph seq = DepGraph::build(trace, Semantics::Sequential);
        EXPECT_TRUE(seq.isTopologicalOrder(result.startOrder));
    }

    // (c) no leaks: blocks, slots, versions, rename buffers.
    for (unsigned i = 0; i < cfg.numTrs; ++i) {
        EXPECT_EQ(pipe->trs(i).freeBlocks(), cfg.blocksPerTrs());
        EXPECT_EQ(pipe->trs(i).liveSlots(), 0u);
    }
    for (unsigned i = 0; i < cfg.numOrt; ++i) {
        EXPECT_EQ(pipe->ovt(i).liveVersions(), 0u);
        EXPECT_EQ(pipe->ovt(i).liveRenameBuffers(), 0u);
        EXPECT_EQ(pipe->ort(i).freeVersionSlots(), cfg.slotsPerOvt());
    }

    // (d) window bound: tasks in flight never exceed block capacity.
    EXPECT_LE(result.metrics.gauge("frontend.tasks_in_flight_peak"),
              static_cast<double>(cfg.numTrs) * cfg.blocksPerTrs());
}

TEST_P(PipelineProperty, SoftwareRuntimeAgreesOnSemantics)
{
    const PropertyCase &pc = GetParam();
    TaskTrace trace =
        randomTrace(pc.seed ^ 0xabcdef, pc.tasks / 2 + 1, pc.objects,
                    pc.maxOps);
    SwRuntimeConfig cfg;
    cfg.numCores = pc.cores;
    SoftwareRuntime runtime(cfg, trace);
    SwRunResult result = runtime.run();
    ASSERT_EQ(result.numTasks, trace.size());
    DepGraph graph = DepGraph::build(trace, Semantics::Renamed);
    EXPECT_TRUE(graph.isTopologicalOrder(result.startOrder));
}

std::vector<PropertyCase>
propertyCases()
{
    std::vector<PropertyCase> cases;
    // Sweep seeds with assorted shapes; a few adversarial configs:
    // single TRS/ORT (full serialization), tiny windows, chaining
    // and renaming ablations.
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        cases.push_back({seed, 300, 24, 6, 4, 2, 16, 256,
                         true, true});
    }
    cases.push_back({11, 200, 8, 4, 1, 1, 4, 64, true, true});
    cases.push_back({12, 200, 8, 4, 1, 1, 4, 64, false, true});
    cases.push_back({13, 200, 8, 4, 2, 2, 8, 32, true, false});
    cases.push_back({14, 200, 8, 4, 2, 2, 8, 32, false, false});
    cases.push_back({15, 400, 4, 3, 8, 4, 64, 512, true, true});
    cases.push_back({16, 400, 120, 19, 8, 4, 64, 512, true, true});
    cases.push_back({17, 150, 2, 2, 2, 1, 2, 16, true, true});
    cases.push_back({18, 600, 60, 10, 4, 2, 32, 128, false, true});
    return cases;
}

INSTANTIATE_TEST_SUITE_P(RandomStreams, PipelineProperty,
                         ::testing::ValuesIn(propertyCases()));

} // namespace
} // namespace tss
