/**
 * @file
 * Regression tests pinning the paper's headline claims at reduced
 * scale, so refactoring cannot silently break the reproduction:
 * decode-rate targets, pipeline-vs-software ordering, storage
 * micro-properties, and the heterogeneous-backend extension.
 */

#include <gtest/gtest.h>

#include "core/system.hh"
#include "graph/dep_graph.hh"
#include "driver/experiment.hh"
#include "swruntime/sw_runtime.hh"
#include "trace/trace_stats.hh"

namespace tss
{
namespace
{

/** Paper config with oversized storage (decode-capability probe). */
PipelineConfig
probeConfig(unsigned trss, unsigned orts)
{
    PipelineConfig cfg = paperConfig(256);
    cfg.numTrs = trss;
    cfg.numOrt = orts;
    cfg.trsTotalBytes = 24u * 1024 * 1024;
    cfg.ortTotalBytes = 4u * 1024 * 1024;
    cfg.ovtTotalBytes = 4u * 1024 * 1024;
    return cfg;
}

TEST(PaperClaims, EightTrsTwoOrtSustains256Processors)
{
    // Section VI-A: 8 TRSs and 2 ORTs/OVTs suffice for a 256-way
    // CMP, i.e. the average decode rate beats 58 ns/task ~ 185 cy.
    double sum = 0;
    unsigned count = 0;
    for (const auto &info : allWorkloads()) {
        WorkloadParams params;
        params.scale = 0.05;
        TaskTrace trace = info.generate(params);
        RunResult r = runHardware(probeConfig(8, 2), trace);
        sum += r.decodeRateCycles;
        ++count;
    }
    EXPECT_LT(sum / count, 185.0);
}

TEST(PaperClaims, PipelineParallelismSpeedsUpDecode)
{
    // Figure 12/13 shape: single TRS is the serial worst case; more
    // TRSs help even with one ORT; ORTs alone do not help.
    TaskTrace trace = genCholeskyBlocked(18, 16 * 1024, 1);
    double one_one =
        runHardware(probeConfig(1, 1), trace).decodeRateCycles;
    double one_trs_many_ort =
        runHardware(probeConfig(1, 8), trace).decodeRateCycles;
    double many_trs_one_ort =
        runHardware(probeConfig(8, 1), trace).decodeRateCycles;
    double many_many =
        runHardware(probeConfig(8, 4), trace).decodeRateCycles;

    EXPECT_NEAR(one_trs_many_ort, one_one, one_one * 0.1)
        << "ORT replication must not help with a single TRS";
    EXPECT_LT(many_trs_one_ort, one_one * 0.7)
        << "TRS replication must help even with a single ORT";
    EXPECT_LT(many_many, many_trs_one_ort)
        << "full parallelism must be fastest";
}

TEST(PaperClaims, HardwareOutscalesSoftwareOnShortTasks)
{
    // Figure 16: at 128+ cores the pipeline beats the 700 ns/task
    // software decoder for short-task benchmarks.
    TaskTrace trace = makeWorkload("Cholesky", 0.1);
    PipelineConfig hw_cfg = paperConfig(128);
    RunResult hw = runHardware(hw_cfg, trace);
    SwRuntimeConfig sw_cfg;
    sw_cfg.numCores = 128;
    SwRunResult sw = runSoftware(sw_cfg, trace);
    EXPECT_GT(hw.speedup, sw.speedup * 1.5);
}

TEST(PaperClaims, SoftwareDecodeSaturatesAtTaskRuntimeOverDecode)
{
    // Section II: software saturates near T_avg / 700 ns.
    TaskTrace trace = makeWorkload("PBPI", 0.05);
    TraceStats stats = TraceStats::compute(trace);
    SwRuntimeConfig cfg;
    cfg.numCores = 256;
    SwRunResult sw = runSoftware(cfg, trace);
    double bound = stats.avgRuntimeUs * 1000.0 / 700.0;
    EXPECT_LT(sw.speedup, bound * 1.1);
    EXPECT_GT(sw.speedup, bound * 0.7);
}

TEST(PaperClaims, StorageMicroProperties)
{
    // Section IV-B: ~20% TRS fragmentation; 1-cycle allocations.
    TaskTrace trace = makeWorkload("Cholesky", 0.1);
    RunResult r = runHardware(paperConfig(64), trace);
    EXPECT_NEAR(r.metrics.gauge("frontend.fragmentation_mean"), 0.20,
                0.08);
    EXPECT_GT(r.metrics.gauge("frontend.sram_hit_rate"), 0.95);
    // Cholesky never renames (all writers are inout).
    EXPECT_EQ(r.metrics.counter("frontend.versions_renamed"), 0u);
}

TEST(PaperClaims, WindowScalesWithTrsCapacity)
{
    // Figure 15's mechanism: larger TRS storage -> larger window ->
    // more uncovered parallelism on a window-hungry workload.
    TaskTrace trace = genH264Grid(30, 20, 8, 1);
    PipelineConfig small = paperConfig(256);
    small.trsTotalBytes = 256 * 1024;
    PipelineConfig large = paperConfig(256);
    large.trsTotalBytes = 6 * 1024 * 1024;
    RunResult r_small = runHardware(small, trace);
    RunResult r_large = runHardware(large, trace);
    const char *peak = "frontend.tasks_in_flight_peak";
    EXPECT_GT(r_large.metrics.gauge(peak),
              2.0 * r_small.metrics.gauge(peak));
    EXPECT_GT(r_large.speedup, r_small.speedup * 1.3);
}

TEST(PaperClaims, HeterogeneousBackendExtension)
{
    // Future-work extension: cores as heterogeneous functional
    // units. Half-speed little cores degrade throughput gracefully
    // and the frontend needs no changes.
    TaskTrace trace = makeWorkload("MatMul", 0.05);

    PipelineConfig homo = paperConfig(64);
    RunResult r_homo = runHardware(homo, trace);

    PipelineConfig hetero = paperConfig(64);
    hetero.numBigCores = 32;
    hetero.littleSpeedFactor = 0.5;
    RunResult r_hetero = runHardware(hetero, trace);

    PipelineConfig all_little = paperConfig(64);
    all_little.numBigCores = 0;
    all_little.littleSpeedFactor = 0.5;
    RunResult r_little = runHardware(all_little, trace);

    // 32 big + 32 half-speed cores ~ 48 nominal cores.
    EXPECT_LT(r_hetero.speedup, r_homo.speedup);
    EXPECT_GT(r_hetero.speedup, r_little.speedup);
    EXPECT_NEAR(r_little.speedup, r_homo.speedup / 2.0,
                r_homo.speedup * 0.12);

    DepGraph graph = DepGraph::build(trace, Semantics::Renamed);
    EXPECT_TRUE(graph.isTopologicalOrder(r_hetero.startOrder));
}

} // namespace
} // namespace tss
