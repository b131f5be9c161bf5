/**
 * @file
 * Quickstart: generate a blocked-Cholesky task trace, run it through
 * a task superscalar multiprocessor with 64 cores, and print the
 * headline numbers. Start here.
 */

#include <iostream>

#include "core/system.hh"
#include "graph/dataflow_limit.hh"
#include "graph/dep_graph.hh"
#include "runtime/parallel_exec.hh"
#include "workload/starss_programs.hh"
#include "workload/workload.hh"

int
main()
{
    // 1. A task trace: the stream a sequential task-generating
    //    thread would emit. Here: 16x16-block Cholesky (Figure 4's
    //    loop nest), 16 KB blocks, ~800 tasks.
    tss::TaskTrace trace = tss::genCholeskyBlocked(16);
    std::cout << "trace: " << trace.name << ", " << trace.size()
              << " tasks, sequential time "
              << tss::defaultClock.cyclesToUs(trace.sequentialCycles())
              << " us\n";

    // 2. What's theoretically available? The renamed dependency graph
    //    and its dataflow limit.
    tss::DepGraph graph = tss::DepGraph::build(trace);
    tss::DataflowSchedule limit =
        tss::computeDataflowLimit(trace, graph);
    std::cout << "dependency graph: " << graph.numEdges()
              << " edges, available parallelism "
              << limit.parallelism() << "\n";

    // 3. Build the system: frontend (gateway, TRSs, ORT/OVT pairs),
    //    backend (scheduler + cores), two-level ring NoC.
    tss::PipelineConfig cfg;
    cfg.numCores = 64;
    auto pipeline = tss::SystemBuilder(cfg, trace).build();

    // 4. Run to completion.
    tss::RunResult result = pipeline->run();
    std::cout << "speedup over sequential: " << result.speedup
              << "x on " << cfg.numCores << " cores\n"
              << "task decode rate: " << result.decodeRateNs
              << " ns/task\n"
              << "task window occupancy: "
              << result.metrics.gauge("frontend.tasks_in_flight_avg")
              << " tasks (peak "
              << result.metrics.gauge("frontend.tasks_in_flight_peak")
              << ")\n";

    // 5. The execution order the pipeline chose is a legal
    //    topological order of the dependency graph.
    bool valid = graph.isTopologicalOrder(result.startOrder);
    std::cout << "execution order respects all dependencies: "
              << (valid ? "yes" : "NO (bug!)") << "\n";

    // 6. Simulation is one half of the story — the same programming
    //    model executes for real. A blocked Cholesky with actual
    //    float kernels, run sequentially, then dataflow-parallel on a
    //    work-stealing thread pool: bit-identical results.
    auto sequential = tss::starss::makeCholeskyProgram(1);
    sequential->context().runSequential();

    auto parallel = tss::starss::makeCholeskyProgram(1);
    tss::starss::ParallelRunStats par =
        parallel->context().runParallel(4);
    bool exact = parallel->snapshot() == sequential->snapshot();
    std::cout << "real execution on " << par.threads << " threads ("
              << parallel->context().numTasks() << " tasks, "
              << par.versions << " rename buffers): "
              << (exact ? "bit-identical to sequential"
                        : "MISMATCH (bug!)") << "\n";
    return valid && exact ? 0 : 1;
}
