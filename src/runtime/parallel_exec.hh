/**
 * @file
 * Real execution of a captured task program: the ParallelExecutor
 * runs its kernels on real threads against a RenameStore
 * (per-version rename buffers, the OVT's renaming in software), in
 * one of two drive modes:
 *
 *  - **Graph mode** (`runGraph`): dataflow execution "as fast as the
 *    hardware allows". Atomic dependence counters over the renamed
 *    DepGraph release tasks the instant their last predecessor
 *    finishes; each worker owns a Chase–Lev work-stealing deque
 *    (lock-free LIFO for the owner, FIFO for thieves), so newly
 *    enabled tasks run hot in cache and idle workers steal from the
 *    opposite end.
 *
 *  - **Replay mode** (`runReplay`): execute a *simulated* scheduling
 *    decision for real. Given the RunResult of a System run (start
 *    order + per-task core assignment), one thread per simulated core
 *    executes exactly the tasks the simulator dispatched to that
 *    core, in dispatch order, waiting on the same dependence
 *    counters. A pipeline decision can thus be validated bit-for-bit
 *    against sequential execution on real hardware parallelism. With
 *    oneCoreSchedule() it executes any order one task at a time.
 *
 * Both modes produce final program memory bit-identical to
 * `TaskContext::runSequential()`: the renamed graph orders every pair
 * of tasks that touch the same version, and each rename buffer has
 * exactly one writer (see rename_store.hh).
 */

#ifndef TSS_RUNTIME_PARALLEL_EXEC_HH
#define TSS_RUNTIME_PARALLEL_EXEC_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "core/system.hh"
#include "graph/dep_graph.hh"
#include "runtime/starss.hh"

namespace tss::starss
{

class RenameStore;

/** Outcome of one real parallel execution. */
struct ParallelRunStats
{
    unsigned threads = 0;       ///< worker threads actually spawned
    std::size_t versions = 0;   ///< rename buffers used
    std::uint64_t steals = 0;   ///< successful deque steals (graph mode)
    double wallSeconds = 0;     ///< execution wall-clock time
};

/**
 * The schedule that runs @p order on one core: runReplay() of it
 * executes the tasks one at a time, in @p order.
 */
RunResult oneCoreSchedule(std::vector<std::uint32_t> order);

/** Executes a captured task program on a real thread pool. */
class ParallelExecutor
{
  public:
    explicit ParallelExecutor(TaskContext &context);

    /**
     * Graph mode: run every task once, scheduled by atomic dependence
     * counters over the renamed graph with per-worker work-stealing
     * deques. @p n_threads == 0 uses the hardware concurrency. On
     * return all program memory holds the final results.
     */
    ParallelRunStats runGraph(unsigned n_threads);

    /**
     * Replay mode: obey the dispatch order and core assignment of a
     * simulated run (one thread per simulated core that executed at
     * least one task). @p schedule must come from a System run of
     * this context's trace — or of a structurally identical trace
     * (same kernels/operand pattern over different memory); verified
     * against the renamed graph, fatal() on violation.
     */
    ParallelRunStats runReplay(const RunResult &schedule);

  private:
    /**
     * Shared drive scaffolding of both modes: spawn one thread per
     * body, join them all, copy the final versions back, and time
     * the whole execution.
     */
    ParallelRunStats
    runThreads(RenameStore &store,
               std::vector<std::function<void()>> bodies);

    TaskContext &ctx;
    DepGraph graph;
};

} // namespace tss::starss

#endif // TSS_RUNTIME_PARALLEL_EXEC_HH
