/**
 * @file
 * Shared experiment entry points used by the bench harness, examples
 * and tests: run a trace through the hardware pipeline or the
 * software runtime and collect uniform results.
 */

#ifndef TSS_DRIVER_EXPERIMENT_HH
#define TSS_DRIVER_EXPERIMENT_HH

#include <string>

#include "core/config.hh"
#include "core/system.hh"
#include "driver/cli.hh"
#include "driver/run_options.hh"
#include "swruntime/sw_runtime.hh"
#include "trace/relocate.hh"
#include "trace/task_trace.hh"
#include "workload/starss_programs.hh"
#include "workload/workload.hh"

namespace tss
{

/** Run @p trace through a freshly built task superscalar system. */
RunResult runHardware(const PipelineConfig &config,
                      const TaskTrace &trace);

/**
 * Run @p trace with @p num_threads task-generating threads assigned
 * round-robin (task t emitted by thread t % num_threads) — the
 * shared-data multi-pipeline configuration: threads need not own
 * disjoint objects, the sharded directory orders shared accesses.
 */
RunResult runHardwareThreads(const PipelineConfig &config,
                             const TaskTrace &trace,
                             unsigned num_threads);

/** Run @p trace through the software-runtime baseline. */
SwRunResult runSoftware(const SwRuntimeConfig &config,
                        const TaskTrace &trace);

/**
 * The paper's evaluation configuration (section VI-A conclusion):
 * 8 TRSs, 2 ORT/OVT pairs, 512 KB of ORT storage, 6 MB of TRS
 * storage, driving @p cores worker cores.
 */
PipelineConfig paperConfig(unsigned cores = 256);

/**
 * Generate the named benchmark at @p scale (1.0 = paper-sized window
 * pressure, tens of thousands of tasks). Calls fatal() for unknown
 * names.
 */
TaskTrace makeWorkload(const std::string &name, double scale,
                       std::uint64_t seed = 1);

/**
 * One real-execution measurement: the simulated speedup of the
 * pipeline's schedule side by side with the wall-clock speedup of
 * actually running the kernels on a thread pool.
 */
struct RealExecResult
{
    unsigned threads = 0;
    double seqSeconds = 0;    ///< sequential real execution
    double parSeconds = 0;    ///< graph-mode parallel execution
    double wallSpeedup = 0;   ///< seqSeconds / parSeconds
    double simSpeedup = 0;    ///< simulated, same core count
    std::size_t versions = 0; ///< rename buffers used
    std::uint64_t steals = 0; ///< work-stealing deque steals
    bool bitIdentical = false; ///< parallel memory == sequential
};

/**
 * Really execute the real-kernel program @p info at @p seed: once
 * sequentially (wall-clock reference), once in graph mode on
 * @p threads, and once through the simulated pipeline with
 * @p threads cores — so callers can report measured wall-clock
 * speedup next to the simulator's predicted speedup. The simulated
 * run uses the program's *relocated* trace (see trace/relocate.hh),
 * so simSpeedup is deterministic across runs and machines. Fresh program
 * instances are built per execution; `bitIdentical` reports the
 * differential check.
 *
 * A sequential run always happens (it produces the reference
 * snapshot), but when @p seq_seconds_baseline > 0 that value is used
 * as `seqSeconds` for the speedup instead of the fresh measurement —
 * callers comparing several thread counts should measure one stable
 * baseline (e.g. best of N) and pass it to every call, so all rows
 * share a reference (see bench/parallel_exec.cpp).
 */
RealExecResult runParallelReal(const starss::RealProgramInfo &info,
                               std::uint64_t seed, unsigned threads,
                               double seq_seconds_baseline = 0);

} // namespace tss

#endif // TSS_DRIVER_EXPERIMENT_HH
