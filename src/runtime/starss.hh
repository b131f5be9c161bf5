/**
 * @file
 * A StarSs-like task-based dataflow programming model (paper section
 * III-C). Users register kernel functions with annotated operand
 * directionality and spawn tasks from a sequential thread; the
 * runtime captures the task stream as a TaskTrace and can execute it
 * for real — sequentially, or out-of-order with true memory renaming
 * via the ParallelExecutor. The simulated pipeline sees a program
 * only as its relocated trace (relocatedTrace()), the one seam
 * between real programs and the simulator.
 *
 * Example (blocked matrix multiply):
 * @code
 *   tss::starss::TaskContext ctx;
 *   auto gemm = ctx.addKernel("gemm", [&](tss::starss::Buffers &b) {
 *       multiplyBlock(b.as<float>(0), b.as<float>(1), b.as<float>(2));
 *   });
 *   ctx.spawn(gemm, {tss::starss::in(a, bytes),
 *                    tss::starss::in(bb, bytes),
 *                    tss::starss::inout(c, bytes)}, 23.0);
 * @endcode
 */

#ifndef TSS_RUNTIME_STARSS_HH
#define TSS_RUNTIME_STARSS_HH

#include <functional>
#include <string>
#include <vector>

#include "sim/types.hh"
#include "trace/relocate.hh"
#include "trace/task_trace.hh"

namespace tss::starss
{

/** One annotated task parameter. */
struct Param
{
    Dir dir;
    void *ptr;
    Bytes bytes;
};

/** Annotate an input operand (read-only memory object). */
inline Param
in(const void *ptr, Bytes bytes)
{
    return Param{Dir::In, const_cast<void *>(ptr), bytes};
}

/** Annotate an output operand (renamed by the pipeline). */
inline Param
out(void *ptr, Bytes bytes)
{
    return Param{Dir::Out, ptr, bytes};
}

/** Annotate a bidirectional operand (true dependency, in-place). */
inline Param
inout(void *ptr, Bytes bytes)
{
    return Param{Dir::InOut, ptr, bytes};
}

/** Operand buffer views passed to a kernel at execution time. */
class Buffers
{
  public:
    explicit Buffers(std::vector<void *> pointers)
        : ptrs(std::move(pointers))
    {}

    std::size_t size() const { return ptrs.size(); }
    void *raw(std::size_t i) const { return ptrs[i]; }

    /** Typed view of operand @p i. */
    template <typename T>
    T *
    as(std::size_t i) const
    {
        return static_cast<T *>(ptrs[i]);
    }

  private:
    std::vector<void *> ptrs;
};

/** Kernel body: receives one buffer view per operand. */
using KernelFn = std::function<void(Buffers &)>;

struct ParallelRunStats; // runtime/parallel_exec.hh

/** Handle to a registered kernel. */
using KernelId = std::uint32_t;

/**
 * The task-generating context: registers kernels, records spawned
 * tasks (capturing the trace for simulation), and retains everything
 * needed to execute the program for real.
 */
class TaskContext
{
  public:
    TaskContext();

    /** Register a kernel; @p default_runtime_us models its cost. */
    KernelId addKernel(std::string name, KernelFn fn,
                       double default_runtime_us = 10.0);

    /**
     * Spawn a task of @p kernel over @p params. The spawn order is
     * the sequential program order; @p runtime_us overrides the
     * kernel's default runtime estimate when positive.
     */
    void spawn(KernelId kernel, const std::vector<Param> &params,
               double runtime_us = -1.0);

    /** The captured task stream (addresses are real pointers). */
    const TaskTrace &trace() const { return _trace; }

    std::size_t numTasks() const { return _trace.size(); }

    /// @name Capture-side region registry (trace/relocate.hh).
    /// Real programs register their memory objects, so the captured
    /// program can be rebased onto the synthetic AddressSpace exactly,
    /// independent of where the host allocator placed the regions.
    /// Each memory operand resolves to the one registered region that
    /// contains it when the trace is relocated, so registration order
    /// relative to spawn() does not matter.
    /// @{

    /** Register @p bytes at @p ptr as one relocatable memory region. */
    void registerRegion(const void *ptr, std::size_t bytes);

    /** All registered regions, in registration order. */
    const std::vector<MemRegion> &regions() const { return _regions; }

    /**
     * The captured trace rebased onto the synthetic address space
     * (deterministic operand addresses; aliasing preserved exactly):
     * relocateTrace() over the registered regions, or by region
     * inference when none are registered. The *real* trace()/params
     * stay untouched — execution always runs on the real pointers.
     */
    TaskTrace relocatedTrace(const RelocationOptions &opts = {}) const;
    /// @}

    /** Execute all tasks sequentially, in program order (reference). */
    void runSequential();

    /**
     * Execute all tasks on a real thread pool, scheduled dataflow-
     * style over the renamed dependency graph (graph mode of
     * runtime/parallel_exec.hh). @p n_threads == 0 uses the hardware
     * concurrency. Results are bit-identical to runSequential().
     */
    ParallelRunStats runParallel(unsigned n_threads = 0);

    /// @name Executor access.
    /// @{
    const KernelFn &kernelFn(KernelId id) const { return kernels[id]; }
    const std::vector<Param> &taskParams(std::uint32_t task) const
    {
        return params[task];
    }
    /// @}

  private:
    TaskTrace _trace;
    std::vector<KernelFn> kernels;
    std::vector<double> kernelRuntimes;
    std::vector<std::vector<Param>> params;
    std::vector<MemRegion> _regions; ///< registration order
};

} // namespace tss::starss

#endif // TSS_RUNTIME_STARSS_HH
