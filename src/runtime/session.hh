/**
 * @file
 * Session: the one submission lifecycle shared by batch drivers, the
 * benches and the tss-serve daemon.
 *
 * A Session moves through an explicit state machine:
 *
 *     open --submit()/addKernel()/registerRegion()--> open
 *     open --seal()--> sealed --run or simulate (any number)--> sealed
 *
 * Submitting after seal() or running before it calls fatal(): the
 * contract is that a sealed session is an immutable task program with
 * a fixed relocated image, so every consumer (the simulator, the real
 * executors, the serving pipeline) sees the same frozen stream — no
 * helper has to reach into TaskContext internals or re-derive the
 * relocation on its own.
 *
 * Two backings cover both worlds:
 *
 *  - **Context-backed** (default, and the adopting constructor): wraps
 *    a starss::TaskContext. Tasks are submitted as real kernels over
 *    real memory; after seal() the session can simulate, run
 *    sequentially, or run on the parallel executor. Batch drivers
 *    (driver/experiment.hh runParallelReal) use this.
 *  - **Trace-backed** (`Session::forTrace`): tasks arrive as trace
 *    records with no kernel functions attached — the tss-serve wire
 *    path, where clients stream serialized task programs. Only
 *    simulation is possible; runSequential()/runParallel() fatal().
 *
 * seal(opts) computes the relocated trace once, with the given
 * RelocationOptions — the serving layer passes a per-tenant
 * targetBase so every tenant's program lands in a disjoint carve of
 * the synthetic address space (see serve/service.hh).
 */

#ifndef TSS_RUNTIME_SESSION_HH
#define TSS_RUNTIME_SESSION_HH

#include <memory>
#include <string>
#include <vector>

#include "core/system.hh"
#include "runtime/starss.hh"
#include "trace/relocate.hh"
#include "trace/task_trace.hh"

namespace tss
{

/**
 * Outcome of Session::simulate: the liveness verdict plus, on
 * completion, the full RunResult (its metrics snapshot included) and
 * the optional Chrome trace. A wedge does not kill the process:
 * `completed == false` with `liveness.wedged == true` carries the
 * diagnosis (occupancy, the culprit operand, the flight-recorder
 * tail) back to the caller — tss-serve turns this into a job report
 * instead of dying.
 */
struct SimReport
{
    bool completed = false;
    LivenessReport liveness;
    RunResult result;      ///< valid only when completed
    std::string traceJson; ///< Chrome JSON when tracing was Full
};

/** One task-program submission lifecycle; see the file comment. */
class Session
{
  public:
    /** Open a context-backed session owning a fresh TaskContext. */
    explicit Session(std::string session_name = "session");

    /**
     * Open a context-backed session over an existing context (e.g. a
     * starss::RealProgram's). Non-owning: @p context must outlive the
     * session. Tasks already spawned count as submitted.
     */
    explicit Session(starss::TaskContext &context,
                     std::string session_name = "session");

    /** Open a trace-backed session (no kernel functions; sim only). */
    static Session forTrace(std::string session_name = "session");

    Session(Session &&) = default;
    Session &operator=(Session &&) = default;

    const std::string &name() const { return sessionName; }
    bool sealed() const { return isSealed; }
    std::size_t numTasks() const;

    /// @name Open-state operations; fatal() once sealed.
    /// @{

    /** Register a kernel (context-backed). */
    starss::KernelId addKernel(std::string kernel_name,
                               starss::KernelFn fn,
                               double default_runtime_us = 10.0);

    /** Register a relocatable memory region (context-backed). */
    void registerRegion(const void *ptr, std::size_t bytes);

    /** Submit one task of @p kernel over @p params (context-backed). */
    void submit(starss::KernelId kernel,
                const std::vector<starss::Param> &params,
                double runtime_us = -1.0);

    /** Declare a kernel name, returning its id (trace-backed). */
    std::uint32_t declareKernel(std::string kernel_name);

    /** Submit one trace-record task (trace-backed). */
    void submitTask(std::uint32_t kernel, Cycle runtime,
                    std::vector<TraceOperand> operands);

    /**
     * Submit every task of @p program (trace-backed): kernel names
     * merge into this session's kernel table, tasks append in order.
     * The serving parse stage feeds deserialized submissions here.
     */
    void submitTrace(const TaskTrace &program);

    /**
     * Seal the session: the program is frozen and its relocated image
     * is computed once under @p opts (per-tenant carving passes a
     * dedicated targetBase). Idempotent operations end here — any
     * further submit fatal()s.
     */
    void seal(const RelocationOptions &opts = {});
    /// @}

    /// @name Sealed-state operations; fatal() before seal().
    /// @{

    /** The captured task stream (original addresses). */
    const TaskTrace &trace() const;

    /** The relocated image computed at seal(). */
    const TaskTrace &relocatedTrace() const;

    /**
     * The relocation decisions behind relocatedTrace() — trace-backed
     * sessions only (context-backed relocation lives inside
     * TaskContext); null otherwise. The serving admit stage checks
     * region extents against the tenant carve with this.
     */
    const RelocationMap *relocationMap() const;

    /**
     * Simulate the sealed program's relocated image on a task
     * superscalar machine built from @p cfg, with @p gen_threads
     * generating threads (round-robin task assignment). A wedge or
     * an exhausted @p max_events budget does not fatal(): the
     * SimReport carries the liveness verdict, and (when
     * cfg.traceMode is Full) the Chrome trace. Configured
     * --trace-out/--metrics-out files are still written.
     */
    SimReport simulate(const PipelineConfig &cfg, unsigned gen_threads = 1,
                       std::uint64_t max_events = ~std::uint64_t(0)) const;

    /** Execute sequentially in program order (context-backed). */
    void runSequential();

    /**
     * Execute on the real thread-pool executor, graph mode
     * (context-backed). @p n_threads == 0 uses hardware concurrency.
     */
    starss::ParallelRunStats runParallel(unsigned n_threads);
    /// @}

    /**
     * The underlying context (context-backed; fatal() otherwise).
     * Escape hatch for executor plumbing that predates Session;
     * new code should go through the lifecycle methods.
     */
    starss::TaskContext &context();

  private:
    void requireOpen(const char *op) const;
    void requireSealed(const char *op) const;
    void requireContext(const char *op) const;
    void requireTraceBacked(const char *op) const;

    std::string sessionName;
    bool isSealed = false;

    /// Context backing: owned (heap, movable) or adopted.
    std::unique_ptr<starss::TaskContext> ownedCtx;
    starss::TaskContext *ctx = nullptr;

    /// Trace backing.
    bool traceBacked = false;
    TaskTrace directTrace;

    /// Computed at seal().
    TaskTrace relocated;
    std::unique_ptr<RelocationMap> map; ///< trace-backed only
};

} // namespace tss

#endif // TSS_RUNTIME_SESSION_HH
