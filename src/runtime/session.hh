/**
 * @file
 * Session: the trace lifecycle at the one seam between task programs
 * and the simulator. A program reaches the simulated machine only as
 * its relocated trace; a Session freezes that trace once and hands it
 * to every consumer (tss-serve's admit and execute stages, the
 * benches).
 *
 * A Session moves through an explicit state machine:
 *
 *     forTrace() --> open --submitTrace()--> open
 *     open --seal()--> sealed --relocatedTrace()/relocationMap()/
 *         simulate() (any number)--> sealed
 *
 * Submitting after seal() or reading before it calls fatal(): a
 * sealed session is an immutable task program with a fixed relocated
 * image, so every consumer sees the same frozen stream.
 *
 * seal(opts) computes the relocated trace once, with the given
 * RelocationOptions — the serving layer passes a per-tenant
 * targetBase so every tenant's program lands in a disjoint carve of
 * the synthetic address space (see serve/service.hh).
 *
 * Real-kernel programs run on starss::TaskContext directly: it
 * executes them for real and produces their relocated trace
 * (TaskContext::relocatedTrace), which is what a simulation consumes.
 */

#ifndef TSS_RUNTIME_SESSION_HH
#define TSS_RUNTIME_SESSION_HH

#include <string>

#include "core/system.hh"
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

/** One task-program trace lifecycle; see the file comment. */
class Session
{
  public:
    /** Open an empty session. */
    static Session forTrace(std::string session_name = "session");

    Session(Session &&) = default;
    Session &operator=(Session &&) = default;

    /**
     * Submit every task of @p submitted: kernel names merge into this
     * session's kernel table, tasks append in order. The serving
     * parse stage feeds deserialized submissions here. fatal() once
     * sealed.
     */
    void submitTrace(const TaskTrace &submitted);

    /**
     * Seal the session: the program is frozen and its relocated image
     * is computed once under @p opts (per-tenant carving passes a
     * dedicated targetBase).
     */
    void seal(const RelocationOptions &opts = {});

    /// @name Sealed-state operations; fatal() before seal().
    /// @{

    /** The relocated image computed at seal(). */
    const TaskTrace &relocatedTrace() const;

    /**
     * The relocation decisions behind relocatedTrace(). The serving
     * admit stage checks region extents against the tenant carve with
     * this.
     */
    const RelocationMap &relocationMap() const;

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
    /// @}

  private:
    explicit Session(std::string session_name);

    void requireOpen(const char *op) const;
    void requireSealed(const char *op) const;

    std::string sessionName;
    bool isSealed = false;
    TaskTrace program;

    /// Computed at seal().
    RelocationMap map;
    TaskTrace relocated;
};

} // namespace tss

#endif // TSS_RUNTIME_SESSION_HH
