/**
 * @file
 * The composed task superscalar system. SystemBuilder assembles any
 * number of frontend pipelines (gateway + TRSs + ORT/OVT pairs, paper
 * section III-B's multi-threaded generation) plus the shared backend
 * (scheduler, worker cores), the two-level ring NoC and the
 * task-generating threads, all from a PipelineConfig. The pipelines'
 * ORT/OVT pairs form one address-interleaved global directory
 * (PipelineConfig::shardOf), so generating threads may share data:
 * dependence and rename traffic then crosses pipelines over the ring,
 * with per-object program order enforced by the ticket protocol (see
 * core/protocol.hh). System owns the assembled machine and runs
 * traces to completion.
 */

#ifndef TSS_CORE_SYSTEM_HH
#define TSS_CORE_SYSTEM_HH

#include <memory>
#include <vector>

#include "backend/scheduler.hh"
#include "backend/worker.hh"
#include "core/config.hh"
#include "core/gateway.hh"
#include "core/ort.hh"
#include "core/ovt.hh"
#include "core/task_source.hh"
#include "core/trs.hh"
#include "mem/dma_engine.hh"
#include "noc/topology.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/sim_engine.hh"

namespace tss
{

/**
 * Results of one simulated run: what only the per-task records give
 * (the makespan, the decode rate and the schedule), plus the metrics
 * registry polled once when the run completed. Every other statistic
 * is a named metric of `metrics` (System::buildMetrics binds them).
 */
struct RunResult
{
    std::size_t numTasks = 0;
    Cycle makespan = 0;       ///< last task finish time
    Cycle sequential = 0;     ///< sum of task runtimes
    double speedup = 0;

    /// Average cycles between successive additions to the task graph
    /// (the paper's decode-rate metric, Figures 12/13).
    double decodeRateCycles = 0;
    double decodeRateNs = 0;

    /** Trace indices ordered by execution start time. */
    std::vector<std::uint32_t> startOrder;

    /**
     * Worker core that executed each task, indexed by trace index.
     * Together with startOrder this is the complete scheduling
     * decision of the run — the ParallelExecutor's replay mode obeys
     * it on real threads (see runtime/parallel_exec.hh).
     */
    std::vector<unsigned> coreOf;

    /** Every registry metric, polled by System::collectResult(). */
    obs::Snapshot metrics;

    /** The same schedule and the same metrics: the same simulation. */
    bool operator==(const RunResult &) const = default;
};

/**
 * True when no memory object is touched by tasks of two different
 * threads — the paper's data-partitioning requirement for multiple
 * task-generating threads (section III-B). The sharded directory
 * lifts the requirement; SystemBuilder now uses this predicate only
 * to decide whether the ordered-admission machinery is needed at all.
 */
bool isDataPartitioned(const TaskTrace &trace,
                       const std::vector<unsigned> &thread_of);

/**
 * Liveness verdict of a watchdog-bounded run: deadlock-hunting tests
 * assert on this instead of hanging (or fatal()ing the process). On a
 * wedge the report names the culprit — per-slice version-slot
 * occupancy plus the machine-oldest parked operand and its owning
 * task — so a capacity wedge is diagnosable from the report alone.
 */
struct LivenessReport
{
    bool completed = false; ///< every task of the trace finished
    /// Event queue drained with tasks unfinished — a true protocol
    /// wedge (a deadlock), as opposed to hitting the event limit.
    bool wedged = false;
    std::size_t tasksFinished = 0;
    std::uint64_t eventsExecuted = 0;

    /** Version-slot occupancy of one directory slice at the wedge. */
    struct SliceOccupancy
    {
        unsigned slice = 0;               ///< global ORT/OVT index
        std::size_t liveVersions = 0;     ///< OVT slots in use
        std::size_t freeVersionSlots = 0; ///< ORT slot credits left
        std::size_t slotParked = 0;       ///< capacity-parked operands
        std::size_t ticketParked = 0;     ///< order-parked operands
    };
    std::vector<SliceOccupancy> slices; ///< filled only when wedged

    /// @name The culprit: the machine-wide oldest parked operand.
    /// @{
    bool hasCulprit = false;
    unsigned culpritSlice = 0;          ///< slice holding the operand
    std::uint32_t culpritTask = 0;      ///< owning task's trace index
    unsigned culpritOperand = 0;        ///< operand index in the task
    std::uint64_t culpritAddr = 0;      ///< object base address
    bool culpritWaitsForSlot = false;   ///< capacity- vs ticket-parked
    /// @}

    /**
     * Chrome JSON of the flight recorder's bounded tail — the last
     * traced cycles leading up to the wedge. Empty when tracing was
     * off or the run completed.
     */
    std::string tailTraceJson;

    /**
     * The report as a JSON object (tss-serve embeds it in the job
     * report instead of killing the process on a wedged tenant).
     */
    std::string toJson() const;
};

/**
 * A complete simulated task superscalar machine: one or more frontend
 * pipelines over a shared backend. Build instances with
 * SystemBuilder.
 */
class System
{
  public:
    /**
     * Run to completion.
     * @param max_events Safety valve against runaway simulations.
     */
    RunResult run(std::uint64_t max_events = ~std::uint64_t(0));

    /**
     * Liveness watchdog: run like run(), but *report* an early end
     * instead of fatal()ing — `wedged` distinguishes a drained event
     * queue (real deadlock) from an exhausted event budget. Call once
     * per System, like run(); on `completed` the machine has run to
     * the same state run() would have produced.
     */
    LivenessReport runWatchdog(std::uint64_t max_events);

    /**
     * Aggregate the RunResult of a *completed* run (every task
     * finished). run() is runWatchdog() + fatal-on-early-end +
     * collectResult(); callers that must survive a wedge (tss-serve)
     * use the watchdog and collect only on completion.
     */
    RunResult collectResult();

    /// @name Shared-infrastructure introspection.
    /// @{
    const PipelineConfig &config() const { return cfg; }

    /**
     * The backend domain's event-queue shard: the dedicated last
     * domain carrying the shared network, DMA and scheduler, so
     * frontend pipeline windows never serialize behind it.
     */
    EventQueue &eventQueue() { return engine->shard(cfg.numPipelines); }

    /** The sharded windowed engine driving this machine. */
    SimEngine &simEngine() { return *engine; }
    TaskRegistry &taskRegistry() { return registry; }
    FrontendStats &frontendStats() { return stats; }
    Scheduler &scheduler() { return *sched; }
    TopologyNetwork &network() { return *net; }
    /// @}

    /// @name Observability.
    /// @{
    /** The flight recorder, or null when cfg.traceMode is Off. */
    obs::Tracer *tracer() { return obsTracer.get(); }

    /** Every counter/gauge/histogram of this machine, bound once. */
    obs::Registry &metricsRegistry() { return metrics; }

    /**
     * Write the trace (cfg.traceOutPath, Full mode) and metrics
     * snapshot (cfg.metricsOutPath) files, if configured. run() calls
     * this; watchdog users call it themselves after the run ends.
     */
    void writeObsOutputs();
    /// @}

    /// @name Per-pipeline and global-index module access. TRS, ORT
    /// and OVT indices are global (the index spaces of TaskId::trs
    /// and VersionRef::ovt): pipeline p owns TRSs
    /// [p*numTrs, (p+1)*numTrs) and ORT/OVT pairs
    /// [p*numOrt, (p+1)*numOrt).
    /// @{
    unsigned numPipelines() const { return cfg.numPipelines; }

    /** True when the generating threads share data (ordered mode). */
    bool sharedData() const { return shared; }
    Gateway &gateway(unsigned pipe = 0) { return *gateways.at(pipe); }
    Trs &trs(unsigned i) { return *trsModules.at(i); }
    Ort &ort(unsigned i) { return *ortModules.at(i); }
    Ovt &ovt(unsigned i) { return *ovtModules.at(i); }
    TaskSource &source(unsigned thread) { return *sources.at(thread); }
    /// @}

  private:
    friend class SystemBuilder;

    /** Bind every metric provider (called once by the builder). */
    void buildMetrics();

    /** @p trs_blocks: the blocks any TRS can hand out (Footprint). */
    System(const PipelineConfig &config, const TaskTrace &task_trace,
           std::uint32_t trs_blocks)
        : cfg(config), trace(task_trace),
          // One domain per pipeline plus the dedicated backend
          // domain (network / DMA / scheduler).
          engine(std::make_unique<SimEngine>(config.numPipelines + 1)),
          registry(task_trace, config.totalTrs(), trs_blocks)
    {}

    PipelineConfig cfg;
    const TaskTrace &trace;
    bool shared = false; ///< threads share data; ordered mode active

    /// One event-queue shard per pipeline NoC domain; declared before
    /// the modules so it outlives every queue reference they hold.
    std::unique_ptr<SimEngine> engine;
    TaskRegistry registry;
    FrontendStats stats;

    std::unique_ptr<TopologyNetwork> net;
    std::unique_ptr<DmaEngine> dma;
    std::vector<std::unique_ptr<Gateway>> gateways;
    std::vector<std::unique_ptr<TaskSource>> sources;
    std::unique_ptr<Scheduler> sched;
    std::vector<std::unique_ptr<Trs>> trsModules;
    std::vector<std::unique_ptr<Ort>> ortModules;
    std::vector<std::unique_ptr<Ovt>> ovtModules;
    std::vector<std::unique_ptr<WorkerCore>> workers;

    std::unique_ptr<obs::Tracer> obsTracer;
    obs::Registry metrics;
};

/**
 * Composes a System from a PipelineConfig: N frontend pipelines
 * become a configuration choice instead of a code change. Generating
 * threads are assigned to pipelines round-robin (thread t feeds
 * pipeline t % numPipelines). Threads may freely share data: the
 * builder detects sharing and switches the machine into ordered mode
 * (object tickets + oldest-first window allocation). Partitioned
 * traces skip that machinery; single-pipeline ones behave
 * bit-for-bit as before the directory was sharded, multi-pipeline
 * ones now route operands through the global directory.
 */
class SystemBuilder
{
  public:
    /** The trace must outlive the built System. */
    SystemBuilder(const PipelineConfig &config,
                  const TaskTrace &task_trace)
        : cfg(config), trace(task_trace)
    {}

    /**
     * Assign every task to a generating thread (paper section III-B).
     * Tasks of one thread are emitted and decoded in their relative
     * program order. Default: one thread generating the whole trace.
     */
    SystemBuilder &
    threads(std::vector<unsigned> thread_of)
    {
        threadOf = std::move(thread_of);
        return *this;
    }

    /**
     * Interleave the trace over @p num_threads generating threads:
     * task t is emitted by thread t % num_threads (one thread for 0
     * or 1, the default).
     */
    SystemBuilder &roundRobin(unsigned num_threads);

    /** Validate the configuration and assemble the machine. */
    std::unique_ptr<System> build();

  private:
    PipelineConfig cfg;
    const TaskTrace &trace;
    std::vector<unsigned> threadOf;
};

} // namespace tss

#endif // TSS_CORE_SYSTEM_HH
