/**
 * @file
 * TraceService: the always-on multi-tenant trace service behind
 * tss-serve. Clients open tenants and stream serialized task programs
 * at it; each submission runs through a staged ingestion pipeline
 *
 *     submit() --tryPush--> [parse] -> [relocate/admit] ->
 *         [execute] -> [report]
 *
 * in the parallel-pipeline shape: every stage is a bounded queue fed
 * by a small worker pool, so stages overlap across jobs and a slow
 * stage backpressures the ones before it. When the admission queue is
 * full, submit() refuses the job (SubmitStatus::Busy) — the service
 * never buffers unboundedly.
 *
 * Tenancy: each tenant owns a disjoint *carve* of the synthetic
 * address space. The relocate stage seals the job's Session with the
 * tenant's carve base (trace/relocate does the rebasing), and the
 * admit check rejects any program whose relocated regions would
 * spill past the carve — tenants cannot alias each other's simulated
 * directory state, and a tenant's simulated makespan is a pure
 * function of (program, machine config, carve base): deterministic,
 * so per-tenant makespan percentiles gate in CI while wall-clock
 * latencies stay advisory (see metrics.hh).
 *
 * Graceful drain: drain() closes the admission edge and then retires
 * the stages strictly front-to-back, so every job that was ever
 * Accepted reaches a terminal state (executed or rejected-with-error)
 * before drain() returns.
 */

#ifndef TSS_SERVE_SERVICE_HH
#define TSS_SERVE_SERVICE_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/config.hh"
#include "obs/metrics.hh"
#include "serve/bounded_queue.hh"
#include "serve/metrics.hh"
#include "trace/task_trace.hh"

namespace tss
{
class Session;
}

namespace tss::serve
{

using TenantId = std::uint32_t;
using JobId = std::uint64_t;

/** Service-level knobs; the machine config is simulated per job. */
struct ServeConfig
{
    /** The task superscalar machine every job is simulated on. */
    PipelineConfig machine;

    /** Generating threads per simulated job (round-robin). */
    unsigned genThreads = 1;

    /**
     * Record a full flight-recorder trace of every job's simulation
     * and keep each tenant's most recent one for the Trace wire
     * message (with wall-clock serve-stage slices spliced in). Off by
     * default: full traces of large programs are big.
     */
    bool recordJobTraces = false;

    /**
     * Watchdog event budget per job simulation. A job that wedges (or
     * exhausts the budget) retires as Outcome::Wedged with a liveness
     * diagnosis instead of killing the daemon.
     */
    std::uint64_t maxEventsPerJob = ~std::uint64_t(0);

    /// @name Stage shape. The admission capacity is the backpressure
    /// horizon: submissions beyond it bounce with Busy.
    /// @{
    std::size_t admitCapacity = 8;
    std::size_t stageCapacity = 8;
    unsigned parseWorkers = 1;
    unsigned admitWorkers = 1;
    unsigned executeWorkers = 2;
    /// @}

    /// @name Tenant address-space carving.
    /// @{
    std::uint64_t carveBase = 0x1000'0000;  ///< first tenant's base
    std::uint64_t carveBytes = 0x1000'0000; ///< 256 MiB per tenant
    std::uint64_t alignment = 256;          ///< region alignment
    /// @}
};

enum class SubmitStatus : std::uint8_t {
    Accepted, ///< admitted; a JobId names the job
    Busy,     ///< admission queue full — backpressure, retry later
    Closed,   ///< service is draining; no new work
    Invalid   ///< unknown tenant
};

struct SubmitResult
{
    SubmitStatus status = SubmitStatus::Invalid;
    JobId job = 0;
};

/** Per-tenant slice of a ServiceReport. */
struct TenantReport
{
    TenantId id = 0;
    std::string name;
    std::uint64_t carveBase = 0;
    std::uint64_t carveEnd = 0;

    std::size_t admitted = 0;
    std::size_t completed = 0;      ///< simulated to completion
    std::size_t wedged = 0;         ///< simulation deadlocked
    std::size_t rejectedParse = 0;  ///< malformed submission text
    std::size_t rejectedCarve = 0;  ///< program overflows the carve
    std::size_t busyRejections = 0; ///< bounced at the admission edge

    /**
     * LivenessReport JSON of the tenant's most recent wedged job
     * (occupancy, culprit operand, flight-recorder tail) — empty when
     * no job of this tenant ever wedged.
     */
    std::string lastWedgeJson;

    std::uint64_t simulatedTasks = 0; ///< total trace tasks completed

    /** Deterministic: per-job simulated makespan, in cycles. */
    PercentileSummary simMakespanCycles;

    /** Advisory: submit-to-report wall latency, in seconds. */
    PercentileSummary wallLatencySeconds;

    /** Advisory: simulated tasks per wall second. */
    double tasksPerSec = 0;
};

struct ServiceReport
{
    std::vector<TenantReport> tenants;
    double wallSeconds = 0;       ///< service uptime at report time
    std::size_t parseDepth = 0;   ///< queue-depth snapshots
    std::size_t admitDepth = 0;
    std::size_t executeDepth = 0;
    std::size_t reportDepth = 0;
    bool drained = false;

    /** Live metrics-registry snapshot (serve.<tenant>.* counters). */
    std::string metricsJson;
};

/** Render @p report as JSON (the wire StatsReport payload). */
std::string toJson(const ServiceReport &report);

class TraceService
{
  public:
    explicit TraceService(ServeConfig config);

    /** Drains if the caller has not already. */
    ~TraceService();

    TraceService(const TraceService &) = delete;
    TraceService &operator=(const TraceService &) = delete;

    /**
     * Open a tenant, assigning the next disjoint address-space carve.
     * Thread-safe; tenants are never closed (their stats live as long
     * as the service).
     */
    TenantId openTenant(std::string name);

    /** Submit a serialized task program (the wire path). */
    SubmitResult submitText(TenantId tenant, std::string text);

    /** Submit an already-built trace (the in-process path). */
    SubmitResult submit(TenantId tenant, TaskTrace trace);

    /**
     * Block until every admitted job has reached a terminal state.
     * Unlike drain(), the service keeps accepting afterwards.
     */
    void waitIdle();

    /**
     * Graceful drain: stop admitting, retire the stages front-to-
     * back, join the workers. Every Accepted job completes before
     * this returns. Idempotent.
     */
    void drain();

    bool draining() const { return closing.load(); }

    /** Point-in-time statistics snapshot; callable any time. */
    ServiceReport report() const;

    /// @name Carve introspection (tests assert disjointness).
    /// @{
    std::uint64_t carveBaseOf(TenantId tenant) const;
    std::uint64_t carveEndOf(TenantId tenant) const;
    /// @}

    /**
     * Chrome JSON of @p tenant's most recently completed job — the
     * Trace wire message. Empty when recordJobTraces is off or no job
     * finished yet.
     */
    std::string lastTraceJson(TenantId tenant) const;

  private:
    struct Job
    {
        JobId id = 0;
        TenantId tenant = 0;
        std::string text;  ///< wire path: unparsed submission
        TaskTrace trace;   ///< in-process path, or parse output
        bool parsed = false;

        /// Sealed by the relocate/admit stage with the tenant carve.
        std::unique_ptr<tss::Session> session;
        Cycle simMakespan = 0;
        std::size_t simTasks = 0;
        enum class Outcome : std::uint8_t {
            Ok,
            ParseError,
            CarveOverflow,
            Wedged ///< simulation deadlocked or hit the event budget
        } outcome = Outcome::Ok;
        std::chrono::steady_clock::time_point admitTime;

        /// Chrome JSON of the job's simulation (recordJobTraces).
        std::string traceJson;
        /// LivenessReport JSON when the simulation wedged.
        std::string wedgeJson;
        /// Pre-formatted wall-clock serve-stage slices (pid 2),
        /// spliced into traceJson at finish.
        std::vector<std::string> stageSlices;
    };

    struct Tenant
    {
        TenantId id = 0;
        std::string name;
        std::uint64_t carveBase = 0;
        std::uint64_t carveEnd = 0;

        std::size_t admitted = 0;
        std::size_t completed = 0;
        std::size_t wedged = 0;
        std::size_t rejectedParse = 0;
        std::size_t rejectedCarve = 0;
        std::size_t busyRejections = 0;
        std::uint64_t simulatedTasks = 0;
        Distribution simMakespan;
        Distribution wallLatency;

        std::string lastWedgeJson; ///< most recent wedge diagnosis
        std::string lastTraceJson; ///< most recent job trace
    };

    SubmitResult admit(Job job);
    void parseWorker();
    void admitWorker();
    void executeWorker();
    void reportWorker();
    void finishJob(Job job);

    /** Microseconds of service uptime (serve-slice timestamps). */
    std::int64_t uptimeUs() const;
    /** Bind serve.<name>.* metrics for a freshly opened tenant. */
    void bindTenantMetrics(Tenant &tenant);

    ServeConfig cfg;
    std::chrono::steady_clock::time_point startTime;

    /// serve.<tenant>.* counters; snapshots taken under stateMutex
    /// (the providers read tenant fields the mutex guards).
    obs::Registry registry;

    BoundedQueue<Job> parseQueue;
    BoundedQueue<Job> admitQueue;
    BoundedQueue<Job> executeQueue;
    BoundedQueue<Job> reportQueue;

    std::vector<std::thread> parsers;
    std::vector<std::thread> admitters;
    std::vector<std::thread> executors;
    std::thread reporter;

    std::atomic<bool> closing{false};
    std::atomic<JobId> nextJob{1};

    mutable std::mutex stateMutex;
    std::condition_variable idleCv;
    std::vector<std::unique_ptr<Tenant>> tenants;
    std::size_t jobsAdmitted = 0; ///< under stateMutex
    std::size_t jobsRetired = 0;  ///< under stateMutex
    bool didDrain = false;

    std::mutex drainMutex; ///< serializes drain() callers
};

} // namespace tss::serve

#endif // TSS_SERVE_SERVICE_HH
