#include "service.hh"

#include <cstdio>
#include <iomanip>
#include <sstream>

#include "obs/trace.hh"
#include "runtime/session.hh"
#include "serve/protocol.hh"
#include "sim/logging.hh"
#include "trace/relocate.hh"

namespace tss::serve
{

TraceService::TraceService(ServeConfig config)
    : cfg(config), startTime(std::chrono::steady_clock::now()),
      // A job trace exists only when its simulation records a Full
      // trace, and carries the stage slices only under the serve
      // filter; otherwise formatting them would be wasted work.
      recordStageSlices((cfg.recordJobTraces ||
                         cfg.machine.traceMode ==
                             obs::TraceMode::Full) &&
                        (cfg.machine.traceFilter & obs::cat::serve)),
      parseQueue(cfg.admitCapacity), admitQueue(cfg.stageCapacity),
      executeQueue(cfg.stageCapacity), reportQueue(cfg.stageCapacity)
{
    if (cfg.carveBytes == 0)
        fatal("tss-serve: carveBytes must be non-zero");
    for (unsigned i = 0; i < std::max(1u, cfg.parseWorkers); ++i)
        parsers.emplace_back([this] { parseWorker(); });
    for (unsigned i = 0; i < std::max(1u, cfg.admitWorkers); ++i)
        admitters.emplace_back([this] { admitWorker(); });
    for (unsigned i = 0; i < std::max(1u, cfg.executeWorkers); ++i)
        executors.emplace_back([this] { executeWorker(); });
    reporter = std::thread([this] { reportWorker(); });
}

TraceService::~TraceService()
{
    drain();
}

std::int64_t
TraceService::uptimeUs() const
{
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - startTime)
        .count();
}

void
TraceService::recordStage(Job &job, const char *name, int stage,
                          std::int64_t t0) const
{
    if (recordStageSlices)
        job.stageSlices.push_back(obs::serveStageSlice(
            name, stage, t0, uptimeUs() - t0, job.id));
}

TenantId
TraceService::openTenant(std::string name)
{
    std::lock_guard<std::mutex> lock(stateMutex);
    auto tenant = std::make_unique<Tenant>();
    tenant->id = static_cast<TenantId>(tenants.size());
    tenant->name = std::move(name);
    tenant->carveBase = cfg.carveBase + tenant->id * cfg.carveBytes;
    tenant->carveEnd = tenant->carveBase + cfg.carveBytes;
    if (tenant->carveEnd <= tenant->carveBase)
        fatal("tss-serve: tenant carve space exhausted");
    tenants.push_back(std::move(tenant));
    return tenants.back()->id;
}

SubmitResult
TraceService::admit(Job job)
{
    if (closing.load())
        return {SubmitStatus::Closed, 0};
    job.id = nextJob.fetch_add(1);
    job.admitTime = std::chrono::steady_clock::now();
    JobId id = job.id;
    TenantId tenant = job.tenant;

    // stateMutex is held across the push so the admitted counters
    // move atomically with queue occupancy: waitIdle() can never
    // observe jobsRetired == jobsAdmitted while a job is in flight
    // but uncounted. Lock order is always stateMutex before a queue
    // mutex; workers take them one at a time.
    std::lock_guard<std::mutex> lock(stateMutex);
    if (tenant >= tenants.size())
        return {SubmitStatus::Invalid, 0};
    if (!parseQueue.tryPush(std::move(job))) {
        if (closing.load())
            return {SubmitStatus::Closed, 0};
        ++tenants[tenant]->busyRejections;
        return {SubmitStatus::Busy, 0};
    }
    ++tenants[tenant]->admitted;
    ++jobsAdmitted;
    return {SubmitStatus::Accepted, id};
}

SubmitResult
TraceService::submitText(TenantId tenant, std::string text)
{
    Job job;
    job.tenant = tenant;
    job.text = std::move(text);
    job.parsed = false;
    return admit(std::move(job));
}

SubmitResult
TraceService::submit(TenantId tenant, TaskTrace trace)
{
    Job job;
    job.tenant = tenant;
    job.trace = std::move(trace);
    job.parsed = true;
    return admit(std::move(job));
}

void
TraceService::parseWorker()
{
    while (auto job = parseQueue.pop()) {
        std::int64_t t0 = uptimeUs();
        if (!job->parsed) {
            if (!parseTraceText(job->text, job->trace,
                                &job->parseError)) {
                job->outcome = Job::Outcome::ParseError;
                reportQueue.push(std::move(*job));
                continue;
            }
            job->parsed = true;
            job->text.clear();
        }
        recordStage(*job, "serve.parse", 0, t0);
        admitQueue.push(std::move(*job));
    }
}

void
TraceService::admitWorker()
{
    while (auto job = admitQueue.pop()) {
        std::int64_t t0 = uptimeUs();
        std::uint64_t carve_base, carve_end;
        {
            std::lock_guard<std::mutex> lock(stateMutex);
            carve_base = tenants[job->tenant]->carveBase;
            carve_end = tenants[job->tenant]->carveEnd;
        }

        auto session = std::make_unique<Session>(Session::forTrace(
            job->trace.name.empty() ? "job" : job->trace.name));
        session->submitTrace(job->trace);
        RelocationOptions opts;
        opts.targetBase = carve_base;
        opts.alignment = cfg.alignment;
        session->seal(opts);

        // The admit check: every relocated region must land inside
        // the tenant's carve, or tenants could alias each other's
        // simulated directory state.
        bool fits = true;
        for (const RelocatedRegion &r :
             session->relocationMap().regions())
            fits &= r.targetBase >= carve_base &&
                r.targetBase + r.bytes <= carve_end;
        if (!fits) {
            job->outcome = Job::Outcome::CarveOverflow;
            reportQueue.push(std::move(*job));
            continue;
        }
        job->session = std::move(session);
        recordStage(*job, "serve.admit", 1, t0);
        executeQueue.push(std::move(*job));
    }
}

void
TraceService::executeWorker()
{
    while (auto job = executeQueue.pop()) {
        std::int64_t t0 = uptimeUs();
        // Each job simulates on its own machine copy; a full flight
        // recorder rides along when job traces are requested. The
        // simulation survives a wedge — a deadlocked tenant program
        // must never take the daemon down.
        PipelineConfig machine = cfg.machine;
        if (cfg.recordJobTraces)
            machine.traceMode = obs::TraceMode::Full;
        SimReport sim = job->session->simulate(machine, cfg.genThreads,
                                               cfg.maxEventsPerJob);
        if (sim.completed) {
            job->simMakespan = sim.result.makespan;
            job->simTasks = sim.result.numTasks;
        } else {
            job->outcome = Job::Outcome::Wedged;
            job->wedgeJson = sim.liveness.toJson();
        }
        job->traceJson = std::move(sim.traceJson);
        job->session.reset();
        recordStage(*job, "serve.execute", 2, t0);
        reportQueue.push(std::move(*job));
    }
}

void
TraceService::reportWorker()
{
    while (auto job = reportQueue.pop())
        finishJob(std::move(*job));
}

void
TraceService::finishJob(Job job)
{
    double wall = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - job.admitTime)
                      .count();
    // Splice the wall-clock serve-stage slices (pid 2) into the job's
    // simulation trace so one Perfetto view shows both time bases
    // (recorded only under the serve filter; see the constructor).
    if (!job.traceJson.empty() && !job.stageSlices.empty()) {
        std::string events;
        for (std::size_t i = 0; i < job.stageSlices.size(); ++i) {
            if (i)
                events += ",\n";
            events += job.stageSlices[i];
        }
        obs::appendChromeEvents(job.traceJson, events);
    }
    {
        std::lock_guard<std::mutex> lock(stateMutex);
        Tenant &tenant = *tenants[job.tenant];
        switch (job.outcome) {
        case Job::Outcome::Ok:
            ++tenant.completed;
            tenant.simulatedTasks += job.simTasks;
            tenant.simMakespan.sample(
                static_cast<double>(job.simMakespan));
            break;
        case Job::Outcome::ParseError:
            ++tenant.rejectedParse;
            tenant.lastParseError = std::move(job.parseError);
            break;
        case Job::Outcome::CarveOverflow:
            ++tenant.rejectedCarve;
            break;
        case Job::Outcome::Wedged:
            ++tenant.wedged;
            tenant.lastWedgeJson = std::move(job.wedgeJson);
            break;
        }
        if (!job.traceJson.empty())
            tenant.lastTraceJson = std::move(job.traceJson);
        tenant.wallLatency.sample(wall);
        ++jobsRetired;
    }
    idleCv.notify_all();
}

void
TraceService::waitIdle()
{
    std::unique_lock<std::mutex> lock(stateMutex);
    idleCv.wait(lock, [this] { return jobsRetired == jobsAdmitted; });
}

void
TraceService::drain()
{
    std::lock_guard<std::mutex> drain_lock(drainMutex);
    {
        std::lock_guard<std::mutex> lock(stateMutex);
        if (didDrain)
            return;
    }
    closing.store(true);

    // Retire stages strictly front-to-back: close a stage's input,
    // join its workers (they exit only once the queue is drained),
    // then move on. Every admitted job therefore reaches the report
    // stage before the report queue closes.
    parseQueue.close();
    for (auto &t : parsers)
        t.join();
    admitQueue.close();
    for (auto &t : admitters)
        t.join();
    executeQueue.close();
    for (auto &t : executors)
        t.join();
    reportQueue.close();
    reporter.join();

    std::lock_guard<std::mutex> lock(stateMutex);
    didDrain = true;
}

ServiceReport
TraceService::report() const
{
    ServiceReport out;
    out.parseDepth = parseQueue.depth();
    out.admitDepth = admitQueue.depth();
    out.executeDepth = executeQueue.depth();
    out.reportDepth = reportQueue.depth();

    std::lock_guard<std::mutex> lock(stateMutex);
    out.wallSeconds = std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - startTime)
                          .count();
    out.drained = didDrain;
    for (const auto &tenant : tenants) {
        TenantReport tr;
        tr.id = tenant->id;
        tr.name = tenant->name;
        tr.carveBase = tenant->carveBase;
        tr.carveEnd = tenant->carveEnd;
        tr.admitted = tenant->admitted;
        tr.completed = tenant->completed;
        tr.wedged = tenant->wedged;
        tr.lastWedgeJson = tenant->lastWedgeJson;
        tr.lastParseError = tenant->lastParseError;
        tr.rejectedParse = tenant->rejectedParse;
        tr.rejectedCarve = tenant->rejectedCarve;
        tr.busyRejections = tenant->busyRejections;
        tr.simulatedTasks = tenant->simulatedTasks;
        tr.simMakespanCycles = summarize(tenant->simMakespan);
        tr.wallLatencySeconds = summarize(tenant->wallLatency);
        tr.tasksPerSec = out.wallSeconds > 0
            ? static_cast<double>(tenant->simulatedTasks) /
                out.wallSeconds
            : 0;
        out.tenants.push_back(std::move(tr));
    }
    return out;
}

std::string
TraceService::lastTraceJson(TenantId tenant) const
{
    std::lock_guard<std::mutex> lock(stateMutex);
    if (tenant >= tenants.size())
        return "";
    return tenants[tenant]->lastTraceJson;
}

std::uint64_t
TraceService::carveBaseOf(TenantId tenant) const
{
    std::lock_guard<std::mutex> lock(stateMutex);
    if (tenant >= tenants.size())
        fatal("tss-serve: unknown tenant %u", tenant);
    return tenants[tenant]->carveBase;
}

std::uint64_t
TraceService::carveEndOf(TenantId tenant) const
{
    std::lock_guard<std::mutex> lock(stateMutex);
    if (tenant >= tenants.size())
        fatal("tss-serve: unknown tenant %u", tenant);
    return tenants[tenant]->carveEnd;
}

namespace
{

/** @p s as a JSON string literal: quoted, with escapes. */
std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char hex[7];
            std::snprintf(hex, sizeof hex, "\\u%04x", c);
            out += hex;
        } else {
            out += c;
        }
    }
    return out + '"';
}

void
jsonSummary(std::ostream &os, const char *key,
            const PercentileSummary &s)
{
    os << "\"" << key << "\": {\"count\": " << s.count
       << ", \"p50\": " << s.p50 << ", \"p95\": " << s.p95
       << ", \"p99\": " << s.p99 << ", \"mean\": " << s.mean
       << ", \"max\": " << s.max << "}";
}

} // namespace

std::string
toJson(const ServiceReport &report)
{
    std::ostringstream os;
    os << std::setprecision(12);
    os << "{\n  \"wall_seconds\": " << report.wallSeconds
       << ",\n  \"drained\": " << (report.drained ? "true" : "false")
       << ",\n  \"queues\": {\"parse\": " << report.parseDepth
       << ", \"admit\": " << report.admitDepth
       << ", \"execute\": " << report.executeDepth
       << ", \"report\": " << report.reportDepth << "}"
       << ",\n  \"tenants\": [\n";
    for (std::size_t i = 0; i < report.tenants.size(); ++i) {
        const TenantReport &t = report.tenants[i];
        os << (i ? ",\n" : "") << "    {\"id\": " << t.id
           << ", \"name\": " << jsonString(t.name)
           << ", \"carve_base\": " << t.carveBase
           << ", \"carve_end\": " << t.carveEnd
           << ", \"admitted\": " << t.admitted
           << ", \"completed\": " << t.completed
           << ", \"wedged\": " << t.wedged
           << ", \"rejected_parse\": " << t.rejectedParse
           << ", \"rejected_carve\": " << t.rejectedCarve
           << ", \"busy_rejections\": " << t.busyRejections
           << ", \"simulated_tasks\": " << t.simulatedTasks << ",\n     ";
        jsonSummary(os, "sim_makespan_cycles", t.simMakespanCycles);
        os << ",\n     ";
        jsonSummary(os, "wall_latency_seconds", t.wallLatencySeconds);
        os << ",\n     \"tasks_per_sec\": " << t.tasksPerSec;
        if (!t.lastWedgeJson.empty())
            os << ",\n     \"last_wedge\": " << t.lastWedgeJson;
        if (!t.lastParseError.empty())
            os << ",\n     \"last_parse_error\": "
               << jsonString(t.lastParseError);
        os << "}";
    }
    os << "\n  ]\n}\n";
    return os.str();
}

} // namespace tss::serve
