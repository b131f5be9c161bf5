#include "session.hh"

#include "sim/logging.hh"

namespace tss
{

Session::Session(std::string session_name)
    : sessionName(std::move(session_name))
{}

Session
Session::forTrace(std::string session_name)
{
    return Session(std::move(session_name));
}

void
Session::requireOpen(const char *op) const
{
    if (isSealed)
        fatal("session '%s': %s after seal()", sessionName.c_str(), op);
}

void
Session::requireSealed(const char *op) const
{
    if (!isSealed)
        fatal("session '%s': %s before seal()", sessionName.c_str(),
              op);
}

void
Session::submitTrace(const TaskTrace &submitted)
{
    requireOpen("submitTrace()");
    if (program.name.empty())
        program.name = submitted.name;
    std::vector<std::uint32_t> kernel_map;
    kernel_map.reserve(submitted.kernelNames.size());
    for (const std::string &kernel : submitted.kernelNames)
        kernel_map.push_back(program.addKernel(kernel));
    for (const TraceTask &task : submitted.tasks) {
        TraceTask copy = task;
        copy.kernel = kernel_map.at(task.kernel);
        program.tasks.push_back(std::move(copy));
    }
}

void
Session::seal(const RelocationOptions &opts)
{
    requireOpen("seal()");
    map = buildRelocationMap(program, opts);
    relocated = map.apply(program);
    isSealed = true;
}

const TaskTrace &
Session::relocatedTrace() const
{
    requireSealed("relocatedTrace()");
    return relocated;
}

const RelocationMap &
Session::relocationMap() const
{
    requireSealed("relocationMap()");
    return map;
}

SimReport
Session::simulate(const PipelineConfig &cfg, unsigned gen_threads,
                  std::uint64_t max_events) const
{
    requireSealed("simulate()");
    auto sys = SystemBuilder(cfg, relocated).roundRobin(gen_threads).build();
    SimReport report;
    report.liveness = sys->runWatchdog(max_events);
    report.completed = report.liveness.completed;
    if (report.completed)
        report.result = sys->collectResult();
    obs::Tracer *tracer = sys->tracer();
    if (tracer && tracer->mode() == obs::TraceMode::Full)
        report.traceJson = tracer->chromeJson();
    sys->writeObsOutputs();
    return report;
}

} // namespace tss
