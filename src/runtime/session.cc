#include "session.hh"

#include "runtime/parallel_exec.hh"
#include "sim/logging.hh"

namespace tss
{

Session::Session(std::string session_name)
    : sessionName(std::move(session_name)),
      ownedCtx(std::make_unique<starss::TaskContext>()),
      ctx(ownedCtx.get())
{}

Session::Session(starss::TaskContext &context, std::string session_name)
    : sessionName(std::move(session_name)), ctx(&context)
{}

Session
Session::forTrace(std::string session_name)
{
    Session s(std::move(session_name));
    s.ownedCtx.reset();
    s.ctx = nullptr;
    s.traceBacked = true;
    return s;
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
Session::requireContext(const char *op) const
{
    if (!ctx)
        fatal("session '%s': %s needs a context-backed session "
              "(trace-backed sessions hold no kernel functions)",
              sessionName.c_str(), op);
}

void
Session::requireTraceBacked(const char *op) const
{
    if (!traceBacked)
        fatal("session '%s': %s is for trace-backed sessions; submit "
              "kernels via submit()", sessionName.c_str(), op);
}

std::size_t
Session::numTasks() const
{
    return traceBacked ? directTrace.size() : ctx->numTasks();
}

starss::KernelId
Session::addKernel(std::string kernel_name, starss::KernelFn fn,
                   double default_runtime_us)
{
    requireOpen("addKernel()");
    requireContext("addKernel()");
    return ctx->addKernel(std::move(kernel_name), std::move(fn),
                          default_runtime_us);
}

void
Session::registerRegion(const void *ptr, std::size_t bytes)
{
    requireOpen("registerRegion()");
    requireContext("registerRegion()");
    ctx->registerRegion(ptr, bytes);
}

void
Session::submit(starss::KernelId kernel,
                const std::vector<starss::Param> &params,
                double runtime_us)
{
    requireOpen("submit()");
    requireContext("submit()");
    ctx->spawn(kernel, params, runtime_us);
}

std::uint32_t
Session::declareKernel(std::string kernel_name)
{
    requireOpen("declareKernel()");
    requireTraceBacked("declareKernel()");
    return directTrace.addKernel(std::move(kernel_name));
}

void
Session::submitTask(std::uint32_t kernel, Cycle runtime,
                    std::vector<TraceOperand> operands)
{
    requireOpen("submitTask()");
    requireTraceBacked("submitTask()");
    if (kernel >= directTrace.kernelNames.size())
        fatal("session '%s': submitTask() with undeclared kernel %u",
              sessionName.c_str(), kernel);
    TraceTask task;
    task.kernel = kernel;
    task.runtime = runtime;
    task.operands = std::move(operands);
    directTrace.tasks.push_back(std::move(task));
}

void
Session::submitTrace(const TaskTrace &program)
{
    requireOpen("submitTrace()");
    requireTraceBacked("submitTrace()");
    if (directTrace.name.empty())
        directTrace.name = program.name;
    std::vector<std::uint32_t> kernel_map;
    kernel_map.reserve(program.kernelNames.size());
    for (const std::string &kernel : program.kernelNames)
        kernel_map.push_back(directTrace.addKernel(kernel));
    for (const TraceTask &task : program.tasks) {
        TraceTask copy = task;
        copy.kernel = kernel_map.at(task.kernel);
        directTrace.tasks.push_back(std::move(copy));
    }
}

void
Session::seal(const RelocationOptions &opts)
{
    requireOpen("seal()");
    if (traceBacked) {
        map = std::make_unique<RelocationMap>(
            buildRelocationMap(directTrace, opts));
        relocated = map->apply(directTrace);
    } else {
        relocated = ctx->relocatedTrace(opts);
    }
    isSealed = true;
}

const TaskTrace &
Session::trace() const
{
    return traceBacked ? directTrace : ctx->trace();
}

const TaskTrace &
Session::relocatedTrace() const
{
    requireSealed("relocatedTrace()");
    return relocated;
}

const RelocationMap *
Session::relocationMap() const
{
    requireSealed("relocationMap()");
    return map.get();
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

void
Session::runSequential()
{
    requireSealed("runSequential()");
    requireContext("runSequential()");
    ctx->runSequential();
}

starss::ParallelRunStats
Session::runParallel(unsigned n_threads)
{
    requireSealed("runParallel()");
    requireContext("runParallel()");
    starss::ParallelExecutor exec(*ctx);
    return exec.runGraph(n_threads);
}

starss::TaskContext &
Session::context()
{
    requireContext("context()");
    return *ctx;
}

} // namespace tss
