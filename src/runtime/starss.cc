#include "starss.hh"

#include "sim/logging.hh"

namespace tss::starss
{

TaskContext::TaskContext()
{
    _trace.name = "starss";
}

KernelId
TaskContext::addKernel(std::string name, KernelFn fn,
                       double default_runtime_us)
{
    kernels.push_back(std::move(fn));
    kernelRuntimes.push_back(default_runtime_us);
    return _trace.addKernel(std::move(name));
}

void
TaskContext::spawn(KernelId kernel, const std::vector<Param> &task_params,
                   double runtime_us)
{
    TSS_ASSERT(kernel < kernels.size(), "spawn of unknown kernel %u",
               kernel);
    double us = runtime_us > 0 ? runtime_us : kernelRuntimes[kernel];

    TraceTask task;
    task.kernel = kernel;
    task.runtime = defaultClock.usToCycles(us);
    task.operands.reserve(task_params.size());
    for (const Param &p : task_params) {
        TraceOperand op;
        op.dir = p.dir;
        op.addr = reinterpret_cast<std::uint64_t>(p.ptr);
        op.bytes = p.bytes;
        task.operands.push_back(op);
    }
    _trace.tasks.push_back(std::move(task));
    params.push_back(task_params);
}

void
TaskContext::registerRegion(const void *ptr, std::size_t bytes)
{
    _regions.push_back(MemRegion{reinterpret_cast<std::uint64_t>(ptr),
                                 static_cast<Bytes>(bytes)});
}

TaskTrace
TaskContext::relocatedTrace(const RelocationOptions &opts) const
{
    return relocateTrace(_trace, opts, _regions);
}

void
TaskContext::runSequential()
{
    for (std::size_t t = 0; t < _trace.size(); ++t) {
        std::vector<void *> ptrs;
        ptrs.reserve(params[t].size());
        for (const Param &p : params[t])
            ptrs.push_back(p.ptr);
        Buffers bufs(std::move(ptrs));
        kernels[_trace.tasks[t].kernel](bufs);
    }
}

} // namespace tss::starss
