#include "experiment.hh"

#include <chrono>

#include "runtime/parallel_exec.hh"
#include "sim/logging.hh"

namespace tss
{

RunResult
runHardware(const PipelineConfig &config, const TaskTrace &trace,
            unsigned num_threads)
{
    auto sys = SystemBuilder(config, trace).roundRobin(num_threads).build();
    return sys->run();
}

SwRunResult
runSoftware(const SwRuntimeConfig &config, const TaskTrace &trace)
{
    SoftwareRuntime runtime(config, trace);
    return runtime.run();
}

PipelineConfig
paperConfig(unsigned cores)
{
    PipelineConfig cfg;
    cfg.numTrs = 8;
    cfg.numOrt = 2;
    cfg.trsTotalBytes = 6 * 1024 * 1024;
    cfg.ortTotalBytes = 512 * 1024;
    cfg.ovtTotalBytes = 512 * 1024;
    cfg.numCores = cores;
    return cfg;
}

TaskTrace
makeWorkload(const std::string &name, double scale, std::uint64_t seed)
{
    const WorkloadInfo *info = findWorkload(name);
    if (!info)
        fatal("unknown workload '%s'", name.c_str());
    WorkloadParams params;
    params.scale = scale;
    params.seed = seed;
    return info->generate(params);
}

RealExecResult
runParallelReal(const starss::RealProgramInfo &info, std::uint64_t seed,
                unsigned threads, double seq_seconds_baseline)
{
    RealExecResult result;
    result.threads = threads;

    // Fresh program instances per execution: running the captured
    // tasks mutates the memory each program owns.
    auto sequential = info.make(seed);
    auto begin = std::chrono::steady_clock::now();
    sequential->context().runSequential();
    auto end = std::chrono::steady_clock::now();
    result.seqSeconds = seq_seconds_baseline > 0
        ? seq_seconds_baseline
        : std::chrono::duration<double>(end - begin).count();

    auto parallel = info.make(seed);
    starss::ParallelRunStats stats =
        parallel->context().runParallel(threads);
    result.parSeconds = stats.wallSeconds;
    result.versions = stats.versions;
    result.steals = stats.steals;
    if (result.parSeconds > 0)
        result.wallSpeedup = result.seqSeconds / result.parSeconds;
    result.bitIdentical =
        parallel->snapshot() == sequential->snapshot();

    // Simulate the relocated trace: synthetic operand addresses make
    // simSpeedup a pure function of (program, config) instead of
    // varying with where the allocator placed the program's memory.
    PipelineConfig cfg;
    cfg.numCores = threads;
    result.simSpeedup =
        runHardware(cfg, parallel->context().relocatedTrace()).speedup;
    return result;
}

} // namespace tss
