#include "experiment.hh"

#include <chrono>

#include "runtime/parallel_exec.hh"
#include "runtime/session.hh"
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

    // Fresh program instances per execution, each driven through the
    // Session lifecycle: the programs were captured at make() time,
    // so seal() freezes them immediately and every consumer below
    // sees the same immutable stream + relocated image.
    auto sequential = info.make(seed);
    Session seq(sequential->context(), info.name + "/seq");
    seq.seal();
    auto begin = std::chrono::steady_clock::now();
    seq.runSequential();
    auto end = std::chrono::steady_clock::now();
    result.seqSeconds = seq_seconds_baseline > 0
        ? seq_seconds_baseline
        : std::chrono::duration<double>(end - begin).count();

    auto parallel = info.make(seed);
    Session par(parallel->context(), info.name + "/par");
    par.seal();
    starss::ParallelRunStats stats = par.runParallel(threads);
    result.parSeconds = stats.wallSeconds;
    result.versions = stats.versions;
    result.steals = stats.steals;
    if (result.parSeconds > 0)
        result.wallSpeedup = result.seqSeconds / result.parSeconds;
    result.bitIdentical =
        parallel->snapshot() == sequential->snapshot();

    // Simulate the relocated image computed at seal(): synthetic
    // operand addresses make simSpeedup a pure function of
    // (program, config) instead of varying with where the allocator
    // placed the program's memory.
    PipelineConfig cfg;
    cfg.numCores = threads;
    SimReport sim = par.simulate(cfg);
    if (!sim.completed)
        fatal("%s: simulation ended early", info.name.c_str());
    result.simSpeedup = sim.result.speedup;
    return result;
}

} // namespace tss
