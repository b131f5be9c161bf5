#include "run_options.hh"

#include "sim/logging.hh"

namespace tss
{

namespace
{

std::optional<unsigned>
parseUnsigned(const CliArgs &args, const char *key, unsigned min_value = 0)
{
    if (!args.has(key))
        return std::nullopt;
    unsigned value = args.getUnsigned(key, 0);
    if (value < min_value)
        fatal("--%s must be >= %u", key, min_value);
    return value;
}

std::optional<std::uint64_t>
parseU64(const CliArgs &args, const char *key)
{
    if (!args.has(key))
        return std::nullopt;
    long value = args.getLong(key, 0);
    if (value < 0)
        fatal("--%s must be >= 0", key);
    return static_cast<std::uint64_t>(value);
}

} // namespace

RunOptions
RunOptions::parse(const CliArgs &args)
{
    RunOptions opts;
    std::string topo = args.get("topology", "");
    if (!topo.empty())
        opts.topology = topologyFromString(topo);
    std::string place = args.get("placement", "");
    if (!place.empty())
        opts.placement = placementFromString(place);
    opts.placementSeed = parseU64(args, "placement-seed");
    opts.batch = args.has("batch");
    opts.idealAdmission = args.has("ideal-admission");
    opts.credits = parseUnsigned(args, "credits");
    opts.pipes = parseUnsigned(args, "pipes", 1);
    opts.trs = parseUnsigned(args, "trs", 1);
    opts.ort = parseUnsigned(args, "ort", 1);
    if (auto kb = parseUnsigned(args, "trs-kb", 1))
        opts.trsKb = Bytes(*kb) * 1024;
    if (auto kb = parseUnsigned(args, "ort-kb", 1))
        opts.ortKb = Bytes(*kb) * 1024;
    if (auto kb = parseUnsigned(args, "ovt-kb", 1))
        opts.ovtKb = Bytes(*kb) * 1024;
    opts.cores = parseUnsigned(args, "cores", 1);
    opts.generatingThreads = parseUnsigned(args, "gen-threads", 1);
    opts.simThreads = parseUnsigned(args, "sim-threads", 1);
    opts.noRename = args.has("no-rename");
    opts.noChaining = args.has("no-chaining");
    opts.relocate = args.has("relocate");
    opts.relocateSeed = parseU64(args, "relocate-seed");
    opts.relocateAlign = parseU64(args, "relocate-align");
    std::string trace = args.get("trace", "");
    if (!trace.empty()) {
        if (trace != "off" && trace != "tail" && trace != "full")
            fatal("--trace must be off, tail or full (got '%s')",
                  trace.c_str());
        opts.traceMode = obs::parseTraceMode(trace);
    }
    if (args.has("trace-filter"))
        opts.traceFilter =
            obs::parseTraceFilter(args.get("trace-filter", "all"));
    opts.traceTail = parseUnsigned(args, "trace-tail", 1);
    std::string traceOut = args.get("trace-out", "");
    if (!traceOut.empty())
        opts.traceOut = traceOut;
    std::string metricsOut = args.get("metrics-out", "");
    if (!metricsOut.empty())
        opts.metricsOut = metricsOut;
    return opts;
}

void
RunOptions::apply(PipelineConfig &cfg) const
{
    if (topology)
        cfg.nocTopology = *topology;
    if (placement)
        cfg.nocPlacement = *placement;
    if (placementSeed)
        cfg.nocPlacementSeed = *placementSeed;
    if (batch)
        cfg.batchOperands = true;
    if (idealAdmission)
        cfg.idealAdmission = true;
    if (simThreads)
        cfg.simThreads = *simThreads;
    if (credits)
        cfg.slicePacketCredits = *credits;
    if (pipes)
        cfg.numPipelines = *pipes;
    if (trs)
        cfg.numTrs = *trs;
    if (ort)
        cfg.numOrt = *ort;
    if (trsKb)
        cfg.trsTotalBytes = *trsKb;
    if (ortKb)
        cfg.ortTotalBytes = *ortKb;
    if (ovtKb)
        cfg.ovtTotalBytes = *ovtKb;
    if (cores)
        cfg.numCores = *cores;
    if (noRename)
        cfg.renameOutputs = false;
    if (noChaining)
        cfg.consumerChaining = false;
    if (traceMode)
        cfg.traceMode = *traceMode;
    if (traceFilter)
        cfg.traceFilter = *traceFilter;
    if (traceTail)
        cfg.traceTailRecords = *traceTail;
    if (traceOut) {
        cfg.traceOutPath = *traceOut;
        // A requested export needs every record retained; an explicit
        // --trace=off|tail still wins (checked at System::build).
        if (!traceMode)
            cfg.traceMode = obs::TraceMode::Full;
    }
    if (metricsOut)
        cfg.metricsOutPath = *metricsOut;
}

void
RunOptions::apply(RelocationOptions &reloc) const
{
    if (relocateSeed)
        reloc.layoutSeed = *relocateSeed;
    if (relocateAlign)
        reloc.alignment = *relocateAlign;
}

bool
RunOptions::maybeRelocate(TaskTrace &trace) const
{
    if (!relocate) {
        if (relocateSeed || relocateAlign)
            warn("--relocate-seed/--relocate-align have no effect "
                 "without --relocate");
        return false;
    }
    RelocationOptions reloc;
    apply(reloc);
    trace = relocateTrace(trace, reloc);
    return true;
}

unsigned
RunOptions::genThreads(unsigned fallback) const
{
    unsigned n = generatingThreads.value_or(fallback);
    return n > 0 ? n : 1;
}

} // namespace tss
