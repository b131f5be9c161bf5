/**
 * @file
 * The one run-configuration surface shared by every bench, example,
 * test driver and the tss-serve daemon: RunOptions parses the common
 * command-line knobs once (NoC topology/placement, operand batching,
 * flow-control credits, pipeline/module counts, storage capacities,
 * simulation-engine host threads, trace relocation) and applies them
 * onto a PipelineConfig / RelocationOptions pair.
 *
 * Every knob is tri-state: a field is applied only when it was
 * actually given on the command line, so callers keep their own
 * defaults by initializing the config *before* apply() — e.g. fig17
 * sets `cfg.numPipelines = 4; cfg.slicePacketCredits = 1;` and a bare
 * invocation leaves both intact while `--pipes=8` overrides one.
 *
 * Replaces the historical free functions `applyNocArgs` and
 * `applyRelocateArgs` (now removed) plus the per-bench `--pipes`/
 * `--credits`/`--gen-threads` plumbing.
 */

#ifndef TSS_DRIVER_RUN_OPTIONS_HH
#define TSS_DRIVER_RUN_OPTIONS_HH

#include <optional>

#include "core/config.hh"
#include "driver/cli.hh"
#include "trace/relocate.hh"
#include "trace/task_trace.hh"

namespace tss
{

/** Parsed run configuration; see the file comment for semantics. */
class RunOptions
{
  public:
    RunOptions() = default;

    /**
     * Parse the shared knobs out of @p args:
     *
     *   --topology=fixed|ring|mesh   --placement=adjacent|spread|random
     *   --placement-seed=N  --batch  --ideal-admission  --credits=N
     *   --pipes=N  --trs=N  --ort=N  --trs-kb=N --ort-kb=N --ovt-kb=N
     *   --cores=N  --gen-threads=N   --sim-threads=N
     *   --relocate  --relocate-seed=N  --relocate-align=N
     *   --no-rename  --no-chaining
     *   --trace=off|tail|full  --trace-out=PATH (implies full)
     *   --trace-filter=task,version,noc,engine,serve|all
     *   --trace-tail=N  --metrics-out=PATH
     *
     * Unknown *values* (e.g. --topology=torus) call fatal(); flags the
     * caller's bench does not care about are simply never applied.
     */
    static RunOptions parse(const CliArgs &args);

    /** Apply every present hardware knob onto @p cfg. */
    void apply(PipelineConfig &cfg) const;

    /** Apply the present relocation knobs onto @p reloc. */
    void apply(RelocationOptions &reloc) const;

    /** Apply both halves: the full RunOptions contract. */
    void
    apply(PipelineConfig &cfg, RelocationOptions &reloc) const
    {
        apply(cfg);
        apply(reloc);
    }

    /** True when `--relocate` was given. */
    bool relocateRequested() const { return relocate; }

    /**
     * Relocate @p trace in place when `--relocate` was given (using
     * the parsed seed/alignment); otherwise warn if relocation knobs
     * were passed without `--relocate` and leave the trace untouched.
     * Returns whether relocation happened.
     */
    bool maybeRelocate(TaskTrace &trace) const;

    /** `--gen-threads`, or @p fallback when absent (min 1). */
    unsigned genThreads(unsigned fallback) const;

    /// @name Parsed knobs (present iff given on the command line).
    /// Public so callers with bench-specific policies — e.g. fig17
    /// forcing relocation regardless of --relocate — can inspect or
    /// override individual fields before apply().
    /// @{
    std::optional<TopologyKind> topology;
    std::optional<PlacementKind> placement;
    std::optional<std::uint64_t> placementSeed;
    bool batch = false;          ///< --batch given
    bool idealAdmission = false; ///< --ideal-admission given
    std::optional<unsigned> credits;
    std::optional<unsigned> pipes;
    std::optional<unsigned> trs;
    std::optional<unsigned> ort;
    std::optional<Bytes> trsKb;
    std::optional<Bytes> ortKb;
    std::optional<Bytes> ovtKb;
    std::optional<unsigned> cores;
    std::optional<unsigned> generatingThreads;
    std::optional<unsigned> simThreads;
    bool noRename = false;   ///< --no-rename given
    bool noChaining = false; ///< --no-chaining given
    bool relocate = false;   ///< --relocate given
    std::optional<std::uint64_t> relocateSeed;
    std::optional<std::uint64_t> relocateAlign;
    std::optional<obs::TraceMode> traceMode;
    std::optional<std::uint32_t> traceFilter;
    std::optional<unsigned> traceTail;
    std::optional<std::string> traceOut;
    std::optional<std::string> metricsOut;
    /// @}
};

} // namespace tss

#endif // TSS_DRIVER_RUN_OPTIONS_HH
