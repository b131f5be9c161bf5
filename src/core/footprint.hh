/**
 * @file
 * What one trace can touch of the frontend's capacity tables. Table II
 * sizes the simulated machine: 16,384 version slots per OVT, 1,024
 * sets of 16 ways per ORT, 6,144 blocks per TRS on the default
 * machine. A job of a few dozen tasks reaches a sliver of that, so the
 * modules store only what the trace can reach, derived here at build.
 * Every simulated capacity (free counts, the reserve mark, the set
 * geometry) stays Table II's; only host storage shrinks, and each
 * module panics on an index past its bound.
 */

#ifndef TSS_CORE_FOOTPRINT_HH
#define TSS_CORE_FOOTPRINT_HH

#include <algorithm>
#include <vector>

#include "core/config.hh"
#include "mem/block_layout.hh"
#include "sim/logging.hh"
#include "trace/task_trace.hh"

namespace tss
{

/** Host-storage bounds of one machine's frontend tables for a trace. */
struct Footprint
{
    /** What the objects owned by one ORT/OVT slice can touch. */
    struct Slice
    {
        /// Version slots its claims can reach: one claim per memory
        /// operand at most (a reader miss or a writer).
        std::uint32_t versionSlots = 0;
        /// ORT sets its objects hash to (PipelineConfig::ortSetOf).
        std::vector<bool> sets;
    };

    /// Blocks any one TRS can hand out: every task's allocation at
    /// most, whichever TRS the gateways pick.
    std::uint32_t trsBlocks = 0;
    std::vector<Slice> slices; ///< by global slice index

    Footprint(const PipelineConfig &cfg, const TaskTrace &trace)
        : slices(cfg.totalOrt())
    {
        std::uint64_t blocks = 0, operands = 0;
        for (const TraceTask &task : trace.tasks) {
            std::size_t n = task.operands.size();
            if (n > layout::maxOperands) {
                fatal("task with %zu operands exceeds the %u-operand "
                      "TRS layout", n, layout::maxOperands);
            }
            blocks += layout::blocksForOperands(static_cast<unsigned>(n));
            operands += n;
        }
        trsBlocks = static_cast<std::uint32_t>(
            std::min<std::uint64_t>(blocks, cfg.blocksPerTrs()));

        // A trace with at least as many operands as the directory has
        // entries would seldom leave a set untouched: it gets whole
        // tables without a hashing pass over its operands.
        const std::uint32_t sets = cfg.ortSets();
        bool whole =
            operands >= std::uint64_t(sets) * cfg.ortWays * slices.size();
        std::vector<std::uint64_t> owned(slices.size(), whole ? operands : 0);
        for (Slice &slice : slices)
            slice.sets.assign(sets, whole);
        if (!whole) {
            for (const TraceTask &task : trace.tasks) {
                for (const TraceOperand &op : task.operands) {
                    if (!isMemoryOperand(op.dir))
                        continue;
                    unsigned s = cfg.shardOf(op.addr);
                    ++owned[s];
                    slices[s].sets[PipelineConfig::ortSetOf(op.addr,
                                                            sets)] = true;
                }
            }
        }
        for (std::size_t s = 0; s < slices.size(); ++s) {
            slices[s].versionSlots = static_cast<std::uint32_t>(
                std::min<std::uint64_t>(owned[s], cfg.slotsPerOvt()));
        }
    }
};

} // namespace tss

#endif // TSS_CORE_FOOTPRINT_HH
