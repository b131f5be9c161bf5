/**
 * @file
 * Simulator-side task bookkeeping. Hardware messages carry only the
 * <TRS, SLOT> identifiers of the paper; the registry is the
 * simulator's side-band that maps those ids back to trace records
 * (for worker runtimes) and collects per-task timestamps for the
 * evaluation statistics. It models no hardware storage.
 */

#ifndef TSS_CORE_TASK_REGISTRY_HH
#define TSS_CORE_TASK_REGISTRY_HH

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"
#include "trace/task_trace.hh"

namespace tss
{

/** Per-task lifecycle timestamps (simulation instrumentation). */
struct TaskRecord
{
    Cycle submitted = invalidCycle;  ///< pushed by the thread
    Cycle decodeDone = invalidCycle; ///< all operands in the graph
    Cycle started = invalidCycle;    ///< began executing on a core
    Cycle finished = invalidCycle;   ///< kernel completed

    /** Worker core that executed the task (replay-mode schedule). */
    unsigned core = ~0u;
};

/**
 * Object ticket of one memory operand: its position in the object's
 * program-order access sequence, as stamped by the task-creating
 * runtime (see DecodeOperandMsg in core/protocol.hh).
 */
struct ObjectTicket
{
    std::uint32_t epoch = 0;      ///< preceding writes to the object
    std::uint32_t priorReads = 0; ///< readers of the preceding epoch
};

/** Maps in-flight hardware task ids to trace indices and records. */
class TaskRegistry
{
  public:
    /**
     * Track @p task_trace's tasks on a machine of @p num_trs TRSs with
     * @p slots_per_trs slots each. The id map is a flat
     * per-<TRS, SLOT> table: each TRS binds and unbinds only its own
     * rows, and worker cores in other NoC domains read fixed memory
     * locations whose writes the engine's window barriers order.
     */
    TaskRegistry(const TaskTrace &task_trace, unsigned num_trs,
                 unsigned slots_per_trs)
        : trace(task_trace), records(task_trace.size()),
          idTable(static_cast<std::size_t>(num_trs) * slots_per_trs),
          slotsPerTrs(slots_per_trs),
          finishedFlags(task_trace.size(), 0)
    {}

    /** Bind a hardware id to a trace task at allocation time. */
    void
    bind(TaskId id, std::uint32_t trace_index)
    {
        IdEntry &e = idTable[entryIndex(id)];
        TSS_ASSERT(e.traceIndex == invalidIndex, "task id rebound");
        e = IdEntry{id.generation, trace_index};
    }

    /** Trace index of an in-flight task. */
    std::uint32_t
    traceIndex(TaskId id) const
    {
        const IdEntry &e = idTable[entryIndex(id)];
        TSS_ASSERT(e.traceIndex != invalidIndex &&
                       e.generation == id.generation,
                   "unknown task id %s", toString(id).c_str());
        return e.traceIndex;
    }

    TaskRecord &record(std::uint32_t trace_index)
    {
        return records[trace_index];
    }

    TaskRecord &record(TaskId id) { return records[traceIndex(id)]; }

    const std::vector<TaskRecord> &allRecords() const { return records; }

    /** A task's kernel completed on its core at @p now. */
    void
    recordFinish(std::uint32_t trace_index, Cycle now)
    {
        records[trace_index].finished = now;
        latestFinish = std::max(latestFinish, now);
    }

    /**
     * The latest task finish so far: the makespan once every task
     * finished, and the time base of the run-average metrics.
     */
    Cycle lastFinish() const { return latestFinish; }

    /** Drop the id binding once a task fully retired. */
    void
    unbind(TaskId id)
    {
        IdEntry &e = idTable[entryIndex(id)];
        TSS_ASSERT(e.traceIndex != invalidIndex &&
                       e.generation == id.generation,
                   "unbinding unknown task id");
        e.traceIndex = invalidIndex;
    }

    const TaskTrace &taskTrace() const { return trace; }

    /// @name Shared-data decode support. With several generating
    /// threads over shared objects, the runtime stamps every memory
    /// operand with an ObjectTicket and the machine circulates the
    /// oldest-unfinished-task watermark (the task-level ROB head),
    /// which lets the gateways keep window allocation deadlock-free.
    /// @{

    /** Precompute the per-object access tickets (program order). */
    void
    computeObjectTickets()
    {
        if (!tickets.empty() || trace.size() == 0)
            return;
        struct Seq
        {
            std::uint32_t epoch = 0;
            std::uint32_t readers = 0;
        };
        std::unordered_map<std::uint64_t, Seq> objects;
        tickets.resize(trace.size());
        for (std::size_t t = 0; t < trace.size(); ++t) {
            const auto &ops = trace.tasks[t].operands;
            tickets[t].assign(ops.size(), ObjectTicket{});
            for (std::size_t i = 0; i < ops.size(); ++i) {
                if (!isMemoryOperand(ops[i].dir))
                    continue;
                Seq &seq = objects[ops[i].addr];
                tickets[t][i] = {seq.epoch, seq.readers};
                if (writesObject(ops[i].dir)) {
                    ++seq.epoch;
                    seq.readers = 0;
                } else {
                    ++seq.readers;
                }
            }
        }
    }

    bool hasObjectTickets() const { return !tickets.empty(); }

    ObjectTicket
    objectTicket(std::uint32_t trace_index, std::size_t operand) const
    {
        return tickets[trace_index][operand];
    }

    /** A task's kernel retired (called by its TRS). */
    void
    markFinished(std::uint32_t trace_index)
    {
        finishedFlags[trace_index] = 1;
        while (minUnfinished < finishedFlags.size() &&
               finishedFlags[minUnfinished]) {
            ++minUnfinished;
        }
    }

    /** Smallest trace index whose task has not finished. */
    std::uint32_t
    minUnfinishedIndex() const
    {
        return static_cast<std::uint32_t>(minUnfinished);
    }
    /// @}

  private:
    static constexpr std::uint32_t invalidIndex = ~std::uint32_t(0);

    /** One flat-table row: valid while traceIndex != invalidIndex. */
    struct IdEntry
    {
        std::uint32_t generation = 0;
        std::uint32_t traceIndex = invalidIndex;
    };

    std::size_t
    entryIndex(TaskId id) const
    {
        TSS_ASSERT(id.slot < slotsPerTrs, "slot %u out of table range",
                   id.slot);
        std::size_t index =
            static_cast<std::size_t>(id.trs) * slotsPerTrs + id.slot;
        TSS_ASSERT(index < idTable.size(), "trs %u out of table range",
                   id.trs);
        return index;
    }

    const TaskTrace &trace;
    std::vector<TaskRecord> records;
    std::vector<IdEntry> idTable;
    unsigned slotsPerTrs;

    /// Per-task, per-operand object tickets (shared-data mode only).
    std::vector<std::vector<ObjectTicket>> tickets;

    std::vector<char> finishedFlags;
    std::size_t minUnfinished = 0;
    Cycle latestFinish = 0;
};

} // namespace tss

#endif // TSS_CORE_TASK_REGISTRY_HH
