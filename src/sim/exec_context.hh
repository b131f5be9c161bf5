/**
 * @file
 * Execution context of the parallel simulation engine. While a shard
 * of the sharded event queue drains a lookahead window, every event
 * runs with a thread-local ExecContext describing *which* event is
 * executing — (station, per-station sequence, cycle) — and carrying a
 * DeferSink. Operations that touch state outside the event's own NoC
 * domain (network sends, DMA transfers, registry retirement, global
 * gauges) are not applied in place: they are recorded into the sink
 * under a totally ordered SortKey and applied by the engine at the
 * window barrier, on one thread, in sorted order.
 *
 * Because the sort key is a pure function of simulated state — never
 * of host thread interleaving — the apply order is identical whether
 * the window drained on one thread or eight. That is the mechanism
 * behind the engine's bit-identical determinism guarantee.
 *
 * When no engine is driving (a bare EventQueue in a unit test, the
 * software-runtime model), the context's sink is null and every
 * operation applies immediately — the historical behavior.
 */

#ifndef TSS_SIM_EXEC_CONTEXT_HH
#define TSS_SIM_EXEC_CONTEXT_HH

#include <cstdint>
#include <iterator>
#include <utility>
#include <vector>

#include "event.hh"
#include "types.hh"

namespace tss
{

class EventQueue;

/**
 * Total order over deferred operations: (cycle, station, per-station
 * sequence, per-event operation index). Stations are globally unique
 * NoC node ids and a station lives on exactly one shard, so the key
 * is globally unique and engine-independent.
 */
struct DeferKey
{
    Cycle when = 0;
    std::int32_t station = -1;
    std::uint64_t seq = 0;
    std::uint32_t op = 0;

    friend bool
    operator<(const DeferKey &a, const DeferKey &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.station != b.station)
            return a.station < b.station;
        if (a.seq != b.seq)
            return a.seq < b.seq;
        return a.op < b.op;
    }

    friend bool
    operator==(const DeferKey &a, const DeferKey &b)
    {
        return a.when == b.when && a.station == b.station &&
            a.seq == b.seq && a.op == b.op;
    }
};

/**
 * Per-shard log of deferred operations. Only the shard's draining
 * thread appends; the engine's barrier (on the main thread) sorts the
 * union of all shards' logs and applies it.
 */
class DeferSink
{
  public:
    void
    record(DeferKey key, EventCallback apply)
    {
        ops.emplace_back(key, std::move(apply));
    }

    /**
     * Move the log onto the end of @p out (barrier side). The sink is
     * left empty with its capacity in place, so a warm sink records
     * without allocating.
     */
    void
    drainInto(std::vector<std::pair<DeferKey, EventCallback>> &out)
    {
        out.insert(out.end(), std::make_move_iterator(ops.begin()),
                   std::make_move_iterator(ops.end()));
        ops.clear();
    }

  private:
    std::vector<std::pair<DeferKey, EventCallback>> ops;
};

/**
 * The thread-local context of the currently executing event. Set by
 * EventQueue::step() when (and only when) a DeferSink is wired to the
 * queue; cleared after the event returns. `sink == nullptr` means "no
 * engine: apply operations immediately".
 */
struct ExecContext
{
    DeferSink *sink = nullptr;
    EventQueue *queue = nullptr;  ///< the draining shard
    std::int32_t station = -1;
    std::uint64_t seq = 0;
    Cycle when = 0;
    std::uint32_t opIndex = 0;

    /** Key for the next deferred op of this event. */
    DeferKey
    nextKey()
    {
        return DeferKey{when, station, seq, opIndex++};
    }
};

extern thread_local ExecContext execCtx;

} // namespace tss

#endif // TSS_SIM_EXEC_CONTEXT_HH
