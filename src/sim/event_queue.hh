/**
 * @file
 * The discrete-event simulation kernel. An event queue drives the
 * modules of one NoC domain (the whole system is a single domain in
 * the classic configuration); events scheduled for the same cycle
 * execute in (priority, station, per-station sequence) order so that
 * simulations are fully deterministic — the same tie-break key the
 * parallel engine (sim/sim_engine.hh) uses to merge cross-domain
 * operations at window barriers.
 */

#ifndef TSS_SIM_EVENT_QUEUE_HH
#define TSS_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <queue>
#include <vector>

#include "event.hh"
#include "exec_context.hh"
#include "hash.hh"
#include "logging.hh"
#include "obs/trace.hh"
#include "types.hh"

namespace tss
{

/**
 * Callback type executed when an event fires: a move-only pooled
 * callable (see event.hh), so scheduling a small closure allocates
 * nothing and closures may own resources (e.g. in-flight messages).
 */
using EventFn = EventCallback;

/**
 * A deterministic discrete-event queue.
 *
 * Ties at the same cycle break first on priority (lower first), then
 * on the scheduling station id, then on the station's own sequence
 * number — FIFO among same-cycle events of one station, and a total
 * order overall. Events scheduled without a station (plain
 * schedule()) share the anonymous station -1 and therefore keep the
 * historical global-FIFO behavior.
 *
 * Storage is split in two: callbacks live in a slab whose slots are
 * recycled through a free list (so scheduling allocates nothing once
 * the slab is warm), while the priority queue orders 32-byte POD keys
 * that reference slab slots. Heap sifts therefore move small PODs
 * instead of whole events.
 */
class EventQueue
{
  public:
    /** Default event priority. */
    static constexpr int defaultPriority = 0;

    /** The anonymous station of plain schedule() calls. */
    static constexpr std::int32_t noStation = -1;

    /** Current simulated time. */
    Cycle now() const { return _now; }

    /** True when no events remain. */
    bool empty() const { return heap.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return heap.size(); }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return numExecuted; }

    /**
     * Running digest of the executed event stream: every event's
     * full ordering key (cycle, priority, station, per-station
     * sequence), folded in execution order. Barring a 64-bit
     * collision, equal digests mean the same events ran in the same
     * order — a gate that also catches reorderings whose effects
     * happen to commute.
     */
    std::uint64_t digest() const { return _digest; }

    /** Firing time of the earliest pending event (invalidCycle: none). */
    Cycle
    nextTime() const
    {
        return heap.empty() ? invalidCycle : heap.top().when;
    }

    /**
     * Schedule an event at an absolute cycle on behalf of a station.
     * @param when Absolute firing time; must not be in the past.
     * @param station Scheduling station (a NoC node id), or noStation.
     * @param fn Callback to execute.
     * @param priority Tie-break priority (lower fires first).
     */
    void
    scheduleStation(Cycle when, std::int32_t station, EventFn fn,
                    int priority = defaultPriority)
    {
        TSS_ASSERT(when >= _now,
                   "event scheduled in the past (%llu < %llu)",
                   (unsigned long long)when, (unsigned long long)_now);
        std::uint32_t slot;
        if (freeSlots.empty()) {
            slot = static_cast<std::uint32_t>(slab.size());
            slab.push_back(std::move(fn));
        } else {
            slot = freeSlots.back();
            freeSlots.pop_back();
            slab[slot] = std::move(fn);
        }
        heap.push(Key{when, stationSeq(station), priority, station,
                      slot});
    }

    /** Schedule an event at an absolute cycle (anonymous station). */
    void
    schedule(Cycle when, EventFn fn, int priority = defaultPriority)
    {
        scheduleStation(when, noStation, std::move(fn), priority);
    }

    /** Schedule an event @p delay cycles from now. */
    void
    scheduleIn(Cycle delay, EventFn fn, int priority = defaultPriority)
    {
        schedule(_now + delay, std::move(fn), priority);
    }

    /**
     * Execute the next pending event, advancing simulated time.
     * @retval true if an event was executed.
     */
    bool
    step()
    {
        if (heap.empty())
            return false;
        Key top = heap.top();
        TSS_ASSERT(top.when >= _now, "event queue went backwards");
        TSS_ASSERT(!(top.when == lastKey.when &&
                     top.priority == lastKey.priority &&
                     top.station == lastKey.station &&
                     top.seq == lastKey.seq && numExecuted > 0),
                   "duplicate event ordering key (station %d seq %llu "
                   "at cycle %llu)",
                   (int)top.station, (unsigned long long)top.seq,
                   (unsigned long long)top.when);
        lastKey = top;
        _digest = digestKey(_digest, top.when, top.priority, top.station,
                            top.seq);
        _now = top.when;
        heap.pop();
        EventFn fn = std::move(slab[top.slot]);
        freeSlots.push_back(top.slot);
        ++numExecuted;
        if (trace)
            obs::traceBuf = trace;
        if (sink) {
            execCtx.sink = sink;
            execCtx.queue = this;
            execCtx.station = top.station;
            execCtx.seq = top.seq;
            execCtx.when = top.when;
            execCtx.opIndex = 0;
            fn();
            execCtx = ExecContext{};
        } else {
            fn();
        }
        if (trace)
            obs::traceBuf = nullptr;
        return true;
    }

    /**
     * Run until the queue drains or @p max_events have executed.
     * @return The number of events executed by this call.
     */
    std::uint64_t
    run(std::uint64_t max_events = ~std::uint64_t(0))
    {
        std::uint64_t n = 0;
        while (n < max_events && step())
            ++n;
        return n;
    }

    /**
     * Run until simulated time would exceed @p limit (events at
     * exactly @p limit still execute).
     */
    std::uint64_t
    runUntil(Cycle limit)
    {
        std::uint64_t n = 0;
        while (!heap.empty() && heap.top().when <= limit && step())
            ++n;
        return n;
    }

    /** Callback slots currently parked in the slab (for tests). */
    std::size_t slabCapacity() const { return slab.size(); }

    /**
     * Wire the deferred-operation sink of the parallel engine. While
     * set, every executed event runs under a thread-local ExecContext
     * (see exec_context.hh) and cross-domain operations defer.
     */
    void setDeferSink(DeferSink *s) { sink = s; }

    /**
     * Wire the flight recorder's buffer for this shard. While set,
     * every executed event emits into it via the thread-local
     * obs::traceBuf, which step() scopes to the event — the TLS
     * pointer is never left set across runs (independent Systems
     * drain on shared host threads in tss-serve).
     */
    void setTraceBuf(obs::TraceBuf *t) { trace = t; }

    /**
     * Conservative floor on deferred operations that schedule onto
     * this queue: the first cycle past the window just drained, set
     * by the engine around the barrier's apply phase (0 outside it,
     * making the bound a no-op — bare queues and the software-runtime
     * model are unaffected). Deliveries that compute below it — only
     * same-station self-messages can, see sim/sim_engine.hh — are
     * lifted to the floor by the apply closures (network delivery,
     * DMA completion, TRS watermark flush) as
     * `max(computed_time, windowFloor())`. Every domain drains the
     * same window, so the floor is the same for every shard.
     *
     * Per queue rather than process-global: independent Systems
     * simulating concurrently (tss-serve runs one per execute worker)
     * must never observe each other's window ends.
     */
    void setWindowFloor(Cycle floor) { _windowFloor = floor; }
    Cycle windowFloor() const { return _windowFloor; }

  private:
    /** Ordering key referencing a slab slot; a 32-byte POD. */
    struct Key
    {
        Cycle when;
        std::uint64_t seq;
        int priority;
        std::int32_t station;
        std::uint32_t slot;
    };

    struct Later
    {
        bool
        operator()(const Key &a, const Key &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            if (a.priority != b.priority)
                return a.priority > b.priority;
            if (a.station != b.station)
                return a.station > b.station;
            return a.seq > b.seq;
        }
    };

    /** Next per-station sequence number (dense array, -1 at [0]). */
    std::uint64_t
    stationSeq(std::int32_t station)
    {
        auto index = static_cast<std::size_t>(station + 1);
        if (index >= seqOf.size())
            seqOf.resize(index + 1, 0);
        return seqOf[index]++;
    }

    std::priority_queue<Key, std::vector<Key>, Later> heap;
    std::vector<EventFn> slab;
    std::vector<std::uint32_t> freeSlots;
    std::vector<std::uint64_t> seqOf;
    Cycle _now = 0;
    Key lastKey{invalidCycle, 0, 0, noStation, 0};
    std::uint64_t numExecuted = 0;
    std::uint64_t _digest = digestSeed;
    Cycle _windowFloor = 0;
    DeferSink *sink = nullptr;
    obs::TraceBuf *trace = nullptr;
};

} // namespace tss

#endif // TSS_SIM_EVENT_QUEUE_HH
