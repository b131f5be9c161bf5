/**
 * @file
 * The discrete-event simulation kernel. An event queue drives the
 * modules of one NoC domain (the whole system is a single domain in
 * the classic configuration); events scheduled for the same cycle
 * execute in (station, per-station sequence) order so that
 * simulations are fully deterministic — the (cycle, station, seq)
 * prefix of the DeferKey the parallel engine (sim/sim_engine.hh) uses
 * to merge cross-domain operations at window barriers.
 */

#ifndef TSS_SIM_EVENT_QUEUE_HH
#define TSS_SIM_EVENT_QUEUE_HH

#include <algorithm>
#include <array>
#include <bit>
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
 * Ties at the same cycle break first on the scheduling station id,
 * then on the station's own sequence number — FIFO among same-cycle
 * events of one station, and a total order overall. Events scheduled
 * without a station (plain schedule()) share the anonymous station -1
 * and therefore keep the historical global-FIFO behavior.
 *
 * Callbacks live in a slab whose slots are recycled through a free
 * list, so scheduling allocates nothing once the slab is warm. The
 * pending events' keys are split by distance, after Brown's calendar
 * queue (CACM 1988):
 *
 *  - *Near* events, due in [now, now + wheelSlots), sit on a timing
 *    wheel indexed by `when % wheelSlots`. Each wheel slot holds one
 *    cycle's events as a list threaded through their slab slots, kept
 *    in (station, seq) order; nearly every insert appends.
 *    A 256-bit occupancy mask finds the next busy slot, and the
 *    earliest busy cycle is cached, so scheduling and popping a near
 *    event cost O(1). About 98% of a paper-mix run's events are near.
 *  - *Far* events (task runtimes, mostly) go to a binary heap of
 *    24-byte POD keys that reference slab slots. They never migrate:
 *    step() pops whichever of the wheel's first event and the heap's
 *    top comes first, so a cycle may hold events in both.
 *
 * Every pending event lies in [now, ∞) and now only advances to the
 * earliest pending event, so the wheel never holds two cycles in one
 * slot. The pop order is the one total order above, whichever side
 * an event was filed on.
 */
class EventQueue
{
  public:
    /** The anonymous station of plain schedule() calls. */
    static constexpr std::int32_t noStation = -1;

    /**
     * Cycles the timing wheel spans: events due fewer than this many
     * cycles ahead of now() are near, the rest far.
     */
    static constexpr unsigned wheelSlots = 256;

    EventQueue()
    {
        head.fill(noSlot);
        tail.fill(noSlot);
    }

    /** Current simulated time. */
    Cycle now() const { return _now; }

    /** True when no events remain. */
    bool empty() const { return nearCount == 0 && far.empty(); }

    /** Number of pending events. */
    std::size_t size() const { return nearCount + far.size(); }

    /** Total number of events executed so far. */
    std::uint64_t executed() const { return numExecuted; }

    /** Events scheduled so far into the far heap (see the class). */
    std::uint64_t farEvents() const { return numFar; }

    /**
     * Running digest of the executed event stream: every event's
     * full ordering key (cycle, station, per-station sequence),
     * folded in execution order. Barring a 64-bit
     * collision, equal digests mean the same events ran in the same
     * order — a gate that also catches reorderings whose effects
     * happen to commute.
     */
    std::uint64_t digest() const { return _digest; }

    /** Firing time of the earliest pending event (invalidCycle: none). */
    Cycle
    nextTime() const
    {
        return far.empty() ? nearMin : std::min(nearMin, far.top().when);
    }

    /**
     * Schedule an event at an absolute cycle on behalf of a station.
     * @param when Absolute firing time; must not be in the past.
     * @param station Scheduling station (a NoC node id), or noStation.
     * @param fn Callback to execute.
     */
    void
    scheduleStation(Cycle when, std::int32_t station, EventFn fn)
    {
        TSS_ASSERT(when >= _now,
                   "event scheduled in the past (%llu < %llu)",
                   (unsigned long long)when, (unsigned long long)_now);
        std::uint32_t slot;
        if (freeSlots.empty()) {
            slot = static_cast<std::uint32_t>(slab.size());
            slab.push_back(std::move(fn));
            nodes.emplace_back();
        } else {
            slot = freeSlots.back();
            freeSlots.pop_back();
            slab[slot] = std::move(fn);
        }
        const std::uint64_t seq = stationSeq(station);
        if (when - _now < wheelSlots) {
            insertNear(slot, Node{when, seq, station, noSlot});
        } else {
            ++numFar;
            far.push(Key{when, seq, station, slot});
        }
    }

    /** Schedule an event at an absolute cycle (anonymous station). */
    void
    schedule(Cycle when, EventFn fn)
    {
        scheduleStation(when, noStation, std::move(fn));
    }

    /** Schedule an event @p delay cycles from now. */
    void
    scheduleIn(Cycle delay, EventFn fn)
    {
        schedule(_now + delay, std::move(fn));
    }

    /**
     * Execute the next pending event, advancing simulated time.
     * @retval true if an event was executed.
     */
    bool step() { return stepUntil(invalidCycle); }

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
        while (stepUntil(limit))
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
    /** Slab-slot index that ends a wheel slot's list. */
    static constexpr std::uint32_t noSlot = ~std::uint32_t(0);
    static constexpr unsigned wheelMask = wheelSlots - 1;
    static constexpr unsigned maskWords = wheelSlots / 64;
    static_assert(std::has_single_bit(wheelSlots) && maskWords >= 1,
                  "the wheel spans a power of two of at least 64 slots");

    /** An event's ordering key and slab slot: the far heap's element. */
    struct Key
    {
        Cycle when;
        std::uint64_t seq;
        std::int32_t station;
        std::uint32_t slot;
    };

    /**
     * A near event's ordering key (stored at its slab slot), linked
     * to the next slab slot of its wheel slot's list.
     */
    struct Node
    {
        Cycle when;
        std::uint64_t seq;
        std::int32_t station;
        std::uint32_t next;
    };

    /** The total order, over Keys and Nodes alike: true if a > b. */
    struct Later
    {
        template <typename A, typename B>
        bool
        operator()(const A &a, const B &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
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

    /** File a near event, whose key is @p node, at slab slot @p slot. */
    void
    insertNear(std::uint32_t slot, const Node &node)
    {
        const unsigned w = node.when & wheelMask;
        nodes[slot] = node;
        if (head[w] == noSlot) {
            head[w] = tail[w] = slot;
            busy[w / 64] |= std::uint64_t(1) << (w % 64);
        } else if (Later{}(node, nodes[tail[w]])) {
            nodes[tail[w]].next = slot;
            tail[w] = slot;
        } else {
            // A lower station than the slot's last event (a few
            // percent of inserts): link in before the first later one.
            std::uint32_t *link = &head[w];
            while (!Later{}(nodes[*link], node))
                link = &nodes[*link].next;
            nodes[slot].next = *link;
            *link = slot;
        }
        ++nearCount;
        nearMin = std::min(nearMin, node.when);
    }

    /** Remove the far heap's top and return it. */
    Key
    popFar()
    {
        Key key = far.top();
        far.pop();
        return key;
    }

    /** Unlink the wheel's first event and return its key. */
    Key
    popNear()
    {
        const unsigned w = nearMin & wheelMask;
        const std::uint32_t slot = head[w];
        const Node &node = nodes[slot];
        head[w] = node.next;
        --nearCount;
        if (head[w] == noSlot) {
            busy[w / 64] &= ~(std::uint64_t(1) << (w % 64));
            nearMin = nextBusy(node.when + 1);
        }
        return Key{node.when, node.seq, node.station, slot};
    }

    /**
     * Earliest busy wheel cycle at or after @p from (invalidCycle when
     * the wheel is empty); every near event must lie in
     * [from, from + wheelSlots).
     */
    Cycle
    nextBusy(Cycle from) const
    {
        if (nearCount == 0)
            return invalidCycle;
        const unsigned start = from & wheelMask;
        unsigned word = start / 64;
        std::uint64_t bits = busy[word] & (~std::uint64_t(0) << (start % 64));
        while (bits == 0) {
            word = (word + 1) % maskWords;
            bits = busy[word];
        }
        const unsigned w = word * 64 + std::countr_zero(bits);
        return from + ((w - start) & wheelMask);
    }

    /** True when the far heap's top precedes the wheel's first event. */
    bool
    farFirst() const
    {
        if (far.empty())
            return false;
        if (nearCount == 0)
            return true;
        const Key &top = far.top();
        if (top.when != nearMin)
            return top.when < nearMin;
        return Later{}(nodes[head[nearMin & wheelMask]], top);
    }

    /**
     * Execute the next pending event if it fires at or before
     * @p limit, advancing simulated time.
     * @retval true if an event was executed.
     */
    bool
    stepUntil(Cycle limit)
    {
        if (empty())
            return false;
        const bool from_far = farFirst();
        if ((from_far ? far.top().when : nearMin) > limit)
            return false;
        const Key top = from_far ? popFar() : popNear();
        TSS_ASSERT(top.when >= _now, "event queue went backwards");
        TSS_ASSERT(!(top.when == lastKey.when &&
                     top.station == lastKey.station &&
                     top.seq == lastKey.seq && numExecuted > 0),
                   "duplicate event ordering key (station %d seq %llu "
                   "at cycle %llu)",
                   (int)top.station, (unsigned long long)top.seq,
                   (unsigned long long)top.when);
        lastKey = top;
        // 0 where the retired event priority was folded, so every
        // pinned digest keeps its value.
        _digest = digestKey(_digest, top.when, 0, top.station, top.seq);
        _now = top.when;
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

    std::priority_queue<Key, std::vector<Key>, Later> far;
    std::vector<EventFn> slab;
    std::vector<Node> nodes; ///< parallel to slab; near events only
    std::array<std::uint32_t, wheelSlots> head;
    std::array<std::uint32_t, wheelSlots> tail;
    std::array<std::uint64_t, maskWords> busy{};
    std::size_t nearCount = 0;
    Cycle nearMin = invalidCycle; ///< earliest busy wheel cycle
    std::uint64_t numFar = 0;
    std::vector<std::uint32_t> freeSlots;
    std::vector<std::uint64_t> seqOf;
    Cycle _now = 0;
    Key lastKey{invalidCycle, 0, noStation, 0};
    std::uint64_t numExecuted = 0;
    std::uint64_t _digest = digestSeed;
    Cycle _windowFloor = 0;
    DeferSink *sink = nullptr;
    obs::TraceBuf *trace = nullptr;
};

} // namespace tss

#endif // TSS_SIM_EVENT_QUEUE_HH
