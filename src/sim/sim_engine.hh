/**
 * @file
 * Conservative windowed discrete-event engine. SimObject stations are
 * partitioned into NoC domains (one per frontend pipeline: the slice
 * plus its attached gateway/TRS stations, sources and processor-ring
 * cores assigned round-robin, plus a dedicated domain for the shared
 * backend — network, DMA, scheduler); each domain owns a slab-recycled
 * EventQueue shard. Domains synchronize in lookahead windows: each
 * window drains every shard with events inside it, one after another
 * on the calling thread, and every operation that crosses domain
 * state — NoC sends, DMA transfers, registry retirement, global
 * gauges — is recorded in the draining shard's DeferSink instead of
 * applied in place. At the window barrier the engine sorts the union
 * of all logs by the (cycle, station, per-station sequence, op) key
 * and applies it.
 *
 * No shard reads another's state inside a window, so a window's shards
 * could drain on separate host threads without changing a bit. None
 * do: handing a window to a worker pool costs about a microsecond
 * (several of the simulator's ~300 ns events) and pays only once a
 * window holds hundreds of events outside its busiest shard, while
 * the widest System windows hold a few dozen (ROADMAP records the
 * measurement). PipelineConfig::simThreads therefore has no effect on
 * the engine.
 *
 * The window grid: every window spans [t0, t0 + L - 1] with
 * L = Network::minDeliveryDelay() and t0 the minimum next event time
 * over all shards, and every domain drains exactly that window.
 * Conservative safety: an operation recorded in the window carries
 * its event's cycle w >= t0, and a delivery between distinct stations
 * takes at least L cycles, so it lands at >= w + L >= t0 + L —
 * strictly after everything any shard just drained. Same-station
 * self-messages are the one exception (their delay can undercut L):
 * the barrier floors them just past the window
 * (EventQueue::windowFloor).
 * EventQueue::scheduleStation's past-scheduling assertion backstops
 * the argument.
 *
 * Determinism: the merge key is a pure function of simulated state,
 * never of the order in which a window's shards drained, so the apply
 * order — and therefore every simulated statistic — is fixed by the
 * window grid alone. Every operation recorded in a window lies below
 * the next window's start, so each barrier applies its whole log.
 *
 * Window structure: WindowStats counts windows by how many shards had
 * events inside them. Consecutive single-shard windows (the long
 * single-domain stretches every real trace has) count as fused.
 */

#ifndef TSS_SIM_SIM_ENGINE_HH
#define TSS_SIM_SIM_ENGINE_HH

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "event_queue.hh"
#include "exec_context.hh"

namespace tss
{

namespace obs
{
class Tracer;
} // namespace obs

/** The sharded, window-synchronized event engine. */
class SimEngine
{
  public:
    /**
     * Deterministic window-structure counters: every field is a pure
     * function of simulated state (which shards had events inside
     * each window) — gated exactly in BENCH_sim.json.
     */
    struct WindowStats
    {
        std::uint64_t windows = 0;      ///< lookahead windows run
        std::uint64_t singleShard = 0;  ///< windows with one active shard
        std::uint64_t fusedWindows = 0; ///< consecutive single-shard
        std::uint64_t multiShard = 0;   ///< windows with >= 2 active
        std::uint64_t occupancySum = 0; ///< Σ active shards per window
        std::uint64_t maxOccupancy = 0; ///< peak active shards
    };

    /** @param num_domains Number of event-queue shards. */
    explicit SimEngine(unsigned num_domains);

    SimEngine(const SimEngine &) = delete;
    SimEngine &operator=(const SimEngine &) = delete;

    /**
     * Set the window length (cycles). Must be >= 1; derive it from
     * Network::minDeliveryDelay() so that real routes are never
     * floored.
     */
    void setLookahead(Cycle l);

    unsigned numDomains() const
    {
        return static_cast<unsigned>(shards.size());
    }

    EventQueue &shard(unsigned domain) { return shards[domain]->queue; }

    /**
     * Wire a flight recorder (or unwire with nullptr). The tracer
     * must have one buffer per domain; the engine routes barrier-side
     * emissions and drains the window's records after every barrier,
     * in DeferKey order.
     */
    void setTracer(obs::Tracer *t);

    /** Latest simulated time any shard has reached. */
    Cycle now() const;

    /** True when every shard has drained. */
    bool empty() const;

    /** Total events executed across all shards. */
    std::uint64_t executed() const;

    /** Deterministic window-structure counters so far. */
    const WindowStats &windowStats() const { return wstats; }

    /** The shards' event-stream digests, folded in domain order. */
    std::uint64_t eventDigest() const;

    /** Events scheduled into the shards' far heaps (EventQueue). */
    std::uint64_t farEvents() const;

    /**
     * Running digest of every deferred operation's DeferKey, folded
     * in the barriers' apply order.
     */
    std::uint64_t applyDigest() const { return _applyDigest; }

    /**
     * Run lookahead windows until every shard drains or at least
     * @p max_events events have executed (checked at window barriers;
     * a window may overshoot the budget — deterministically).
     * @return Events executed by this call.
     */
    std::uint64_t run(std::uint64_t max_events = ~std::uint64_t(0));

  private:
    struct Shard
    {
        EventQueue queue;
        DeferSink sink;
    };

    std::size_t applyBarrier(Cycle window_end);

    std::vector<std::unique_ptr<Shard>> shards;
    Cycle _lookahead = 1;
    obs::Tracer *tracer = nullptr;
    WindowStats wstats;
    std::uint64_t _applyDigest = digestSeed;
    bool lastWindowSingle = false;

    /// Barrier scratch: this window's deferred ops (reused).
    std::vector<std::pair<DeferKey, EventCallback>> merged;
};

} // namespace tss

#endif // TSS_SIM_SIM_ENGINE_HH
