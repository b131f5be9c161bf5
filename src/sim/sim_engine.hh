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
 * The window grid is global: every window spans [t0, t0 + L - 1] with
 * L = Network::minDeliveryDelay() and t0 the minimum *virtual* next
 * event time over all shards. The delay-matrix mode
 * (setDomainLookahead, built by TopologyNetwork::domainLookahead)
 * does not move that grid. Instead it lets domain d *run ahead*:
 * whenever d has an event inside the grid window it drains to
 * t0 + L(d) - 1, where L(d) = min over every *incoming*
 * communication edge's pair delay. Events executed
 * beyond the grid window log their firing times (EventQueue::runUntil
 * overload); a shard's virtual next time is the earliest logged time
 * not yet reached by the grid, so t0 — and with it every barrier,
 * horizon and window floor — advances exactly as it would at uniform
 * lookahead. A run-ahead domain simply sits idle in the windows whose
 * events it already executed, so more windows have a single active
 * shard.
 *
 * Determinism: the merge key is a pure function of simulated state,
 * never of the order in which a window's shards drained, so the apply
 * order — and therefore every simulated statistic — is fixed by the
 * window grid alone. The barrier applies only the
 * sorted prefix of deferred operations whose key lies below the
 * post-drain global horizon (the minimum virtual next event time over
 * all shards); later ones stay pending. An operation with key w
 * therefore applies at the first barrier whose horizon exceeds w — a
 * grid property, independent of which (possibly earlier) window's
 * drain recorded it — so the apply schedule, the floors in force at
 * each apply, and hence the entire simulation are bit-identical
 * between uniform and delay-matrix lookahead by construction. At
 * uniform lookahead every recorded op lies below the horizon and the
 * prefix is the whole log, the historical apply-all barrier.
 *
 * Conservative safety of running ahead: every operation applied at a
 * barrier with window start t0 has key w >= t0 (deferred ops carry
 * key >= the previous horizon >= t0; fresh ops were recorded at
 * execution times >= t0), so a delivery into domain d computes to
 * >= w + pairDelay >= t0 + L(d) — strictly after everything d
 * executed, run-ahead included. Same-station self-messages are the
 * one exception (their delay can undercut L(d)), so domains holding
 * self-sending stations are pinned to L(d) = L by
 * TopologyNetwork::domainLookahead and never run ahead; their
 * self-deliveries are floored at the grid window end
 * (EventQueue::windowFloor) exactly as at uniform lookahead.
 * EventQueue::scheduleStation's past-scheduling assertion backstops
 * the whole argument — a mis-declared communication edge fails loudly
 * instead of drifting.
 *
 * Window structure: WindowStats counts windows by how many shards had
 * events inside them. Consecutive single-shard windows (the long
 * single-domain stretches every real trace has) count as fused.
 */

#ifndef TSS_SIM_SIM_ENGINE_HH
#define TSS_SIM_SIM_ENGINE_HH

#include <algorithm>
#include <cstdint>
#include <deque>
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
     * function of simulated state (which shards had events below
     * their limits) — gated exactly in BENCH_sim.json.
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
     * Set the uniform lookahead window length (cycles) for every
     * domain. Must be >= 1; derive it from
     * TopologyNetwork::minDeliveryDelay() so that real routes are
     * never floored.
     */
    void setLookahead(Cycle l);

    /**
     * Set per-domain window lengths (the delay-matrix mode). One
     * entry per domain, each >= 1 and safe per the file comment:
     * build the vector with TopologyNetwork::domainLookahead().
     */
    void setDomainLookahead(std::vector<Cycle> per_domain);

    /** The minimum window length over all domains. */
    Cycle lookahead() const { return _lookahead; }

    /** Domain @p d's window length. */
    Cycle domainLookahead(unsigned d) const { return domL[d]; }

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
        /// Firing times of events this shard executed ahead of the
        /// global window grid (delay-matrix mode only), in execution
        /// order. The front is the shard's virtual next event time;
        /// entries retire as the grid reaches them.
        std::deque<Cycle> ahead;
    };

    /// The shard's next event time as the uniform-lookahead engine
    /// would see it: run-ahead events count as pending until the grid
    /// reaches them.
    Cycle
    virtualNext(const Shard &s) const
    {
        Cycle n = s.queue.nextTime();
        return s.ahead.empty() ? n : std::min(n, s.ahead.front());
    }

    /// Drain shard @p d to its window limit, logging any execution
    /// beyond the grid window end as run-ahead.
    void
    drainShard(unsigned d)
    {
        Shard &s = *shards[d];
        if (shardLimit[d] == windowEnd)
            s.queue.runUntil(windowEnd);
        else
            s.queue.runUntil(shardLimit[d], windowEnd, &s.ahead);
    }

    std::size_t applyBarrier();

    std::vector<std::unique_ptr<Shard>> shards;
    Cycle _lookahead = 1;
    std::vector<Cycle> domL;  ///< per-domain window length
    obs::Tracer *tracer = nullptr;
    WindowStats wstats;
    bool lastWindowSingle = false;

    /// Per-shard drain limits of the current window, and the grid
    /// window end (t0 + lookahead - 1) shared by all shards.
    std::vector<Cycle> shardLimit;
    Cycle windowEnd = 0;

    /// Barrier scratch: this window's deferred ops (reused).
    std::vector<std::pair<DeferKey, EventCallback>> merged;

    /// Deferred operations not yet below the global horizon, sorted
    /// by key. Always empty at uniform lookahead (every op recorded
    /// in a window lies below the post-drain horizon); carries ops
    /// across barriers when per-domain windows run ahead.
    std::vector<std::pair<DeferKey, EventCallback>> pending;
};

} // namespace tss

#endif // TSS_SIM_SIM_ENGINE_HH
