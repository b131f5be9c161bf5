#include "sim_engine.hh"

#include <algorithm>

#include "logging.hh"
#include "obs/trace.hh"
#include "runtime/work_deque.hh"

namespace tss
{

namespace
{

/// Iterations of bounded spinning before a waiter parks. Short on
/// purpose: on an oversubscribed or 1-core host the yield gives the
/// partner thread its timeslice, and parking promptly afterwards
/// stops the window barrier from burning cycles the drain could use.
constexpr unsigned kSpinIters = 64;

bool
keyLess(const std::pair<DeferKey, EventCallback> &a,
        const std::pair<DeferKey, EventCallback> &b)
{
    return a.first < b.first;
}

} // namespace

SimEngine::SimEngine(unsigned num_domains, unsigned sim_threads)
{
    TSS_ASSERT(num_domains >= 1, "engine needs at least one domain");
    shards.reserve(num_domains);
    for (unsigned d = 0; d < num_domains; ++d) {
        auto s = std::make_unique<Shard>();
        s->queue.setDeferSink(&s->sink);
        shards.push_back(std::move(s));
    }
    domL.assign(num_domains, 1);
    shardLimit.assign(num_domains, 0);
    threads = std::max(1u, std::min(sim_threads, num_domains));
    if (threads > 1)
        work = std::make_unique<WorkDeque>(num_domains);
}

SimEngine::~SimEngine()
{
    if (spawned) {
        quit.store(true, std::memory_order_relaxed);
        {
            std::lock_guard<std::mutex> lk(poolMtx);
            epoch.fetch_add(1, std::memory_order_release);
        }
        poolCv.notify_all();
        for (auto &w : workers)
            w.join();
    }
}

void
SimEngine::setLookahead(Cycle l)
{
    TSS_ASSERT(l >= 1, "lookahead must be at least one cycle");
    _lookahead = l;
    domL.assign(shards.size(), l);
}

void
SimEngine::setDomainLookahead(std::vector<Cycle> per_domain)
{
    TSS_ASSERT(per_domain.size() == shards.size(),
               "need one lookahead per domain (%zu given, %zu domains)",
               per_domain.size(), shards.size());
    Cycle min_l = invalidCycle;
    for (Cycle l : per_domain) {
        TSS_ASSERT(l >= 1, "lookahead must be at least one cycle");
        min_l = std::min(min_l, l);
    }
    domL = std::move(per_domain);
    _lookahead = min_l;
}

Cycle
SimEngine::now() const
{
    Cycle t = 0;
    for (const auto &s : shards)
        t = std::max(t, s->queue.now());
    return t;
}

bool
SimEngine::empty() const
{
    for (const auto &s : shards) {
        if (!s->queue.empty() || !s->ahead.empty())
            return false;
    }
    return pending.empty();
}

std::uint64_t
SimEngine::executed() const
{
    std::uint64_t n = 0;
    for (const auto &s : shards)
        n += s->queue.executed();
    return n;
}

void
SimEngine::spawnWorkers()
{
    if (spawned)
        return;
    spawned = true;
    workers.reserve(threads - 1);
    for (unsigned w = 0; w + 1 < threads; ++w)
        workers.emplace_back([this] { workerLoop(); });
}

void
SimEngine::workerLoop()
{
    std::uint64_t seen = 0;
    while (true) {
        std::uint64_t e;
        unsigned spins = 0;
        while ((e = epoch.load(std::memory_order_acquire)) == seen) {
            if (++spins < kSpinIters) {
                std::this_thread::yield();
                continue;
            }
            // Park. The publisher bumps `epoch` under poolMtx before
            // notifying, and the predicate re-checks under the same
            // lock, so the wakeup cannot be lost.
            std::unique_lock<std::mutex> lk(poolMtx);
            poolCv.wait(lk, [&] {
                return epoch.load(std::memory_order_acquire) != seen;
            });
        }
        seen = e;
        if (quit.load(std::memory_order_relaxed))
            return;
        std::uint32_t d;
        while (work->steal(d)) {
            // Safe plain reads inside drainShard: main stores the
            // limits *before* the push, and the steal's acquire
            // synchronizes with the push's release — a successful
            // steal of shard d always observes d's own window limit
            // and the grid window end.
            drainShard(d);
            if (remaining.fetch_sub(1, std::memory_order_release) ==
                1) {
                // Last shard of the window: wake the main thread if
                // it parked at the barrier.
                std::lock_guard<std::mutex> lk(poolMtx);
                doneCv.notify_one();
            }
        }
    }
}

void
SimEngine::setTracer(obs::Tracer *t)
{
    TSS_ASSERT(!t || t->numShards() == shards.size(),
               "tracer shard-buffer count must match engine domains");
    tracer = t;
    for (unsigned d = 0; d < shards.size(); ++d)
        shards[d]->queue.setTraceBuf(t ? t->shardBuf(d) : nullptr);
}

std::size_t
SimEngine::applyBarrier()
{
    merged.clear();
    for (auto &s : shards)
        s->sink.drainInto(merged);
    if (!merged.empty()) {
        std::sort(merged.begin(), merged.end(), keyLess);
        if (pending.empty()) {
            pending.swap(merged);
        } else {
            std::size_t mid = pending.size();
            pending.insert(pending.end(),
                           std::make_move_iterator(merged.begin()),
                           std::make_move_iterator(merged.end()));
            std::inplace_merge(pending.begin(), pending.begin() + mid,
                               pending.end(), keyLess);
            merged.clear();
        }
    }
    if (pending.empty())
        return 0;
    for (std::size_t i = 1; i < pending.size(); ++i) {
        TSS_ASSERT(!(pending[i - 1].first == pending[i].first),
                   "duplicate deferred-operation key (station %d seq "
                   "%llu at cycle %llu)",
                   (int)pending[i].first.station,
                   (unsigned long long)pending[i].first.seq,
                   (unsigned long long)pending[i].first.when);
    }

    // The global horizon: the minimum *virtual* next event time over
    // all shards — exactly what the uniform-lookahead engine would
    // compute, since run-ahead events stay virtually pending until
    // the grid reaches them. Only deferred operations recorded
    // strictly below it may apply — later ones stay pending, so each
    // op applies at the first barrier whose horizon exceeds its key,
    // a grid property independent of which window's drain recorded
    // it. At uniform lookahead every recorded op lies below the
    // horizon and the prefix is the whole log, the historical
    // apply-all barrier.
    Cycle horizon = invalidCycle;
    for (const auto &s : shards)
        horizon = std::min(horizon, virtualNext(*s));

    // Deliveries computed below the grid window end (only
    // same-station self-messages can be) are floored at it; the floor
    // is the same for every shard — run-ahead never moves the grid —
    // so the clamp is bit-identical across lookahead modes. See
    // EventQueue::setWindowFloor.
    for (unsigned d = 0; d < shards.size(); ++d)
        shards[d]->queue.setWindowFloor(windowEnd + 1);
    auto it = pending.begin();
    for (; it != pending.end() && it->first.when < horizon; ++it)
        it->second();
    for (unsigned d = 0; d < shards.size(); ++d)
        shards[d]->queue.setWindowFloor(0);

    auto applied = static_cast<std::size_t>(it - pending.begin());
    pending.erase(pending.begin(), it);
    return applied;
}

std::uint64_t
SimEngine::run(std::uint64_t max_events)
{
    const std::uint64_t start = executed();
    const auto nd = static_cast<unsigned>(shards.size());
    while (true) {
        Cycle t0 = invalidCycle;
        for (const auto &s : shards)
            t0 = std::min(t0, virtualNext(*s));
        if (t0 == invalidCycle) {
            TSS_ASSERT(pending.empty(),
                       "deferred operations pending with every shard "
                       "drained");
            break;
        }

        // The grid window. Run-ahead events whose global-mode window
        // this is retire from the virtual clock now — the grid has
        // caught up with them.
        windowEnd = t0 + _lookahead - 1;
        for (auto &s : shards) {
            while (!s->ahead.empty() && s->ahead.front() <= windowEnd)
                s->ahead.pop_front();
        }

        // Window membership is decided on the grid window, not the
        // per-domain drain limit: a wide domain drains *deeper* once
        // it has an event in the grid window, but a wider limit never
        // pulls it into a window it would sit out at uniform
        // lookahead. Run-ahead can therefore only remove a shard from
        // future windows (it already executed their events), pushing
        // windows toward the single-shard inline path.
        unsigned active = 0;
        unsigned only = 0;
        for (unsigned d = 0; d < nd; ++d) {
            shardLimit[d] = t0 + domL[d] - 1;
            if (shards[d]->queue.nextTime() <= windowEnd) {
                ++active;
                only = d;
            }
        }
        ++wstats.windows;
        wstats.occupancySum += active;
        wstats.maxOccupancy =
            std::max<std::uint64_t>(wstats.maxOccupancy, active);

        if (active == 0) {
            // Every event of this grid window already ran ahead: the
            // window only advances the grid and matures deferred
            // operations at the barrier below.
        } else if (active == 1) {
            // Window fusion: one active shard needs no worker pool —
            // drain it inline, skipping the epoch publish, the deque
            // dispatch and the barrier spin entirely. Consecutive
            // single-shard windows (the long single-domain stretches
            // of real traces) fuse into back-to-back inline drains.
            ++wstats.singleShard;
            if (lastWindowSingle)
                ++wstats.fusedWindows;
            lastWindowSingle = true;
            drainShard(only);
        } else {
            ++wstats.multiShard;
            lastWindowSingle = false;
            if (threads == 1) {
                // Inline windowed drain: same algorithm, no pool.
                for (unsigned d = 0; d < nd; ++d) {
                    if (shards[d]->queue.nextTime() <= windowEnd)
                        drainShard(d);
                }
            } else {
                spawnWorkers();
                remaining.store(active, std::memory_order_relaxed);
                // The pushes' release stores publish shardLimit,
                // windowEnd and `remaining` to every successful
                // stealer.
                for (unsigned d = 0; d < nd; ++d) {
                    if (shards[d]->queue.nextTime() <= windowEnd)
                        work->push(d);
                }
                {
                    std::lock_guard<std::mutex> lk(poolMtx);
                    epoch.fetch_add(1, std::memory_order_release);
                }
                poolCv.notify_all();
                std::uint32_t d;
                while (work->pop(d)) {
                    drainShard(d);
                    remaining.fetch_sub(1, std::memory_order_release);
                }
                unsigned spins = 0;
                while (remaining.load(std::memory_order_acquire) >
                       0) {
                    if (++spins < kSpinIters) {
                        std::this_thread::yield();
                        continue;
                    }
                    // Park until the window's last worker (which
                    // takes poolMtx before notifying) wakes us.
                    std::unique_lock<std::mutex> lk(poolMtx);
                    doneCv.wait(lk, [&] {
                        return remaining.load(
                                   std::memory_order_acquire) == 0;
                    });
                    break;
                }
            }
        }

        // Deferred NoC sends/deliveries emit trace records too: route
        // them to the tracer's barrier buffer for the apply phase,
        // stamp the window, then drain this window's records in
        // DeferKey order (deterministic for any thread count).
        if (tracer)
            tracer->beginBarrier();
        std::size_t applied = applyBarrier();
        if (tracer) {
            if (applied > 0)
                tracer->recordWindowBarrier(t0 + _lookahead, applied);
            tracer->endBarrier();
            tracer->drainWindow();
        }

        if (executed() - start >= max_events)
            break; // deterministic overshoot: checked at barriers only
    }
    return executed() - start;
}

} // namespace tss
