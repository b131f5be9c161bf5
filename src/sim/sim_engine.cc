#include "sim_engine.hh"

#include <algorithm>

#include "logging.hh"
#include "obs/trace.hh"

namespace tss
{

namespace
{

bool
keyLess(const std::pair<DeferKey, EventCallback> &a,
        const std::pair<DeferKey, EventCallback> &b)
{
    return a.first < b.first;
}

} // namespace

SimEngine::SimEngine(unsigned num_domains)
{
    TSS_ASSERT(num_domains >= 1, "engine needs at least one domain");
    shards.reserve(num_domains);
    for (unsigned d = 0; d < num_domains; ++d) {
        auto s = std::make_unique<Shard>();
        s->queue.setDeferSink(&s->sink);
        shards.push_back(std::move(s));
    }
}

void
SimEngine::setLookahead(Cycle l)
{
    TSS_ASSERT(l >= 1, "lookahead must be at least one cycle");
    _lookahead = l;
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
        if (!s->queue.empty())
            return false;
    }
    return true;
}

std::uint64_t
SimEngine::executed() const
{
    std::uint64_t n = 0;
    for (const auto &s : shards)
        n += s->queue.executed();
    return n;
}

std::uint64_t
SimEngine::eventDigest() const
{
    std::uint64_t h = digestSeed;
    for (const auto &s : shards)
        h = digestFold(h, s->queue.digest());
    return h;
}

std::uint64_t
SimEngine::farEvents() const
{
    std::uint64_t n = 0;
    for (const auto &s : shards)
        n += s->queue.farEvents();
    return n;
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
SimEngine::applyBarrier(Cycle window_end)
{
    for (auto &s : shards)
        s->sink.drainInto(merged);
    if (merged.empty())
        return 0;
    std::sort(merged.begin(), merged.end(), keyLess);
    for (std::size_t i = 1; i < merged.size(); ++i) {
        TSS_ASSERT(!(merged[i - 1].first == merged[i].first),
                   "duplicate deferred-operation key (station %d seq "
                   "%llu at cycle %llu)",
                   (int)merged[i].first.station,
                   (unsigned long long)merged[i].first.seq,
                   (unsigned long long)merged[i].first.when);
    }

    // Deliveries computed inside the window (only same-station
    // self-messages can be) are floored just past it; see
    // EventQueue::setWindowFloor.
    for (auto &s : shards)
        s->queue.setWindowFloor(window_end + 1);
    for (auto &[k, apply] : merged) {
        _applyDigest = digestKey(_applyDigest, k.when, k.station, k.op, k.seq);
        apply();
    }
    for (auto &s : shards)
        s->queue.setWindowFloor(0);

    std::size_t applied = merged.size();
    merged.clear();
    return applied;
}

std::uint64_t
SimEngine::run(std::uint64_t max_events)
{
    const std::uint64_t start = executed();
    while (true) {
        Cycle t0 = invalidCycle;
        for (const auto &s : shards)
            t0 = std::min(t0, s->queue.nextTime());
        if (t0 == invalidCycle)
            break;

        // A shard's drain schedules only into its own queue (every
        // cross-domain operation defers), so draining one shard never
        // changes which others are active.
        const Cycle window_end = t0 + _lookahead - 1;
        unsigned active = 0;
        for (auto &s : shards) {
            if (s->queue.nextTime() <= window_end) {
                s->queue.runUntil(window_end);
                ++active;
            }
        }
        ++wstats.windows;
        wstats.occupancySum += active;
        wstats.maxOccupancy =
            std::max<std::uint64_t>(wstats.maxOccupancy, active);
        if (active == 1) {
            // Consecutive single-shard windows (the long single-domain
            // stretches of real traces) count as fused.
            ++wstats.singleShard;
            if (lastWindowSingle)
                ++wstats.fusedWindows;
            lastWindowSingle = true;
        } else {
            ++wstats.multiShard;
            lastWindowSingle = false;
        }

        // Deferred NoC sends/deliveries emit trace records too: route
        // them to the tracer's barrier buffer for the apply phase,
        // stamp the window, then drain this window's records in
        // DeferKey order.
        if (tracer)
            tracer->beginBarrier();
        std::size_t applied = applyBarrier(window_end);
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
