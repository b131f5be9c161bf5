/**
 * @file
 * Unit tests for the simulation kernel: event queue ordering, clock
 * conversions, statistics, and the deterministic RNG.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <queue>
#include <set>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/hash.hh"
#include "sim/random.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tss
{
namespace
{

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameCycleIsFifo)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, EventsCanScheduleEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        eq.scheduleIn(4, [&] { fired = static_cast<int>(eq.now()); });
    });
    eq.run();
    EXPECT_EQ(fired, 5);
}

TEST(EventQueue, RunUntilStopsAtLimit)
{
    EventQueue eq;
    int count = 0;
    for (Cycle c = 1; c <= 10; ++c)
        eq.schedule(c * 10, [&] { ++count; });
    eq.runUntil(50);
    EXPECT_EQ(count, 5);
    EXPECT_FALSE(eq.empty());
    eq.run();
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, RunHonorsMaxEvents)
{
    EventQueue eq;
    int count = 0;
    for (int i = 0; i < 100; ++i)
        eq.schedule(i, [&] { ++count; });
    EXPECT_EQ(eq.run(10), 10u);
    EXPECT_EQ(count, 10);
}

TEST(EventQueue, StationBreaksTiesBeforeSeq)
{
    // Same cycle: lower station id fires first, even when the higher
    // station scheduled earlier (got a lower seq).
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleStation(5, 7, [&] { order.push_back(7); });
    eq.scheduleStation(5, 2, [&] { order.push_back(2); });
    eq.scheduleStation(5, 4, [&] { order.push_back(4); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{2, 4, 7}));
}

TEST(EventQueue, SameStationSameCycleIsFifo)
{
    // The per-station sequence number preserves program order among
    // one station's same-cycle events, independent of how events of
    // other stations interleave in the heap.
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 8; ++i) {
        eq.scheduleStation(9, 3, [&order, i] { order.push_back(i); });
        eq.scheduleStation(9, 11, [&order, i] {
            order.push_back(100 + i);
        });
    }
    eq.run();
    ASSERT_EQ(order.size(), 16u);
    // All of station 3 before any of station 11, each FIFO.
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(order[i], i);
        EXPECT_EQ(order[8 + i], 100 + i);
    }
}

TEST(EventQueue, AnonymousStationKeepsGlobalFifo)
{
    // schedule() shares station -1; its seq is the historical global
    // FIFO counter, and it sorts before every real (>= 0) station.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleStation(5, 0, [&] { order.push_back(10); });
    eq.schedule(5, [&] { order.push_back(1); });
    eq.schedule(5, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 10}));
}

TEST(EventQueue, SequencesAreIndependentPerStation)
{
    // Seqs are allocated per station: a burst from one station must
    // not advance another's counter (cross-station collisions of the
    // (when, station, seq) key would break determinism and
    // trip the duplicate-key assert in step()).
    EventQueue eq;
    std::vector<std::pair<int, int>> order;
    for (int i = 0; i < 3; ++i)
        eq.scheduleStation(1, 0, [&order, i] {
            order.emplace_back(0, i);
        });
    eq.scheduleStation(1, 1, [&order] { order.emplace_back(1, 0); });
    for (int i = 3; i < 5; ++i)
        eq.scheduleStation(1, 0, [&order, i] {
            order.emplace_back(0, i);
        });
    eq.run();
    EXPECT_EQ(order,
              (std::vector<std::pair<int, int>>{
                  {0, 0}, {0, 1}, {0, 2}, {0, 3}, {0, 4}, {1, 0}}));
}

TEST(EventQueue, NextTimeTracksEarliestPending)
{
    EventQueue eq;
    EXPECT_EQ(eq.nextTime(), invalidCycle);
    eq.schedule(40, [] {});
    eq.schedule(15, [] {});
    EXPECT_EQ(eq.nextTime(), 15u);
    eq.step();
    EXPECT_EQ(eq.nextTime(), 40u);
    eq.step();
    EXPECT_EQ(eq.nextTime(), invalidCycle);
}

/*
 * Timing-wheel edges. Events due fewer than EventQueue::wheelSlots
 * cycles ahead of now() file on the wheel, the rest on the far heap;
 * the pop order must be the one (when, station, seq) order
 * regardless of where an event was filed.
 */

TEST(EventQueue, WheelEdgeDelays)
{
    constexpr Cycle span = EventQueue::wheelSlots;
    EventQueue eq;
    std::vector<Cycle> fired;
    auto record = [&] { fired.push_back(eq.now()); };
    eq.schedule(10, record);
    eq.step();
    eq.scheduleIn(span, record);     // first far cycle
    eq.scheduleIn(span - 1, record); // last near cycle
    eq.scheduleIn(0, record);        // now() itself
    EXPECT_EQ(eq.farEvents(), 1u);
    EXPECT_EQ(eq.size(), 3u);
    EXPECT_EQ(eq.nextTime(), 10u);
    eq.run();
    EXPECT_EQ(fired, (std::vector<Cycle>{10, 10, 265, 266}));
    EXPECT_TRUE(eq.empty());
    EXPECT_EQ(eq.nextTime(), invalidCycle);
}

TEST(EventQueue, SameCycleOnWheelAndFarHeap)
{
    // Cycle 1000 is far when scheduled at now 0 and near once now
    // reaches 900: two keys on the heap, the others on the wheel. The
    // heap's keys must interleave by station, and by sequence within
    // one station.
    EventQueue eq;
    std::vector<int> order;
    eq.scheduleStation(1000, 6, [&] { order.push_back(6); });
    eq.scheduleStation(1000, 2, [&] { order.push_back(2); });
    eq.schedule(900, [] {});
    EXPECT_EQ(eq.farEvents(), 3u);
    eq.step();
    ASSERT_EQ(eq.now(), 900u);
    eq.scheduleStation(1000, 9, [&] { order.push_back(9); });
    eq.scheduleStation(1000, 6, [&] { order.push_back(16); });
    eq.scheduleStation(1000, 4, [&] { order.push_back(4); });
    eq.scheduleStation(1000, 1, [&] { order.push_back(1); });
    eq.scheduleStation(1000, 7, [&] { order.push_back(7); });
    EXPECT_EQ(eq.farEvents(), 3u);
    EXPECT_EQ(eq.nextTime(), 1000u);
    eq.run();
    // Station 1 (wheel), 2 (heap), 4 (wheel), 6 (heap, then wheel),
    // 7 and 9 (wheel).
    EXPECT_EQ(order, (std::vector<int>{1, 2, 4, 6, 16, 7, 9}));
}

TEST(EventQueue, WheelSlotIndexWraps)
{
    // From now 200 the near window [200, 456) wraps past slot 255;
    // a chain of 250-cycle hops then laps the wheel many times.
    EventQueue eq;
    std::vector<Cycle> fired;
    auto record = [&] { fired.push_back(eq.now()); };
    eq.schedule(200, [] {});
    eq.step();
    for (Cycle when : {455, 300, 256, 255, 255, 260})
        eq.schedule(when, record);
    EXPECT_EQ(eq.farEvents(), 0u);
    EXPECT_EQ(eq.nextTime(), 255u);
    eq.run();
    EXPECT_EQ(fired,
              (std::vector<Cycle>{255, 255, 256, 260, 300, 455}));

    int hops = 0;
    std::function<void()> hop = [&] {
        if (++hops < 40)
            eq.scheduleIn(250, [&] { hop(); });
    };
    eq.scheduleIn(250, [&] { hop(); });
    eq.run();
    EXPECT_EQ(hops, 40);
    EXPECT_EQ(eq.now(), 455u + 40 * 250);
    EXPECT_EQ(eq.farEvents(), 0u);
}

TEST(EventQueue, MidListInsertKeepsStationFifo)
{
    // Later inserts with a lower station land in the middle of the
    // cycle's list; one station's events stay FIFO.
    EventQueue eq;
    std::vector<int> order;
    auto push = [&](std::int32_t station, int tag) {
        eq.scheduleStation(10, station, [&order, tag] {
            order.push_back(tag);
        });
    };
    push(5, 50);
    push(5, 51);
    push(3, 30); // before both station-5 events
    push(5, 52); // appends
    push(4, 40); // between stations 3 and 5
    push(3, 31); // after 30, before 40
    push(1, 10); // a lower station: the new head
    push(9, 90); // a higher station: the new tail
    push(3, 32);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{10, 30, 31, 32, 40, 50, 51, 52, 90}));
}

TEST(EventQueue, LaggingQueueTakesNearAndFarEvents)
{
    // An idle shard whose now() lags far behind, as when a barrier
    // applies deliveries onto it: events at most wheelSlots - 1 past
    // its now() are near, later ones far, and both keep the order.
    EventQueue eq;
    std::vector<std::pair<Cycle, int>> fired;
    auto record = [&](int tag) {
        return [&fired, &eq, tag] { fired.emplace_back(eq.now(), tag); };
    };
    eq.schedule(3, record(0));
    eq.step();
    eq.scheduleStation(50000, 4, record(1));
    eq.scheduleStation(200, 4, record(2));
    eq.scheduleStation(50000, 2, record(3));
    eq.scheduleStation(259, 1, record(4)); // 256 ahead: far
    EXPECT_EQ(eq.farEvents(), 3u);
    EXPECT_EQ(eq.nextTime(), 200u);
    eq.step();
    // now 200: 50000 is still far, 455 the last near cycle.
    eq.scheduleStation(50000, 3, record(5));
    eq.scheduleStation(455, 0, record(6));
    EXPECT_EQ(eq.farEvents(), 4u);
    eq.run();
    EXPECT_EQ(fired, (std::vector<std::pair<Cycle, int>>{
                         {3, 0}, {200, 2}, {259, 4}, {455, 6},
                         {50000, 3}, {50000, 5}, {50000, 1}}));
}

TEST(EventQueue, RunUntilBetweenWheelAndHeap)
{
    EventQueue eq;
    std::vector<Cycle> fired;
    auto record = [&] { fired.push_back(eq.now()); };
    for (Cycle when : {10, 20, 700, 1000})
        eq.schedule(when, record);
    EXPECT_EQ(eq.farEvents(), 2u);
    EXPECT_EQ(eq.runUntil(15), 1u);
    EXPECT_EQ(eq.nextTime(), 20u);
    EXPECT_EQ(eq.runUntil(699), 1u);
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(eq.nextTime(), 700u);
    // A near event behind the heap's top, then a limit between them.
    eq.schedule(30, record);
    EXPECT_EQ(eq.runUntil(699), 1u);
    EXPECT_EQ(eq.runUntil(700), 1u);
    // From now 700, cycle 900 is near: the heap's 1000 comes after.
    eq.schedule(900, record);
    EXPECT_EQ(eq.runUntil(999), 1u);
    EXPECT_EQ(eq.size(), 1u);
    EXPECT_EQ(eq.runUntil(1000), 1u);
    EXPECT_EQ(eq.runUntil(invalidCycle - 1), 0u);
    EXPECT_EQ(fired, (std::vector<Cycle>{10, 20, 30, 700, 900, 1000}));
}

/**
 * Differential run against a reference std::priority_queue with the
 * same total order. Executed events schedule successors: most within
 * a few hundred cycles (the wheel's edges included), about 2% up to
 * 2 M cycles ahead. Every step compares the executed key, nextTime()
 * and size(); the end compares the event-stream digest, and checks
 * that some near inserts landed in the middle of their wheel slot's
 * list (behind a pending event of a higher station).
 */
TEST(EventQueue, MatchesReferenceHeap)
{
    struct Ref
    {
        Cycle when;
        std::int32_t station;
        std::uint64_t seq;
        std::uint64_t id;
        bool near;

        bool
        operator>(const Ref &o) const
        {
            return std::tie(when, station, seq) >
                std::tie(o.when, o.station, o.seq);
        }
    };

    for (std::uint64_t seed : {1, 2, 3}) {
        EventQueue eq;
        std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref;
        std::vector<std::uint64_t> seqOf(9, 0);
        // Stations of the pending near events, per cycle.
        std::map<Cycle, std::multiset<std::int32_t>> wheelStations;
        Rng rng(seed);
        std::uint64_t nextId = 0, ranId = ~std::uint64_t(0);
        std::uint64_t far = 0, midInserts = 0, budget = 60000;

        std::function<void()> spawn;
        auto schedule = [&](Cycle when) {
            auto station = static_cast<std::int32_t>(rng.range(9)) - 1;
            std::uint64_t id = nextId++;
            bool near = when - eq.now() < EventQueue::wheelSlots;
            far += !near;
            if (near) {
                auto &pending = wheelStations[when];
                midInserts += !pending.empty() && *pending.rbegin() > station;
                pending.insert(station);
            }
            ref.push(Ref{when, station, seqOf[station + 1]++, id, near});
            auto fn = [&ranId, &spawn, id] {
                ranId = id;
                spawn();
            };
            eq.scheduleStation(when, station, fn);
        };
        auto delay = [&]() -> Cycle {
            std::uint64_t r = rng.range(1000);
            if (r < 20)
                return rng.rangeInclusive(256, 2000000);
            if (r < 40)
                return 254 + rng.range(4); // 254..257
            if (r < 100)
                return 0;
            return rng.range(256);
        };
        spawn = [&] {
            std::uint64_t kids = rng.range(4); // 0..3, mean 1.5
            for (std::uint64_t k = 0; k < kids && nextId < budget; ++k)
                schedule(eq.now() + delay());
        };
        for (int i = 0; i < 300; ++i)
            schedule(rng.range(512));

        std::uint64_t digest = digestSeed, steps = 0;
        while (!ref.empty()) {
            ASSERT_EQ(eq.nextTime(), ref.top().when) << "step " << steps;
            ASSERT_EQ(eq.size(), ref.size()) << "step " << steps;
            Ref top = ref.top();
            ref.pop();
            if (top.near) {
                auto it = wheelStations.find(top.when);
                it->second.erase(it->second.find(top.station));
                if (it->second.empty())
                    wheelStations.erase(it);
            }
            digest = digestKey(digest, top.when, 0, top.station, top.seq);
            ASSERT_TRUE(eq.step());
            ASSERT_EQ(ranId, top.id) << "step " << steps;
            ASSERT_EQ(eq.now(), top.when);
            ++steps;
        }
        EXPECT_FALSE(eq.step());
        EXPECT_TRUE(eq.empty());
        EXPECT_EQ(eq.nextTime(), invalidCycle);
        EXPECT_EQ(steps, nextId);
        EXPECT_EQ(eq.executed(), steps);
        EXPECT_EQ(eq.farEvents(), far);
        EXPECT_GT(far, steps / 100) << "seed " << seed;
        EXPECT_GT(midInserts, steps / 100) << "seed " << seed;
        EXPECT_EQ(eq.digest(), digest) << "seed " << seed;
    }
}

TEST(Clock, ConvertsPaperConstants)
{
    // 3.2 GHz: 1 us = 3200 cycles; 58 ns ~ 186 cycles.
    EXPECT_EQ(defaultClock.usToCycles(1.0), 3200u);
    EXPECT_EQ(defaultClock.nsToCycles(58.0), 186u);
    EXPECT_DOUBLE_EQ(defaultClock.cyclesToNs(3200), 1000.0);
    EXPECT_DOUBLE_EQ(defaultClock.cyclesToUs(3200), 1.0);
}

TEST(Clock, RoundTripIsStable)
{
    Clock clk(2.66);
    for (double ns : {1.0, 700.0, 2500.0}) {
        Cycle cycles = clk.nsToCycles(ns);
        EXPECT_NEAR(clk.cyclesToNs(cycles), ns, 0.5);
    }
}

TEST(Stats, DistributionPercentiles)
{
    Distribution d;
    for (int i = 1; i <= 100; ++i)
        d.sample(i);
    EXPECT_DOUBLE_EQ(d.min(), 1.0);
    EXPECT_DOUBLE_EQ(d.max(), 100.0);
    EXPECT_DOUBLE_EQ(d.mean(), 50.5);
    EXPECT_DOUBLE_EQ(d.nearestRank(0.5), 50.0);
    EXPECT_DOUBLE_EQ(d.nearestRank(0.95), 95.0);
    EXPECT_DOUBLE_EQ(d.nearestRank(0.0), 1.0);
    EXPECT_DOUBLE_EQ(d.nearestRank(1.0), 100.0);
    EXPECT_EQ(d.count(), 100u);
}

TEST(Stats, DistributionInterleavedSampleAndQuery)
{
    Distribution d;
    d.sample(10);
    EXPECT_DOUBLE_EQ(d.nearestRank(0.5), 10.0);
    d.sample(20);
    d.sample(30);
    // re-sorts after new samples
    EXPECT_DOUBLE_EQ(d.nearestRank(0.5), 20.0);
}

/**
 * The keep-every-sample distribution the histogram replaced: every
 * query over the sorted sample list, summed in ascending order. The
 * histogram must reproduce each query bit for bit.
 */
struct SampleOracle
{
    std::vector<double> samples;

    std::vector<double>
    sorted() const
    {
        std::vector<double> s = samples;
        std::sort(s.begin(), s.end());
        return s;
    }

    double
    sum() const
    {
        double total = 0;
        for (double v : sorted())
            total += v;
        return total;
    }

    double
    mean() const
    {
        return samples.empty() ? 0 : sum() / samples.size();
    }

    double
    min() const
    {
        double m = std::numeric_limits<double>::infinity();
        for (double v : samples)
            m = std::min(m, v);
        return samples.empty() ? 0 : m;
    }

    double
    max() const
    {
        double m = -std::numeric_limits<double>::infinity();
        for (double v : samples)
            m = std::max(m, v);
        return samples.empty() ? 0 : m;
    }

    double
    nearestRank(double q) const
    {
        if (samples.empty())
            return 0;
        auto rank = static_cast<std::size_t>(
            std::ceil(q * static_cast<double>(samples.size())));
        return sorted()[std::max<std::size_t>(rank, 1) - 1];
    }
};

std::uint64_t
bitsOf(double v)
{
    return std::bit_cast<std::uint64_t>(v);
}

void
expectSameBits(const Distribution &d, const SampleOracle &o)
{
    ASSERT_EQ(d.count(), o.samples.size());
    for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0})
        EXPECT_EQ(bitsOf(d.nearestRank(q)), bitsOf(o.nearestRank(q)))
            << "q" << q;
    EXPECT_EQ(bitsOf(d.sum()), bitsOf(o.sum()));
    EXPECT_EQ(bitsOf(d.mean()), bitsOf(o.mean()));
    EXPECT_EQ(bitsOf(d.min()), bitsOf(o.min()));
    EXPECT_EQ(bitsOf(d.max()), bitsOf(o.max()));
}

/** Integer samples, heavily duplicated, with a sparse long tail. */
double
integerSample(Rng &rng)
{
    if (rng.chance(0.02))
        return static_cast<double>(rng.range(1'000'000));
    return static_cast<double>(rng.range(40));
}

/** Fractions in [0, 1], hitting both ends exactly. */
double
fractionSample(Rng &rng)
{
    switch (rng.range(4)) {
      case 0: return 0.0;
      case 1: return 1.0;
      case 2: return static_cast<double>(rng.range(7)) / 7.0;
      default: return rng.uniform();
    }
}

TEST(Stats, HistogramMatchesOracleOnDuplicatedIntegers)
{
    Rng rng(42);
    Distribution d;
    SampleOracle o;
    for (int i = 0; i < 20000; ++i) {
        double v = integerSample(rng);
        d.sample(v);
        o.samples.push_back(v);
        if (i % 2500 == 0)
            expectSameBits(d, o); // queries interleaved with samples
    }
    expectSameBits(d, o);
    std::vector<double> values = o.sorted();
    values.erase(std::unique(values.begin(), values.end()), values.end());
    EXPECT_EQ(d.distinct(), values.size());

    // Integers whose magnitudes sum past 2^53 round in ascending
    // order: the exact integer total hands over to the replay.
    for (int i = 0; i < 8; ++i) {
        double v = 0x1p52 + static_cast<double>(rng.range(5));
        d.sample(v);
        o.samples.push_back(v);
    }
    expectSameBits(d, o);
}

/**
 * The one rank rule on an even count: the median is the lower middle
 * sample (1-indexed rank n/2), not the upper one, and a quantile is
 * always one of the samples.
 */
TEST(Stats, NearestRankMedianOfAnEvenCountIsTheLowerMiddle)
{
    Distribution d;
    SampleOracle o;
    for (double v : {7.5, 1.25, 3.0, 12.0, 3.0, 9.0}) {
        d.sample(v);
        o.samples.push_back(v);
    }
    expectSameBits(d, o);
    // Sorted: 1.25 3 3 7.5 9 12; ranks 3 and 4 are the middle pair.
    EXPECT_EQ(d.nearestRank(0.5), 3.0);
    EXPECT_EQ(d.nearestRank(0.51), 7.5);
    EXPECT_EQ(d.nearestRank(0.95), 12.0);
}

TEST(Stats, HistogramMatchesOracleOnFractions)
{
    Rng rng(7);
    Distribution d;
    SampleOracle o;
    for (int i = 0; i < 20000; ++i) {
        double v = fractionSample(rng);
        d.sample(v);
        o.samples.push_back(v);
        if (i % 2500 == 0)
            expectSameBits(d, o);
    }
    expectSameBits(d, o);
    // Integers and fractions mixed.
    for (int i = 0; i < 5000; ++i) {
        double v = i % 2 ? integerSample(rng) : fractionSample(rng);
        d.sample(v);
        o.samples.push_back(v);
    }
    expectSameBits(d, o);
}

TEST(Stats, HistogramResetStartsOver)
{
    Rng rng(3);
    Distribution d;
    for (int i = 0; i < 1000; ++i)
        d.sample(fractionSample(rng));
    EXPECT_GT(d.sum(), 0.0);
    d.reset();
    SampleOracle empty;
    expectSameBits(d, empty);
    EXPECT_EQ(d.distinct(), 0u);

    // After a reset the integer sum path is live again.
    SampleOracle o;
    for (int i = 0; i < 1000; ++i) {
        double v = integerSample(rng);
        d.sample(v);
        o.samples.push_back(v);
    }
    expectSameBits(d, o);
}

TEST(Stats, HistogramStorageBoundedByDistinctValues)
{
    Distribution d;
    for (int v = 0; v < 100; ++v)
        d.sample(v * 3);
    d.nearestRank(0.5); // build the sorted view too
    const std::size_t warm = d.storageBytes();

    Rng rng(11);
    for (int i = 0; i < 1'000'000; ++i)
        d.sample(static_cast<double>(rng.range(100) * 3));
    EXPECT_EQ(d.nearestRank(1.0), 297.0);
    EXPECT_EQ(d.count(), 1'000'100u);
    EXPECT_EQ(d.distinct(), 100u);
    // Storage grew with the distinct values, never with the samples:
    // a million samples later it is byte-for-byte the warm size, far
    // below the 8 MB a keep-every-sample list would hold.
    EXPECT_EQ(d.storageBytes(), warm);
    EXPECT_LE(warm, 100 * 128u);
}

TEST(Stats, TimeWeightedAverage)
{
    TimeWeighted tw;
    tw.update(0, 2.0);   // value 2 over [0, 10)
    tw.update(10, 6.0);  // value 6 over [10, 20)
    EXPECT_DOUBLE_EQ(tw.average(20), 4.0);
    EXPECT_DOUBLE_EQ(tw.maximum(), 6.0);
    EXPECT_DOUBLE_EQ(tw.value(), 6.0);
}

TEST(Stats, TimeWeightedDeltaTracking)
{
    TimeWeighted tw;
    tw.add(0, +1);
    tw.add(0, +1);
    tw.add(50, -1);
    EXPECT_DOUBLE_EQ(tw.average(100), (2.0 * 50 + 1.0 * 50) / 100);
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        double v = rng.uniform(5.0, 9.0);
        ASSERT_GE(v, 5.0);
        ASSERT_LT(v, 9.0);
    }
}

TEST(Rng, NormalMoments)
{
    Rng rng(11);
    double sum = 0, sq = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        double v = rng.normal(10.0, 2.0);
        sum += v;
        sq += v * v;
    }
    double mean = sum / n;
    double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 10.0, 0.05);
    EXPECT_NEAR(var, 4.0, 0.2);
}

TEST(Rng, TruncNormalRespectsFloor)
{
    Rng rng(13);
    for (int i = 0; i < 10000; ++i)
        ASSERT_GE(rng.truncNormal(10.0, 5.0, 8.0), 8.0);
}

TEST(Types, TaskIdEqualityAndHash)
{
    TaskId a{1, 17, 3};
    TaskId b{1, 17, 3};
    TaskId c{1, 17, 4}; // different generation
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_EQ(std::hash<TaskId>()(a), std::hash<TaskId>()(b));
    EXPECT_EQ(toString(a), "<1,17>");

    OperandId op{a, 0};
    EXPECT_EQ(toString(op), "<1,17,0>");
    EXPECT_FALSE(TaskId{}.valid());
    EXPECT_TRUE(a.valid());
}

} // namespace
} // namespace tss
