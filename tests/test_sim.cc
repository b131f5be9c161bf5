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
#include <limits>
#include <thread>
#include <vector>

#include "sim/event_queue.hh"
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

TEST(EventQueue, PriorityBreaksTies)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); }, 1);
    eq.schedule(5, [&] { order.push_back(1); }, -1);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
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
    // Same cycle, same priority: lower station id fires first, even
    // when the higher station scheduled earlier (got a lower seq).
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
    // (when, priority, station, seq) key would break determinism and
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
    EXPECT_NEAR(d.median(), 50.0, 1.0);
    EXPECT_NEAR(d.percentile(95), 95.0, 1.0);
    EXPECT_EQ(d.count(), 100u);
}

TEST(Stats, DistributionInterleavedSampleAndQuery)
{
    Distribution d;
    d.sample(10);
    EXPECT_DOUBLE_EQ(d.median(), 10.0);
    d.sample(20);
    d.sample(30);
    EXPECT_DOUBLE_EQ(d.median(), 20.0); // re-sorts after new samples
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
    percentile(double p) const
    {
        if (samples.empty())
            return 0;
        double rank = p / 100.0 * (static_cast<double>(samples.size()) - 1);
        auto idx = static_cast<std::size_t>(rank + 0.5);
        return sorted()[std::min(idx, samples.size() - 1)];
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
    for (double p : {0.0, 1.0, 50.0, 95.0, 99.0, 100.0})
        EXPECT_EQ(bitsOf(d.percentile(p)), bitsOf(o.percentile(p)))
            << "p" << p;
    for (double q : {0.5, 0.95, 0.99, 1.0})
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
    d.percentile(50); // build the sorted view too
    const std::size_t warm = d.storageBytes();

    Rng rng(11);
    for (int i = 0; i < 1'000'000; ++i)
        d.sample(static_cast<double>(rng.range(100) * 3));
    EXPECT_EQ(d.percentile(100), 297.0);
    EXPECT_EQ(d.count(), 1'000'100u);
    EXPECT_EQ(d.distinct(), 100u);
    // Storage grew with the distinct values, never with the samples:
    // a million samples later it is byte-for-byte the warm size, far
    // below the 8 MB a keep-every-sample list would hold.
    EXPECT_EQ(d.storageBytes(), warm);
    EXPECT_LE(warm, 100 * 128u);
}

TEST(Stats, HistogramConcurrentSamplersMatchSequential)
{
    constexpr int threads = 4;
    constexpr int perThread = 50000;
    Distribution shared;
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t) {
        pool.emplace_back([&shared, t] {
            Rng rng(100 + t);
            for (int i = 0; i < perThread; ++i) {
                shared.sample(i % 3 ? integerSample(rng)
                                    : fractionSample(rng));
            }
        });
    }
    for (auto &th : pool)
        th.join();

    SampleOracle o;
    for (int t = 0; t < threads; ++t) {
        Rng rng(100 + t);
        for (int i = 0; i < perThread; ++i) {
            o.samples.push_back(i % 3 ? integerSample(rng)
                                      : fractionSample(rng));
        }
    }
    expectSameBits(shared, o);
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
