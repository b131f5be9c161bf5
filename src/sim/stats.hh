/**
 * @file
 * Simulation statistics: scalar counters, exact sampled distributions
 * and time-weighted averages.
 */

#ifndef TSS_SIM_STATS_HH
#define TSS_SIM_STATS_HH

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <mutex>
#include <vector>

#include "types.hh"

namespace tss
{

/**
 * A simple monotonically updated scalar statistic. Updates are
 * relaxed atomics: increments commute, so the final value is
 * independent of which simulation-engine thread bumped the counter
 * first — a requirement for the parallel engine's determinism.
 */
class Counter
{
  public:
    Counter &
    operator++()
    {
        _value.fetch_add(1, std::memory_order_relaxed);
        return *this;
    }

    Counter &
    operator+=(std::uint64_t n)
    {
        _value.fetch_add(n, std::memory_order_relaxed);
        return *this;
    }

    std::uint64_t
    value() const
    {
        return _value.load(std::memory_order_relaxed);
    }

    void reset() { _value.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> _value{0};
};

/** A tiny test-and-set spinlock (uncontended in practice). */
class SpinLock
{
  public:
    void
    lock()
    {
        while (flag.test_and_set(std::memory_order_acquire)) {}
    }

    void unlock() { flag.clear(std::memory_order_release); }

  private:
    std::atomic_flag flag = ATOMIC_FLAG_INIT;
};

/**
 * An exact sampled distribution, stored as a sparse value -> count
 * histogram: memory grows with the number of *distinct* values
 * sampled, never with the number of samples, and once every value
 * has been seen a sample allocates nothing. The table is open
 * addressing over the values' bit patterns, so no value gets a heap
 * node of its own.
 *
 * sample() is thread-safe: stations in different engine domains
 * share one distribution (FrontendStats), so it takes a spinlock.
 * Every query is a function of the multiset of samples alone and is
 * bit-identical to the same query over the sorted sample list,
 * however the engine's threads interleaved: percentile() and
 * nearestRank() index the ascending order, min()/max() are its ends,
 * and sum() is the ascending-order floating-point sum (exact integer
 * arithmetic while every sample is an integer, a replay of the sorted
 * values otherwise). Queries are not safe against a concurrent
 * sample(); they run after the simulation or at a window barrier.
 */
class Distribution
{
  public:
    void
    sample(double v)
    {
        std::lock_guard<SpinLock> guard(lock);
        if (used * 4 >= table.size() * 3)
            grow();
        auto bits = std::bit_cast<std::uint64_t>(v);
        const std::size_t mask = table.size() - 1;
        for (std::size_t i = slotOf(bits);; i = (i + 1) & mask) {
            Bucket &b = table[i];
            if (b.count == 0) {
                b.bits = bits;
                ++used;
            } else if (b.bits != bits) {
                continue;
            }
            ++b.count;
            break;
        }
        if (v < lo)
            lo = v;
        if (hi < v)
            hi = v;
        ++total;
        noteIntegral(v);
        viewStale = true;
    }

    std::size_t count() const { return total; }

    /** Ascending-order floating-point sum of every sample. */
    double sum() const;

    double mean() const { return total == 0 ? 0 : sum() / total; }

    double min() const { return total == 0 ? 0 : lo; }
    double max() const { return total == 0 ? 0 : hi; }

    /**
     * Percentile @p p in [0, 100]: the sample at 0-indexed ascending
     * rank p/100 * (n - 1), rounded half up (an interpolation-free
     * "nearest index" rule; p = 50 over 1..100 reads 51).
     */
    double percentile(double p) const;

    double median() const { return percentile(50); }

    /**
     * Nearest-rank quantile @p q in [0, 1]: the sample at 1-indexed
     * ascending rank ceil(q * n), at least 1 — so a quantile of
     * integral samples is itself one of them. tss-serve's percentiles
     * use this rule.
     */
    double nearestRank(double q) const;

    /** Number of distinct values sampled (the histogram's size). */
    std::size_t distinct() const { return used; }

    /** Heap bytes held by the histogram and its sorted view. */
    std::size_t
    storageBytes() const
    {
        return table.capacity() * sizeof(Bucket) +
            view.capacity() * sizeof(Rank);
    }

    void
    reset()
    {
        std::lock_guard<SpinLock> guard(lock);
        table.clear();
        view.clear();
        used = 0;
        total = 0;
        lo = std::numeric_limits<double>::infinity();
        hi = -std::numeric_limits<double>::infinity();
        intTotal = 0;
        absTotal = 0;
        integral = true;
        viewStale = true;
    }

  private:
    /** A distinct value (as its bit pattern) and its sample count. */
    struct Bucket
    {
        std::uint64_t bits = 0;
        std::uint64_t count = 0; ///< 0 marks an empty bucket
    };

    /** Sorted-view entry: a value and its cumulative sample count. */
    struct Rank
    {
        double value;
        std::uint64_t end; ///< samples <= value
    };

    /// Integer sums stay exact while the sum of magnitudes fits in a
    /// double's mantissa: every partial sum, in any order, is then a
    /// representable integer, so the float sum equals intTotal.
    static constexpr double exactLimit = 0x1p53;

    std::size_t
    slotOf(std::uint64_t bits) const
    {
        // Fibonacci hashing: the product's top bits mix every input
        // bit, including the high exponent/mantissa bits in which
        // small integers differ.
        return static_cast<std::size_t>(
            (bits * 0x9E3779B97F4A7C15ull) >> (64 - tableLog2));
    }

    void
    noteIntegral(double v)
    {
        if (!integral)
            return;
        double mag = std::fabs(v);
        if (mag <= exactLimit && mag == std::floor(mag)) {
            absTotal += static_cast<std::uint64_t>(mag);
            intTotal += static_cast<std::int64_t>(v);
            integral = absTotal <= static_cast<std::uint64_t>(exactLimit);
        } else {
            integral = false;
        }
    }

    void grow();

    /** The distinct values in ascending order (rebuilt when stale). */
    const std::vector<Rank> &sorted() const;

    /** The sample at 0-indexed ascending rank @p i (i < count()). */
    double at(std::uint64_t i) const;

    /// Serializes sample() (and reset()) over the fields below.
    SpinLock lock;
    std::vector<Bucket> table; ///< size 0 or a power of two
    unsigned tableLog2 = 0;
    std::size_t used = 0;      ///< distinct values
    std::uint64_t total = 0;   ///< samples
    double lo = std::numeric_limits<double>::infinity();
    double hi = -std::numeric_limits<double>::infinity();
    std::int64_t intTotal = 0;
    std::uint64_t absTotal = 0;
    bool integral = true;      ///< every sample so far an exact integer

    /// The sorted view queries read; sample() marks it stale.
    mutable std::vector<Rank> view;
    mutable bool viewStale = true;
};

/**
 * Time-weighted average of a piecewise-constant quantity (queue
 * occupancy, cores busy, ...). Call update() at every change with the
 * current simulated time.
 */
class TimeWeighted
{
  public:
    void
    update(Cycle now, double new_value)
    {
        if (now > lastTime)
            integral += current * static_cast<double>(now - lastTime);
        lastTime = now;
        current = new_value;
        peak = std::max(peak, new_value);
    }

    void add(Cycle now, double delta) { update(now, current + delta); }

    /** Average over [0, now]. */
    double
    average(Cycle now) const
    {
        double total = integral;
        if (now > lastTime)
            total += current * static_cast<double>(now - lastTime);
        return now == 0 ? current : total / static_cast<double>(now);
    }

    double value() const { return current; }
    double maximum() const { return peak; }

  private:
    double current = 0;
    double integral = 0;
    double peak = 0;
    Cycle lastTime = 0;
};

} // namespace tss

#endif // TSS_SIM_STATS_HH
