/**
 * @file
 * Simulation statistics: scalar counters, exact sampled distributions
 * and time-weighted averages.
 */

#ifndef TSS_SIM_STATS_HH
#define TSS_SIM_STATS_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "types.hh"

namespace tss
{

/**
 * A simple monotonically updated scalar statistic: a plain integer.
 * Every Counter belongs to one System, and one thread drives a System
 * (the engine drains every window on the calling thread), so no
 * update races. A concurrent drain would need per-shard counters
 * merged at the window barrier, not atomics here.
 */
class Counter
{
  public:
    Counter &
    operator++()
    {
        ++_value;
        return *this;
    }

    Counter &
    operator+=(std::uint64_t n)
    {
        _value += n;
        return *this;
    }

    std::uint64_t value() const { return _value; }

    void reset() { _value = 0; }

  private:
    std::uint64_t _value = 0;
};

/**
 * An exact sampled distribution, stored as a sparse value -> count
 * histogram: memory grows with the number of *distinct* values
 * sampled, never with the number of samples, and once every value
 * has been seen a sample allocates nothing. The table is open
 * addressing over the values' bit patterns, so no value gets a heap
 * node of its own.
 *
 * Like Counter, a Distribution has one writer at a time: stations of
 * every engine domain share one (FrontendStats), but one thread
 * drives a System, and tss-serve samples its tenant latencies under
 * its state mutex. Every query is a function of the multiset of
 * samples alone, bit-identical to the same query over the sorted
 * sample list whatever order the samples came in: nearestRank()
 * indexes the ascending order, min()/max() are its ends,
 * and sum() is the ascending-order floating-point sum (exact integer
 * arithmetic while every sample is an integer, a replay of the sorted
 * values otherwise).
 */
class Distribution
{
  public:
    void
    sample(double v)
    {
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
     * Nearest-rank quantile @p q in [0, 1]: the sample at 1-indexed
     * ascending rank ceil(q * n), at least 1 — so a quantile of
     * integral samples is itself one of them, and the median of an
     * even count is the lower middle sample. Every quantile the
     * simulator and tss-serve report uses this one rule.
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
