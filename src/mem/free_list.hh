/**
 * @file
 * Free-index pools. IndexPool hands out the indices of a fixed pool
 * (the ORT's version-slot credits, a TRS's storage blocks) storing
 * only the released ones. BlockFreeList adds the TRS/OVT free-block
 * list's timing: free blocks are chained in eDRAM, each chain node
 * storing 63 pointers to free blocks plus a next pointer; the
 * addresses of the first 64 free blocks are mirrored in a 128-byte
 * SRAM buffer so that a typical allocation takes a single cycle
 * (paper section IV-B.2).
 */

#ifndef TSS_MEM_FREE_LIST_HH
#define TSS_MEM_FREE_LIST_HH

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/edram.hh"
#include "sim/logging.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace tss
{

/**
 * The free indices of a pool [0, capacity), handed out in the order a
 * stack prefilled with capacity-1 .. 0 gives them: the most recently
 * released index first, else the lowest index never claimed. Only
 * released indices are stored, behind a fresh-index counter, so the
 * host storage is bounded by the indices a run can claim (its reach),
 * not by the capacity.
 */
class IndexPool
{
  public:
    /**
     * @param capacity Pool size; indices are [0, capacity).
     * @param reach The most distinct indices a run may claim (clamped
     *              to @p capacity): claiming beyond it panics.
     */
    IndexPool(std::uint32_t capacity, std::uint32_t reach)
        : cap(capacity), maxFresh(std::min(capacity, reach))
    {
        released.reserve(maxFresh);
    }

    std::uint32_t capacity() const { return cap; }
    std::uint32_t reach() const { return maxFresh; }

    std::uint32_t
    numFree() const
    {
        return cap - fresh + static_cast<std::uint32_t>(released.size());
    }

    bool empty() const { return numFree() == 0; }

    /** Take a free index; the pool must not be empty. */
    std::uint32_t
    claim()
    {
        if (!released.empty()) {
            std::uint32_t index = released.back();
            released.pop_back();
            return index;
        }
        TSS_ASSERT(fresh < maxFresh, "index %u beyond the pool's reach "
                   "(%u of %u)", fresh, maxFresh, cap);
        return fresh++;
    }

    /** Return an index taken by claim(). */
    void
    release(std::uint32_t index)
    {
        TSS_ASSERT(index < fresh, "release of unclaimed index %u", index);
        released.push_back(index);
    }

  private:
    std::uint32_t cap;
    std::uint32_t maxFresh;
    std::uint32_t fresh = 0; ///< [0, fresh) were claimed at least once
    std::vector<std::uint32_t> released; ///< LIFO: hot indices reused
};

/**
 * Free-list over a fixed pool of equal-size blocks, with the paper's
 * SRAM head buffer timing model.
 */
class BlockFreeList
{
  public:
    /** Entries of the SRAM head buffer (128 B of 2-byte indices). */
    static constexpr unsigned sramEntries = 64;

    /** Pointers per eDRAM chain node. */
    static constexpr unsigned chainFanout = 63;

    /**
     * @param num_blocks Pool size; block indices are [0, num_blocks).
     * @param edram The eDRAM whose latency chain refills charge (may
     *              be null for untimed use).
     * @param reach The most distinct blocks a run may claim (see
     *              IndexPool); the whole pool by default.
     */
    explicit BlockFreeList(std::uint32_t num_blocks,
                           Edram *edram = nullptr,
                           std::uint32_t reach = ~0u);

    /** Outcome of a timed allocation. */
    struct Allocation
    {
        std::uint32_t block;
        Cycle cost;
    };

    /**
     * Allocate one block.
     * @return The block index and the cycle cost (1 cycle on an SRAM
     *         hit; plus an eDRAM read when the buffer must refill), or
     *         nullopt when the pool is exhausted.
     */
    std::optional<Allocation> allocate();

    /**
     * Return a block to the pool.
     * @return The cycle cost (1 cycle; an eDRAM write every
     *         chainFanout frees to spill a chain node).
     */
    Cycle release(std::uint32_t block);

    std::uint32_t numFree() const { return blocks.numFree(); }

    std::uint32_t numBlocks() const { return blocks.capacity(); }

    /** Fraction of allocations satisfied in a single cycle. */
    double
    sramHitRate() const
    {
        auto total = sramHits.value() + sramMisses.value();
        return total == 0
            ? 1.0 : static_cast<double>(sramHits.value()) / total;
    }

  private:
    Edram *edram;

    /// The free blocks (LIFO: hot blocks reused).
    IndexPool blocks;

    /// How many of the top-of-stack entries are mirrored in SRAM.
    unsigned sramCount;

    /// Frees since the last modeled chain-node spill.
    unsigned freesSinceSpill = 0;

    Counter sramHits;
    Counter sramMisses;
};

} // namespace tss

#endif // TSS_MEM_FREE_LIST_HH
