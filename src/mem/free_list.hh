/**
 * @file
 * The TRS/OVT free-block list. Free blocks are chained in eDRAM, each
 * chain node storing 63 pointers to free blocks plus a next pointer;
 * the addresses of the first 64 free blocks are mirrored in a 128-byte
 * SRAM buffer so that a typical allocation takes a single cycle
 * (paper section IV-B.2).
 */

#ifndef TSS_MEM_FREE_LIST_HH
#define TSS_MEM_FREE_LIST_HH

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
     */
    explicit BlockFreeList(std::uint32_t num_blocks, Edram *edram = nullptr);

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

    std::uint32_t numFree() const
    {
        return static_cast<std::uint32_t>(freeBlocks.size());
    }

    std::uint32_t numBlocks() const { return totalBlocks; }

    /** Fraction of allocations satisfied in a single cycle. */
    double
    sramHitRate() const
    {
        auto total = sramHits.value() + sramMisses.value();
        return total == 0
            ? 1.0 : static_cast<double>(sramHits.value()) / total;
    }

  private:
    std::uint32_t totalBlocks;
    Edram *edram;

    /// All currently free block indices (LIFO: hot blocks reused).
    std::vector<std::uint32_t> freeBlocks;

    /// How many of the top-of-stack entries are mirrored in SRAM.
    unsigned sramCount;

    /// Frees since the last modeled chain-node spill.
    unsigned freesSinceSpill = 0;

    Counter sramHits;
    Counter sramMisses;
};

} // namespace tss

#endif // TSS_MEM_FREE_LIST_HH
