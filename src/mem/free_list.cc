#include "free_list.hh"

#include <algorithm>

namespace tss
{

BlockFreeList::BlockFreeList(std::uint32_t num_blocks, Edram *edram_ptr,
                             std::uint32_t reach)
    : edram(edram_ptr), blocks(num_blocks, reach),
      sramCount(std::min<unsigned>(sramEntries, num_blocks))
{
}

std::optional<BlockFreeList::Allocation>
BlockFreeList::allocate()
{
    if (blocks.empty())
        return std::nullopt;

    Cycle cost = 1;
    if (sramCount == 0) {
        // The SRAM buffer is empty: fetch the next chain node from
        // eDRAM before the allocation can proceed.
        ++sramMisses;
        if (edram)
            cost += edram->read();
        sramCount = std::min(sramEntries, blocks.numFree());
    } else {
        ++sramHits;
    }

    std::uint32_t block = blocks.claim();
    --sramCount;
    return Allocation{block, cost};
}

Cycle
BlockFreeList::release(std::uint32_t block)
{
    blocks.release(block);

    Cycle cost = 1;
    if (sramCount < sramEntries) {
        ++sramCount;
    } else if (++freesSinceSpill >= chainFanout) {
        // The SRAM buffer is full: spill one chain node (63 block
        // pointers plus the next pointer) to eDRAM.
        freesSinceSpill = 0;
        if (edram)
            cost += edram->write();
    }
    return cost;
}

} // namespace tss
