/**
 * @file
 * The TRS task-storage layout (paper Figure 11): fixed 128-byte eDRAM
 * blocks arranged like UNIX filesystem inodes. The main block stores
 * the task-global data and the first 4 operands; up to 3 indirect
 * blocks add 5 operands each, supporting at most 19 operands per task.
 */

#ifndef TSS_MEM_BLOCK_LAYOUT_HH
#define TSS_MEM_BLOCK_LAYOUT_HH

#include "sim/logging.hh"
#include "sim/types.hh"

namespace tss::layout
{

/** Size of one TRS storage block. */
constexpr unsigned blockBytes = 128;

/** Operand entries held by the main block. */
constexpr unsigned mainBlockOperands = 4;

/** Operand entries held by each indirect block. */
constexpr unsigned indirectBlockOperands = 5;

/** Maximum indirect blocks per task. */
constexpr unsigned maxIndirectBlocks = 3;

/** Maximum operands a task may carry. */
constexpr unsigned maxOperands =
    mainBlockOperands + maxIndirectBlocks * indirectBlockOperands;

/** Bytes of task-global data in the main block. */
constexpr unsigned taskGlobalBytes = 32;

/** Bytes per stored operand entry. */
constexpr unsigned operandEntryBytes = 24;

/**
 * Blocks needed for a task with @p operands operands (1 main block
 * plus however many indirect blocks the overflow operands require).
 */
constexpr unsigned
blocksForOperands(unsigned operands)
{
    if (operands <= mainBlockOperands)
        return 1;
    unsigned extra = operands - mainBlockOperands;
    unsigned indirect =
        (extra + indirectBlockOperands - 1) / indirectBlockOperands;
    return 1 + indirect;
}

/** The block of a task (0 = main, then indirect) holding @p operand. */
constexpr unsigned
blockOf(unsigned operand)
{
    return operand < mainBlockOperands
        ? 0
        : 1 + (operand - mainBlockOperands) / indirectBlockOperands;
}

/** The entry of its block that holds @p operand. */
constexpr unsigned
entryOf(unsigned operand)
{
    return operand < mainBlockOperands
        ? operand
        : (operand - mainBlockOperands) % indirectBlockOperands;
}

/** Bytes actually allocated for @p operands operands. */
constexpr Bytes
allocatedBytes(unsigned operands)
{
    return Bytes(blocksForOperands(operands)) * blockBytes;
}

/**
 * Bytes of the allocation actually occupied by meta-data; the
 * difference versus allocatedBytes() is internal fragmentation (the
 * paper reports ~20% average waste).
 */
constexpr Bytes
usedBytes(unsigned operands)
{
    return taskGlobalBytes + Bytes(operands) * operandEntryBytes;
}

static_assert(maxOperands == 19, "paper layout supports 19 operands");
static_assert(blockOf(maxOperands - 1) == maxIndirectBlocks &&
                  blocksForOperands(maxOperands) == 1 + maxIndirectBlocks,
              "the last operand lands in the last indirect block");
static_assert(mainBlockOperands <= indirectBlockOperands,
              "an indirect block's entries cover a main block's");
static_assert(taskGlobalBytes + mainBlockOperands * operandEntryBytes
              == blockBytes, "main block must be exactly one block");

} // namespace tss::layout

#endif // TSS_MEM_BLOCK_LAYOUT_HH
