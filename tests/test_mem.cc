/**
 * @file
 * Unit tests for the storage substrates: the inode-style block
 * layout, the SRAM-buffered free list, the power-of-2 bucket
 * allocator, the eDRAM model, and the DMA engine (driven through a
 * one-domain SimEngine, since a transfer defers to the barrier).
 */

#include <gtest/gtest.h>

#include <set>

#include "mem/block_layout.hh"
#include "mem/bucket_allocator.hh"
#include "mem/dma_engine.hh"
#include "mem/edram.hh"
#include "mem/free_list.hh"
#include "sim/sim_engine.hh"

namespace tss
{
namespace
{

TEST(BlockLayout, PaperConstants)
{
    EXPECT_EQ(layout::blockBytes, 128u);
    EXPECT_EQ(layout::mainBlockOperands, 4u);
    EXPECT_EQ(layout::indirectBlockOperands, 5u);
    EXPECT_EQ(layout::maxOperands, 19u);
}

TEST(BlockLayout, BlocksForOperands)
{
    EXPECT_EQ(layout::blocksForOperands(0), 1u);
    EXPECT_EQ(layout::blocksForOperands(4), 1u);
    EXPECT_EQ(layout::blocksForOperands(5), 2u);
    EXPECT_EQ(layout::blocksForOperands(9), 2u);
    EXPECT_EQ(layout::blocksForOperands(10), 3u);
    EXPECT_EQ(layout::blocksForOperands(14), 3u);
    EXPECT_EQ(layout::blocksForOperands(15), 4u);
    EXPECT_EQ(layout::blocksForOperands(19), 4u);
}

TEST(BlockLayout, FragmentationIsBounded)
{
    // The paper reports ~20% average internal fragmentation; the
    // layout itself never wastes more than 60%.
    for (unsigned ops = 0; ops <= layout::maxOperands; ++ops) {
        double used = static_cast<double>(layout::usedBytes(ops));
        double alloc =
            static_cast<double>(layout::allocatedBytes(ops));
        EXPECT_LE(used, alloc);
        EXPECT_GE(used / alloc, 0.25);
    }
    // A 4-operand task fits its main block exactly.
    EXPECT_EQ(layout::usedBytes(4), layout::allocatedBytes(4));
}

TEST(BlockLayout, OperandsFillEntriesBlockByBlock)
{
    // Figure 11: operands 0-3 in the main block, then 5 per indirect
    // block, each (block, entry) used once and inside the allocation.
    std::set<std::pair<unsigned, unsigned>> seen;
    for (unsigned op = 0; op < layout::maxOperands; ++op) {
        unsigned block = layout::blockOf(op);
        unsigned entry = layout::entryOf(op);
        EXPECT_LT(block, layout::blocksForOperands(op + 1));
        EXPECT_LT(entry, block == 0 ? layout::mainBlockOperands
                                    : layout::indirectBlockOperands);
        EXPECT_TRUE(seen.insert({block, entry}).second) << op;
    }
    EXPECT_EQ(layout::blockOf(3), 0u);
    EXPECT_EQ(layout::blockOf(4), 1u);
    EXPECT_EQ(layout::entryOf(4), 0u);
    EXPECT_EQ(layout::blockOf(18), 3u);
    EXPECT_EQ(layout::entryOf(18), 4u);
}

TEST(FreeList, AllocateAllThenExhaust)
{
    BlockFreeList list(100);
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 100; ++i) {
        auto alloc = list.allocate();
        ASSERT_TRUE(alloc.has_value());
        EXPECT_TRUE(seen.insert(alloc->block).second)
            << "duplicate block";
        EXPECT_LT(alloc->block, 100u);
    }
    EXPECT_EQ(list.numFree(), 0u);
    EXPECT_FALSE(list.allocate().has_value());
}

TEST(FreeList, ReleaseMakesBlocksReusable)
{
    BlockFreeList list(4);
    auto a = list.allocate();
    auto b = list.allocate();
    ASSERT_TRUE(a && b);
    list.release(a->block);
    list.release(b->block);
    EXPECT_EQ(list.numFree(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_TRUE(list.allocate().has_value());
}

TEST(FreeList, SramHitsAreSingleCycle)
{
    Edram edram(1 << 20);
    BlockFreeList list(1000, &edram);
    // The first 64 allocations hit the SRAM buffer: 1 cycle each.
    for (int i = 0; i < 64; ++i) {
        auto alloc = list.allocate();
        ASSERT_TRUE(alloc.has_value());
        EXPECT_EQ(alloc->cost, 1u);
    }
    // The 65th must refill from eDRAM.
    auto alloc = list.allocate();
    ASSERT_TRUE(alloc.has_value());
    EXPECT_GT(alloc->cost, Edram::defaultLatency);
    EXPECT_LT(list.sramHitRate(), 1.0);
    EXPECT_GT(list.sramHitRate(), 0.9);
}

TEST(FreeList, SteadyStateChurnMostlyHitsSram)
{
    Edram edram(1 << 20);
    BlockFreeList list(4096, &edram);
    std::vector<std::uint32_t> live;
    for (int round = 0; round < 2000; ++round) {
        auto alloc = list.allocate();
        ASSERT_TRUE(alloc.has_value());
        live.push_back(alloc->block);
        if (live.size() > 16) {
            list.release(live.front());
            live.erase(live.begin());
        }
    }
    // Alloc/free churn at stable occupancy: the paper's "typical
    // block allocation takes only 1 cycle".
    EXPECT_GT(list.sramHitRate(), 0.99);
}

/**
 * IndexPool hands out indices in the order of the stack prefilled with
 * capacity-1 .. 0 that it replaced: the sequences below are what that
 * stack gave (BlockFreeList before IndexPool) for the same script.
 */
TEST(IndexPool, ClaimOrderThroughExhaustionAndRecovery)
{
    IndexPool pool(6, 6);
    auto claims = [&](unsigned n) {
        std::vector<std::uint32_t> got;
        for (unsigned i = 0; i < n; ++i)
            got.push_back(pool.claim());
        return got;
    };
    EXPECT_EQ(claims(4), (std::vector<std::uint32_t>{0, 1, 2, 3}));
    EXPECT_EQ(pool.numFree(), 2u);
    pool.release(1);
    pool.release(3);
    EXPECT_EQ(pool.numFree(), 4u);
    // The most recently released index first, then the lowest never
    // claimed, down to exhaustion.
    EXPECT_EQ(claims(4), (std::vector<std::uint32_t>{3, 1, 4, 5}));
    EXPECT_EQ(pool.numFree(), 0u);
    EXPECT_TRUE(pool.empty());
    // Recovery: released indices come back last in, first out.
    pool.release(2);
    pool.release(0);
    pool.release(5);
    EXPECT_EQ(pool.numFree(), 3u);
    EXPECT_EQ(claims(3), (std::vector<std::uint32_t>{5, 0, 2}));
    EXPECT_TRUE(pool.empty());
}

TEST(IndexPool, FreeCountIsCapacityWhateverTheReach)
{
    IndexPool pool(16384, 3);
    EXPECT_EQ(pool.capacity(), 16384u);
    EXPECT_EQ(pool.reach(), 3u);
    EXPECT_EQ(pool.numFree(), 16384u);
    EXPECT_EQ(pool.claim(), 0u);
    EXPECT_EQ(pool.claim(), 1u);
    EXPECT_EQ(pool.claim(), 2u);
    EXPECT_EQ(pool.numFree(), 16381u);
    pool.release(1);
    EXPECT_EQ(pool.numFree(), 16382u);
    EXPECT_EQ(pool.claim(), 1u);
    // A fourth distinct index lies past the storage the reach sized.
    EXPECT_DEATH(pool.claim(), "beyond the pool's reach");
    EXPECT_EQ(IndexPool(8, 100).reach(), 8u);
}

/**
 * The SRAM hit/miss sequence IndexPool feeds BlockFreeList under a
 * scripted churn: every block and cost is folded into an FNV-1a
 * digest. The digest, counts and costs are what the prefilled stack
 * gave for the same script.
 */
TEST(FreeList, SramSequenceMatchesPrefilledStack)
{
    Edram edram(1 << 20);
    BlockFreeList list(300, &edram);
    std::vector<std::uint32_t> live;
    std::uint64_t digest = 14695981039346656037ULL;
    std::uint64_t hits = 0, misses = 0;
    Cycle cost = 0;
    auto fold = [&](std::uint64_t v) {
        digest = (digest ^ v) * 1099511628211ULL;
    };
    auto allocate = [&] {
        auto alloc = list.allocate();
        ASSERT_TRUE(alloc.has_value());
        live.push_back(alloc->block);
        fold(alloc->block);
        fold(alloc->cost);
        cost += alloc->cost;
        ++(alloc->cost == 1 ? hits : misses);
    };
    auto release = [&](std::size_t i) {
        cost += list.release(live[i]);
        live.erase(live.begin() + static_cast<long>(i));
    };
    for (int i = 0; i < 100; ++i)
        allocate();
    for (int i = 0; i < 70; ++i)
        release(static_cast<std::size_t>(i * 7) % live.size());
    for (int i = 0; i < 260; ++i)
        allocate();
    for (int i = 0; i < 200; ++i)
        release(live.size() - 1 -
                static_cast<std::size_t>(i * 3) % live.size());
    for (int i = 0; i < 120; ++i)
        allocate();

    EXPECT_EQ(digest, 0x6861a0ac24acfbc3ULL);
    EXPECT_EQ(hits, 474u);
    EXPECT_EQ(misses, 6u);
    EXPECT_EQ(cost, 926u);
    EXPECT_EQ(list.numFree(), 90u);
    EXPECT_DOUBLE_EQ(list.sramHitRate(), 474.0 / 480.0);
}

TEST(BucketAllocator, RoundsToPowerOfTwo)
{
    BucketAllocator alloc(0x1000, 1 << 24);
    EXPECT_EQ(alloc.bucketSizeFor(1), 256u);
    EXPECT_EQ(alloc.bucketSizeFor(256), 256u);
    EXPECT_EQ(alloc.bucketSizeFor(257), 512u);
    EXPECT_EQ(alloc.bucketSizeFor(16 * 1024), 16u * 1024);
    EXPECT_EQ(alloc.bucketSizeFor(100 * 1024), 128u * 1024);
}

TEST(BucketAllocator, AllocationsAreDisjoint)
{
    BucketAllocator alloc(0x1000, 1 << 22);
    std::vector<BucketAllocator::Allocation> allocs;
    for (int i = 0; i < 50; ++i) {
        auto a = alloc.allocate(4096);
        ASSERT_TRUE(a.has_value());
        allocs.push_back(*a);
    }
    std::set<std::uint64_t> addrs;
    for (const auto &a : allocs) {
        EXPECT_TRUE(addrs.insert(a.address).second);
        EXPECT_EQ(a.bucketSize, 4096u);
    }
    // Disjoint ranges: sorted addresses are >= bucketSize apart.
    std::uint64_t prev = 0;
    bool first = true;
    for (std::uint64_t addr : addrs) {
        if (!first) {
            EXPECT_GE(addr - prev, 4096u);
        }
        prev = addr;
        first = false;
    }
}

TEST(BucketAllocator, ReleaseRecyclesBuffers)
{
    BucketAllocator alloc(0, 256 * 1024, 256, 1 << 20, 64 * 1024);
    auto a = alloc.allocate(64 * 1024);
    ASSERT_TRUE(a.has_value());
    auto b = alloc.allocate(64 * 1024);
    ASSERT_TRUE(b.has_value());
    auto c = alloc.allocate(64 * 1024);
    ASSERT_TRUE(c.has_value());
    auto d = alloc.allocate(64 * 1024);
    ASSERT_TRUE(d.has_value());
    // Region exhausted: only releases can satisfy new requests.
    EXPECT_FALSE(alloc.allocate(64 * 1024).has_value());
    alloc.release(b->address, b->bucketSize);
    auto e = alloc.allocate(64 * 1024);
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->address, b->address);
}

TEST(BucketAllocator, TracksLiveBuffers)
{
    BucketAllocator alloc(0, 1 << 22);
    auto a = alloc.allocate(1024);
    auto b = alloc.allocate(2048);
    ASSERT_TRUE(a && b);
    EXPECT_EQ(alloc.liveBuffers(), 2u);
    alloc.release(a->address, a->bucketSize);
    EXPECT_EQ(alloc.liveBuffers(), 1u);
}

TEST(Edram, ChargesLatencyAndCounts)
{
    Edram edram(256 * 1024, 22);
    EXPECT_EQ(edram.read(), 22u);
    EXPECT_EQ(edram.read(2), 44u);
    EXPECT_EQ(edram.write(), 22u);
    EXPECT_EQ(edram.numReads(), 3u);
    EXPECT_EQ(edram.numWrites(), 1u);
    EXPECT_EQ(edram.capacity(), 256u * 1024);
}

TEST(DmaEngine, TransfersSerializeOnOneChannel)
{
    // Transfers are requested from an engine event and reserved at
    // its window barrier.
    SimEngine engine(1);
    EventQueue &eq = engine.shard(0);
    DmaEngine dma("dma", eq, 16.0, 100);
    Cycle first = 0, second = 0;
    eq.schedule(0, [&] {
        dma.transfer(1600, [&] { first = eq.now(); });  // 100 + 100
        dma.transfer(1600, [&] { second = eq.now(); }); // queued behind
    });
    engine.run();
    EXPECT_EQ(first, 200u);
    EXPECT_EQ(second, 400u);
    EXPECT_EQ(dma.numTransfers(), 2u);
    EXPECT_EQ(dma.totalBytes(), 3200u);
}

TEST(DmaEngineDeathTest, TransferOutsideAnEngineEventAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    SimEngine engine(1);
    DmaEngine dma("dma", engine.shard(0), 16.0, 100);
    EXPECT_DEATH(dma.transfer(1600),
                 "DmaEngine::transfer called outside an engine event");
}

} // namespace
} // namespace tss
