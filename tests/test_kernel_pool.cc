/**
 * @file
 * Tests for the pooled simulation kernel: EventCallback small-buffer
 * + overflow-pool behaviour, deterministic event ordering across the
 * slab-recycling event queue, ChunkPool size-class bookkeeping, and
 * the message pool's recycle/reuse invariants.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/protocol.hh"
#include "sim/event_queue.hh"
#include "sim/pool.hh"

namespace tss
{
namespace
{

TEST(ChunkPool, SizeClassMapping)
{
    EXPECT_EQ(ChunkPool::classOf(1), 0u);
    EXPECT_EQ(ChunkPool::classOf(64), 0u);
    EXPECT_EQ(ChunkPool::classOf(65), 1u);
    EXPECT_EQ(ChunkPool::classOf(128), 1u);
    EXPECT_EQ(ChunkPool::classOf(129), 2u);
    EXPECT_EQ(ChunkPool::classOf(256), 2u);
    EXPECT_EQ(ChunkPool::classOf(512), 3u);
    EXPECT_EQ(ChunkPool::classOf(1024), 4u);
    // Above the largest class: falls through to the global allocator.
    EXPECT_EQ(ChunkPool::classOf(1025), ChunkPool::numClasses);

    for (unsigned cls = 0; cls < ChunkPool::numClasses; ++cls)
        EXPECT_EQ(ChunkPool::classOf(ChunkPool::classBytes(cls)), cls);
}

TEST(ChunkPool, RecyclesChunksWithinClass)
{
    ChunkPool pool;
    void *a = pool.allocate(40);
    void *b = pool.allocate(40);
    EXPECT_NE(a, b);
    EXPECT_EQ(pool.stats().fresh, 2u);
    EXPECT_EQ(pool.stats().reused, 0u);

    pool.release(a, 40);
    pool.release(b, 40);
    EXPECT_EQ(pool.stats().released, 2u);
    EXPECT_EQ(pool.stats().outstanding(), 0u);
    EXPECT_EQ(pool.freeChunks(0), 2u);

    // LIFO reuse: the most recently freed chunk comes back first.
    void *c = pool.allocate(64);
    void *d = pool.allocate(64);
    EXPECT_EQ(c, b);
    EXPECT_EQ(d, a);
    EXPECT_EQ(pool.stats().reused, 2u);
    EXPECT_EQ(pool.stats().fresh, 2u);

    pool.release(c, 64);
    pool.release(d, 64);
}

TEST(ChunkPool, ClassesDoNotMix)
{
    ChunkPool pool;
    void *small = pool.allocate(32);
    pool.release(small, 32);

    // A 128-byte request must not reuse the 64-byte chunk.
    void *large = pool.allocate(100);
    EXPECT_EQ(pool.stats().fresh, 2u);
    EXPECT_EQ(pool.freeChunks(0), 1u);
    pool.release(large, 100);
    EXPECT_EQ(pool.freeChunks(1), 1u);
}

TEST(ChunkPool, OversizeBypassesTheFreeLists)
{
    ChunkPool pool;
    void *big = pool.allocate(4096);
    EXPECT_EQ(pool.stats().oversize, 1u);
    EXPECT_EQ(pool.stats().fresh, 0u);
    pool.release(big, 4096);
    for (unsigned cls = 0; cls < ChunkPool::numClasses; ++cls)
        EXPECT_EQ(pool.freeChunks(cls), 0u);
}

TEST(EventCallback, SmallCallablesStayInline)
{
    int hits = 0;
    EventCallback cb([&hits] { ++hits; });
    EXPECT_TRUE(cb.storedInline());
    cb();
    EXPECT_EQ(hits, 1);
}

TEST(EventCallback, MoveOnlyCapturesWork)
{
    auto payload = std::make_unique<int>(42);
    int seen = 0;
    EventCallback cb([&seen, p = std::move(payload)] { seen = *p; });
    EXPECT_TRUE(cb.storedInline());
    EventCallback moved(std::move(cb));
    moved();
    EXPECT_EQ(seen, 42);
}

TEST(EventCallback, LargeCapturesSpillToThePool)
{
    auto fresh_before = EventCallback::pool().stats().fresh;
    auto reused_before = EventCallback::pool().stats().reused;
    struct Big
    {
        std::uint64_t words[12];
    };
    int sum = 0;
    {
        Big big{};
        big.words[3] = 7;
        EventCallback cb(
            [&sum, big] { sum += static_cast<int>(big.words[3]); });
        EXPECT_FALSE(cb.storedInline());
        cb();
    }
    EXPECT_EQ(sum, 7);
    auto &stats = EventCallback::pool().stats();
    EXPECT_EQ(stats.fresh + stats.reused,
              fresh_before + reused_before + 1);

    // A second equally-sized spill must recycle the freed chunk.
    {
        Big big{};
        EventCallback cb([&sum, big] { sum += 1; });
        EXPECT_FALSE(cb.storedInline());
    }
    EXPECT_EQ(EventCallback::pool().stats().reused, reused_before + 1);
}

TEST(EventQueueSlab, DeterministicAcrossSameCycleStationTies)
{
    // Interleave stations and insertion orders at one cycle, twice,
    // through the same queue so the second round runs entirely on
    // recycled slab slots — the order must be identical.
    std::vector<std::vector<int>> orders;
    EventQueue eq;
    Cycle base = 0;
    for (int round = 0; round < 2; ++round) {
        std::vector<int> order;
        base = eq.now() + 10;
        for (int i = 0; i < 16; ++i) {
            eq.scheduleStation(base, i % 3 - 1,
                               [&order, i] { order.push_back(i); });
        }
        eq.run();
        orders.push_back(std::move(order));
    }
    ASSERT_EQ(orders[0].size(), 16u);
    EXPECT_EQ(orders[0], orders[1]);

    // Stations fire lowest-first; insertion order inside one station.
    std::vector<int> expected;
    for (int station = -1; station <= 1; ++station)
        for (int i = 0; i < 16; ++i)
            if (i % 3 - 1 == station)
                expected.push_back(i);
    EXPECT_EQ(orders[0], expected);
}

TEST(EventQueueSlab, SlotsAreRecycled)
{
    EventQueue eq;
    int fired = 0;
    for (int wave = 0; wave < 100; ++wave) {
        for (int i = 0; i < 8; ++i)
            eq.scheduleIn(1, [&fired] { ++fired; });
        eq.run();
    }
    EXPECT_EQ(fired, 800);
    // The slab never needed more slots than one wave's worth.
    EXPECT_LE(eq.slabCapacity(), 8u);
}

TEST(MessagePoolTest, MessagesRecycleStorage)
{
    const ChunkPool &pool = Message::pool();
    std::uint64_t live_before = pool.stats().outstanding();

    void *first_storage = nullptr;
    {
        auto msg = std::make_unique<TaskSubmitMsg>(7, 48);
        first_storage = msg.get();
        EXPECT_EQ(pool.stats().outstanding(), live_before + 1);
    }
    EXPECT_EQ(pool.stats().outstanding(), live_before);

    // Same-size message reuses the chunk that was just freed.
    auto again = std::make_unique<TaskSubmitMsg>(8, 48);
    EXPECT_EQ(static_cast<void *>(again.get()), first_storage);
}

TEST(MessagePoolTest, PolymorphicDeleteReturnsTheRightSize)
{
    const ChunkPool &pool = Message::pool();
    auto released_before = pool.stats().released;

    // Allocate and destroy through the base-class pointer: the sized
    // delete must receive the most-derived size so the chunk lands in
    // the same class it came from.
    MessagePtr msg = std::make_unique<OperandInfoMsg>(
        OperandId{}, Dir::In, 512, VersionRef{}, OperandId{}, false, 0);
    unsigned cls = ChunkPool::classOf(sizeof(OperandInfoMsg));
    msg.reset();
    EXPECT_EQ(pool.stats().released, released_before + 1);

    // And a fresh same-type allocation reuses it from that class.
    auto reused_before = pool.stats().reused;
    auto again = std::make_unique<OperandInfoMsg>(
        OperandId{}, Dir::Out, 512, VersionRef{}, OperandId{}, true, 0);
    EXPECT_EQ(pool.stats().reused, reused_before + 1);
    EXPECT_EQ(ChunkPool::classOf(sizeof(OperandInfoMsg)), cls);
}

TEST(MessagePoolTest, SteadyStateChurnAddsNoFreshChunks)
{
    const ChunkPool &pool = Message::pool();
    // Warm up one chunk per class used, then churn: fresh count must
    // stay flat while reuse grows.
    { auto warm = std::make_unique<DataReadyMsg>(OperandId{},
                                                 ReadySide::Input, 0); }
    auto fresh_before = pool.stats().fresh;
    auto reused_before = pool.stats().reused;
    for (int i = 0; i < 1000; ++i) {
        auto msg = std::make_unique<DataReadyMsg>(OperandId{},
                                                  ReadySide::Input, 0);
    }
    EXPECT_EQ(pool.stats().fresh, fresh_before);
    EXPECT_GE(pool.stats().reused, reused_before + 1000);
}

} // namespace
} // namespace tss
