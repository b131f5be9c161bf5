/**
 * @file
 * Protocol-level unit tests for the TRS, driven on a one-domain
 * engine with mock gateway/scheduler/OVT/peer-TRS endpoints: allocation and storage
 * accounting, operand readiness rules per directionality, consumer
 * chain relay (readers forward on receipt, writers at finish), the
 * tombstone rule, and retirement messaging.
 */

#include <gtest/gtest.h>

#include "core/trs.hh"
#include "module_harness.hh"

namespace tss
{
namespace
{

struct TrsFixture : ::testing::Test, OneDomain
{
    static constexpr NodeId trsNode = 1;
    static constexpr NodeId gwNode = 2;
    static constexpr NodeId schedNode = 3;
    static constexpr NodeId peerTrsNode = 4;
    static constexpr NodeId ovtNode = 5;

    TrsFixture() : OneDomain(1, 16.0)
    {
        // A small trace backing the registry: three tasks with 2, 1
        // and 3 operands.
        trace.name = "unit";
        trace.addKernel("k");
        for (unsigned ops : {2u, 1u, 3u}) {
            TraceTask t;
            t.kernel = 0;
            t.runtime = 1000;
            for (unsigned i = 0; i < ops; ++i)
                t.operands.push_back({Dir::In, 0x1000u + i, 64});
            trace.tasks.push_back(t);
        }
        cfg.numTrs = 2;
        cfg.trsTotalBytes = 64 * 1024; // 256 blocks per TRS
        registry = std::make_unique<TaskRegistry>(
            trace, cfg.totalTrs(), cfg.blocksPerTrs());
        trs = std::make_unique<Trs>("trs0", eq, net, trsNode, 0, cfg,
                                    *registry, stats);
        trs->setPeers(gwNode, schedNode, {trsNode, peerTrsNode},
                      {ovtNode});
        net.attach(gwNode, gwProbe);
        net.attach(schedNode, schedProbe);
        net.attach(peerTrsNode, peerProbe);
        net.attach(ovtNode, ovtProbe);
    }

    template <typename T, typename... Args>
    void
    send(Args &&...args)
    {
        auto msg = std::make_unique<T>(std::forward<Args>(args)...);
        msg->src = gwNode;
        msg->dst = trsNode;
        net.sendAt(eq.now(), MessagePtr(msg.release()));
        engine.run();
    }

    /** Allocate task @p trace_index and return its hardware id. */
    TaskId
    allocate(std::uint32_t trace_index, unsigned operands)
    {
        send<AllocRequestMsg>(trace_index, operands);
        auto replies = gwProbe.of<AllocReplyMsg>(MsgType::AllocReply);
        return replies.back()->id;
    }

    OperandId
    operand(TaskId id, std::uint8_t index)
    {
        OperandId oid;
        oid.task = id;
        oid.index = index;
        return oid;
    }

    TaskTrace trace;
    std::unique_ptr<TaskRegistry> registry;
    PipelineConfig cfg;
    FrontendStats stats;
    ProtoProbe gwProbe, schedProbe, peerProbe, ovtProbe;
    std::unique_ptr<Trs> trs;
};

TEST_F(TrsFixture, AllocationReturnsSlotAndTracksBlocks)
{
    std::uint32_t before = trs->freeBlocks();
    TaskId id = allocate(0, 2);
    EXPECT_EQ(id.trs, 0);
    EXPECT_EQ(trs->freeBlocks(), before - 1); // 2 operands: 1 block
    EXPECT_EQ(trs->liveSlots(), 1u);
    EXPECT_EQ(registry->traceIndex(id), 0u);

    // A 19-operand-style allocation takes more blocks.
    send<AllocRequestMsg>(2u, 17u);
    EXPECT_EQ(trs->freeBlocks(), before - 1 - 4);
}

TEST_F(TrsFixture, OperandReadinessPerDirectionality)
{
    TaskId id = allocate(0, 2);
    VersionRef v{0, 3};

    // Operand 0: input, data already in memory (readyNow).
    send<OperandInfoMsg>(operand(id, 0), Dir::In, Bytes(64), v,
                         OperandId{}, true, 0x1000u);
    EXPECT_EQ(schedProbe.count(MsgType::TaskReady), 0u);

    // Operand 1: output; only ready once the OVT grants the buffer.
    send<OperandInfoMsg>(operand(id, 1), Dir::Out, Bytes(64), v,
                         OperandId{}, false, 0u);
    EXPECT_EQ(schedProbe.count(MsgType::TaskReady), 0u);
    send<DataReadyMsg>(operand(id, 1), ReadySide::Output, 0x7164u);
    auto ready = schedProbe.of<TaskReadyMsg>(MsgType::TaskReady);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0]->id, id);
}

TEST_F(TrsFixture, InoutNeedsBothSides)
{
    TaskId id = allocate(1, 1);
    VersionRef v{0, 9};
    send<OperandInfoMsg>(operand(id, 0), Dir::InOut, Bytes(64), v,
                         OperandId{}, true, 0x1000u); // input ready
    EXPECT_EQ(schedProbe.count(MsgType::TaskReady), 0u);
    send<DataReadyMsg>(operand(id, 0), ReadySide::Output, 0x1000u);
    EXPECT_EQ(schedProbe.count(MsgType::TaskReady), 1u);
}

TEST_F(TrsFixture, ChainToTriggersRegistration)
{
    TaskId id = allocate(1, 1);
    OperandId producer;
    producer.task.trs = 1; // lives on the peer TRS
    producer.task.slot = 42;
    producer.task.generation = 1;
    producer.index = 2;
    VersionRef v{0, 5};
    send<OperandInfoMsg>(operand(id, 0), Dir::In, Bytes(64), v,
                         producer, false, 0u);
    auto regs =
        peerProbe.of<RegisterConsumerMsg>(MsgType::RegisterConsumer);
    ASSERT_EQ(regs.size(), 1u);
    EXPECT_EQ(regs[0]->producer, producer);
    EXPECT_EQ(regs[0]->consumer, operand(id, 0));
}

TEST_F(TrsFixture, ReaderRelaysChainOnReceipt)
{
    // Reader with a stored chain successor relays input-ready the
    // moment it arrives (the data exists independently of the
    // reader's own execution).
    TaskId id = allocate(1, 1);
    VersionRef v{0, 5};
    OperandId producer;
    producer.task.trs = 1;
    producer.task.slot = 1;
    producer.task.generation = 1;
    send<OperandInfoMsg>(operand(id, 0), Dir::In, Bytes(64), v,
                         producer, false, 0u);

    OperandId successor;
    successor.task.trs = 1; // lives on the peer
    successor.task.slot = 77;
    successor.task.generation = 1;
    send<RegisterConsumerMsg>(operand(id, 0), successor);
    EXPECT_EQ(peerProbe.count(MsgType::DataReady), 0u);

    send<DataReadyMsg>(operand(id, 0), ReadySide::Input, 0xAB00u);
    auto fwd = peerProbe.of<DataReadyMsg>(MsgType::DataReady);
    ASSERT_EQ(fwd.size(), 1u);
    EXPECT_EQ(fwd[0]->op, successor);
    EXPECT_EQ(fwd[0]->side, ReadySide::Input);
    EXPECT_EQ(fwd[0]->buffer, 0xAB00u);
}

TEST_F(TrsFixture, WriterPublishesAtFinishAndRetires)
{
    TaskId id = allocate(1, 1);
    VersionRef v{0, 6};
    send<OperandInfoMsg>(operand(id, 0), Dir::Out, Bytes(64), v,
                         OperandId{}, false, 0u);
    // A consumer registers before the data exists: stored, silent.
    OperandId consumer;
    consumer.task.trs = 1;
    consumer.task.slot = 50;
    consumer.task.generation = 1;
    send<RegisterConsumerMsg>(operand(id, 0), consumer);
    send<DataReadyMsg>(operand(id, 0), ReadySide::Output, 0x7164u);
    EXPECT_EQ(peerProbe.count(MsgType::DataReady), 0u);

    // Finish: the chain head gets the data, the OVT the producer-
    // done, the gateway its block credit; the slot is freed.
    std::uint32_t blocks_before = trs->freeBlocks();
    send<TaskFinishedMsg>(id);
    auto fwd = peerProbe.of<DataReadyMsg>(MsgType::DataReady);
    ASSERT_EQ(fwd.size(), 1u);
    EXPECT_EQ(fwd[0]->op, consumer);
    EXPECT_EQ(fwd[0]->buffer, 0x7164u);
    ASSERT_EQ(ovtProbe.count(MsgType::ProducerDone), 1u);
    auto space = gwProbe.of<TrsSpaceMsg>(MsgType::TrsSpace);
    ASSERT_EQ(space.size(), 1u);
    EXPECT_EQ(space[0]->freedBlocks, 1u);
    EXPECT_EQ(trs->freeBlocks(), blocks_before + 1);
    EXPECT_EQ(trs->liveSlots(), 0u);
}

TEST_F(TrsFixture, TombstoneAnswersLateRegistration)
{
    TaskId id = allocate(1, 1);
    VersionRef v{0, 6};
    send<OperandInfoMsg>(operand(id, 0), Dir::Out, Bytes(64), v,
                         OperandId{}, false, 0u);
    send<DataReadyMsg>(operand(id, 0), ReadySide::Output, 0x7164u);
    send<TaskFinishedMsg>(id);

    // Registration arrives after the slot was freed: answered on the
    // dead producer's behalf.
    OperandId late;
    late.task.trs = 1;
    late.task.slot = 60;
    late.task.generation = 1;
    std::size_t before = peerProbe.count(MsgType::DataReady);
    send<RegisterConsumerMsg>(operand(id, 0), late);
    EXPECT_EQ(peerProbe.count(MsgType::DataReady), before + 1);
    EXPECT_EQ(stats.tombstoneReplies.value(), 1u);
}

TEST_F(TrsFixture, ReaderRetirementReleasesUse)
{
    TaskId id = allocate(1, 1);
    VersionRef v{0, 8};
    send<OperandInfoMsg>(operand(id, 0), Dir::In, Bytes(64), v,
                         OperandId{}, true, 0x1000u);
    EXPECT_EQ(schedProbe.count(MsgType::TaskReady), 1u);
    send<TaskFinishedMsg>(id);
    auto releases = ovtProbe.of<ReleaseUseMsg>(MsgType::ReleaseUse);
    ASSERT_EQ(releases.size(), 1u);
    EXPECT_EQ(releases[0]->slot, 8u);
    EXPECT_EQ(ovtProbe.count(MsgType::ProducerDone), 0u);
}

TEST_F(TrsFixture, SlotGenerationsDistinguishReuse)
{
    TaskId first = allocate(1, 1);
    VersionRef v{0, 2};
    send<OperandInfoMsg>(operand(first, 0), Dir::In, Bytes(64), v,
                         OperandId{}, true, 0u);
    send<TaskFinishedMsg>(first);
    // The freed main block is reused (LIFO free list) with a bumped
    // generation, so stale messages to the old task are detectable.
    TaskId second = allocate(2, 1);
    EXPECT_EQ(second.slot, first.slot);
    EXPECT_GT(second.generation, first.generation);
}

} // namespace
} // namespace tss
