/**
 * @file
 * Protocol-level unit tests for the OVT, driven on a one-domain
 * engine with mock ORT/TRS endpoints: version lifecycle, renaming,
 * inout buffer inheritance and in-order unblocking, the two-phase
 * retirement handshake (including stale grants), and the no-chaining
 * waiter path.
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/ovt.hh"
#include "mem/dma_engine.hh"
#include "module_harness.hh"

namespace tss
{
namespace
{

struct OvtFixture : ::testing::Test, OneDomain
{
    static constexpr NodeId ovtNode = 1;
    static constexpr NodeId ortNode = 2;
    static constexpr NodeId trsNode = 3;

    OvtFixture()
        : OneDomain(1, 16.0), dma("dma", eq, 16.0, 10),
          ovt("ovt0", eq, net, ovtNode, 0, cfg, stats, dma)
    {
        ovt.setPeers(ortNode, {trsNode});
        net.attach(ortNode, ortProbe);
        net.attach(trsNode, trsProbe);
    }

    template <typename T, typename... Args>
    void
    send(Args &&...args)
    {
        auto msg = std::make_unique<T>(std::forward<Args>(args)...);
        msg->src = ortNode;
        msg->dst = ovtNode;
        net.sendAt(eq.now(), MessagePtr(msg.release()));
        engine.run();
    }

    OperandId
    op(std::uint32_t slot, std::uint8_t index)
    {
        OperandId oid;
        oid.task.trs = 0;
        oid.task.slot = slot;
        oid.task.generation = 1;
        oid.index = index;
        return oid;
    }

    PipelineConfig cfg;
    FrontendStats stats;
    DmaEngine dma;
    ProtoProbe ortProbe;
    ProtoProbe trsProbe;
    Ovt ovt;
};

TEST_F(OvtFixture, RenamedOutputIsReadyImmediately)
{
    send<CreateVersionMsg>(0u, 0u, op(5, 0), 0xA000u, Bytes(4096),
                           true, false, 0u, 7u);
    auto ready = trsProbe.of<DataReadyMsg>(MsgType::DataReady);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0]->side, ReadySide::Output);
    EXPECT_EQ(ready[0]->op, op(5, 0));
    EXPECT_NE(ready[0]->buffer, 0xA000u); // a fresh rename buffer
    EXPECT_EQ(ovt.liveRenameBuffers(), 1u);
    EXPECT_EQ(stats.versionsRenamed.value(), 1u);
}

TEST_F(OvtFixture, FirstInPlaceVersionUsesHomeAddress)
{
    // An inout with no previous version writes the object in place.
    send<CreateVersionMsg>(0u, 0u, op(5, 0), 0xB000u, Bytes(512),
                           false, false, 0u, 7u);
    auto ready = trsProbe.of<DataReadyMsg>(MsgType::DataReady);
    ASSERT_EQ(ready.size(), 1u);
    EXPECT_EQ(ready[0]->side, ReadySide::Output);
    EXPECT_EQ(ready[0]->buffer, 0xB000u);
    EXPECT_EQ(ovt.liveRenameBuffers(), 0u);
}

TEST_F(OvtFixture, MemoryVersionNeedsNoMessages)
{
    // v0 (producer-less): data already rests in memory.
    send<CreateVersionMsg>(0u, 0u, OperandId{}, 0xC000u, Bytes(256),
                           false, false, 0u, 7u);
    EXPECT_TRUE(trsProbe.msgs.empty());
    EXPECT_EQ(ovt.liveVersions(), 1u);
}

TEST_F(OvtFixture, InoutInheritsBufferAfterDrain)
{
    // v1: renamed output by producer A.
    send<CreateVersionMsg>(1u, 0u, op(1, 0), 0xD000u, Bytes(1024),
                           true, false, 0u, 9u);
    std::uint64_t buf =
        trsProbe.of<DataReadyMsg>(MsgType::DataReady)[0]->buffer;
    // One reader joins v1; v2 chains after v1 in place (inout B).
    send<AddReaderMsg>(1u, op(2, 0));
    send<CreateVersionMsg>(2u, 0u, op(3, 1), 0xD000u, Bytes(1024),
                           false, true, 1u, 9u);
    // Producer A finishes; reader still holds v1: no output-ready yet.
    send<ProducerDoneMsg>(1u);
    EXPECT_EQ(trsProbe.of<DataReadyMsg>(MsgType::DataReady).size(),
              1u);
    // Reader releases: v1 dies, v2 inherits the buffer and unblocks.
    send<ReleaseUseMsg>(1u);
    auto ready = trsProbe.of<DataReadyMsg>(MsgType::DataReady);
    ASSERT_EQ(ready.size(), 2u);
    EXPECT_EQ(ready[1]->side, ReadySide::Output);
    EXPECT_EQ(ready[1]->op, op(3, 1));
    EXPECT_EQ(ready[1]->buffer, buf); // inherited, not freed
    EXPECT_EQ(ovt.liveRenameBuffers(), 1u);
    auto dead = ortProbe.of<VersionDeadMsg>(MsgType::VersionDead);
    ASSERT_EQ(dead.size(), 1u);
    EXPECT_EQ(dead[0]->slot, 1u);
    EXPECT_EQ(dead[0]->ortEntry, 9u);
}

TEST_F(OvtFixture, FinalVersionRetirementHandshake)
{
    // In-place final version: producer done + drained -> hint.
    send<CreateVersionMsg>(4u, 3u, op(8, 0), 0xE000u, Bytes(2048),
                           false, false, 0u, 11u);
    send<AddReaderMsg>(4u, op(9, 0));
    send<ProducerDoneMsg>(4u);
    EXPECT_TRUE(
        ortProbe.of<VersionQuiescentMsg>(MsgType::VersionQuiescent)
            .empty());
    send<ReleaseUseMsg>(4u);
    auto hints =
        ortProbe.of<VersionQuiescentMsg>(MsgType::VersionQuiescent);
    ASSERT_EQ(hints.size(), 1u);
    EXPECT_EQ(hints[0]->slot, 4u);
    EXPECT_EQ(hints[0]->epoch, 3u);
    EXPECT_EQ(hints[0]->readersSeen, 1u);
    EXPECT_EQ(hints[0]->ortEntry, 11u);

    // Grant: the in-place version dies without DMA.
    send<RetireVersionMsg>(4u, 3u);
    auto dead = ortProbe.of<VersionDeadMsg>(MsgType::VersionDead);
    ASSERT_EQ(dead.size(), 1u);
    EXPECT_EQ(ovt.liveVersions(), 0u);
    EXPECT_EQ(dma.numTransfers(), 0u);
}

TEST_F(OvtFixture, RenamedFinalVersionWritesBackViaDma)
{
    send<CreateVersionMsg>(6u, 0u, op(1, 0), 0xF000u, Bytes(4096),
                           true, false, 0u, 2u);
    send<ProducerDoneMsg>(6u);
    send<RetireVersionMsg>(6u, 0u);
    engine.run();
    EXPECT_EQ(dma.numTransfers(), 1u);
    EXPECT_EQ(ovt.liveVersions(), 0u);
    EXPECT_EQ(ovt.liveRenameBuffers(), 0u);
    EXPECT_EQ(
        ortProbe.of<VersionDeadMsg>(MsgType::VersionDead).size(), 1u);
}

TEST_F(OvtFixture, StaleRetireGrantIsIgnored)
{
    // Version dies through the superseded path while a hint/grant
    // is in flight; the late grant must be dropped (epoch check).
    send<CreateVersionMsg>(7u, 5u, op(1, 0), 0x1F000u, Bytes(512),
                           true, false, 0u, 3u);
    send<ProducerDoneMsg>(7u);
    // Superseded by a renamed writer -> dies immediately.
    send<CreateVersionMsg>(8u, 0u, op(2, 0), 0x1F000u, Bytes(512),
                           true, true, 7u, 3u);
    ASSERT_EQ(
        ortProbe.of<VersionDeadMsg>(MsgType::VersionDead).size(), 1u);
    // Stale grant for the dead slot (old epoch): ignored, no crash,
    // no second death.
    send<RetireVersionMsg>(7u, 5u);
    EXPECT_EQ(
        ortProbe.of<VersionDeadMsg>(MsgType::VersionDead).size(), 1u);
}

TEST_F(OvtFixture, NoChainingWaitersServedOnProducerDone)
{
    send<CreateVersionMsg>(9u, 0u, op(1, 0), 0x2F000u, Bytes(512),
                           true, false, 0u, 4u);
    // Two readers wait at the version (chaining disabled path).
    send<RegisterConsumerMsg>(OperandId{}, op(2, 0), 9u);
    send<RegisterConsumerMsg>(OperandId{}, op(3, 0), 9u);
    auto before = trsProbe.of<DataReadyMsg>(MsgType::DataReady);
    ASSERT_EQ(before.size(), 1u); // only the producer's output-ready
    send<ProducerDoneMsg>(9u);
    auto after = trsProbe.of<DataReadyMsg>(MsgType::DataReady);
    ASSERT_EQ(after.size(), 3u);
    EXPECT_EQ(after[1]->op, op(2, 0));
    EXPECT_EQ(after[2]->op, op(3, 0));
    EXPECT_EQ(after[1]->side, ReadySide::Input);

    // A late registration after producer-done answers immediately.
    send<RegisterConsumerMsg>(OperandId{}, op(4, 0), 9u);
    EXPECT_EQ(trsProbe.of<DataReadyMsg>(MsgType::DataReady).size(),
              4u);
}

} // namespace
} // namespace tss
