/**
 * @file
 * Protocol-level unit tests for the ORT, driven on a one-domain
 * engine with mock gateway/OVT/TRS endpoints: miss/hit flows for
 * every directionality, version-slot credits, set-full stalls with
 * control-message bypass, and the retirement-hint grant/deny logic.
 */

#include <gtest/gtest.h>

#include "core/ort.hh"
#include "module_harness.hh"

namespace tss
{
namespace
{

struct OrtFixture : ::testing::Test, OneDomain
{
    static constexpr NodeId ortNode = 1;
    static constexpr NodeId gwNode = 2;
    static constexpr NodeId trsNode = 3;
    static constexpr NodeId ovtNode = 4;

    OrtFixture() : OneDomain(1, 16.0)
    {
        // A deliberately tiny ORT: 2 sets x 16 ways, few slots.
        cfg.numOrt = 1;
        cfg.ortTotalBytes = 32 * 16; // 32 entries
        cfg.ovtTotalBytes = 40 * 16; // 40 version slots
        ort = std::make_unique<Ort>("ort0", eq, net, ortNode, 0, cfg,
                                    stats);
        ort->setPeers({gwNode}, {trsNode}, ovtNode);
        net.attach(gwNode, gwProbe);
        net.attach(trsNode, trsProbe);
        net.attach(ovtNode, ovtProbe);
    }

    template <typename T, typename... Args>
    void
    send(Args &&...args)
    {
        auto msg = std::make_unique<T>(std::forward<Args>(args)...);
        msg->src = gwNode;
        msg->dst = ortNode;
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
    ProtoProbe gwProbe, trsProbe, ovtProbe;
    std::unique_ptr<Ort> ort;
};

TEST_F(OrtFixture, ReaderMissCreatesMemoryVersion)
{
    send<DecodeOperandMsg>(op(1, 0), Dir::In, 0xA000u, Bytes(4096));
    auto creates =
        ovtProbe.of<CreateVersionMsg>(MsgType::CreateVersion);
    ASSERT_EQ(creates.size(), 1u);
    EXPECT_FALSE(creates[0]->producer.valid());
    EXPECT_FALSE(creates[0]->renamed);
    EXPECT_EQ(ovtProbe.count(MsgType::AddReader), 1u);

    auto infos = trsProbe.of<OperandInfoMsg>(MsgType::OperandInfo);
    ASSERT_EQ(infos.size(), 1u);
    EXPECT_TRUE(infos[0]->readyNow);
    EXPECT_EQ(infos[0]->buffer, 0xA000u);
    EXPECT_FALSE(infos[0]->chainTo.valid());
    EXPECT_EQ(ort->liveEntries(), 1u);
}

TEST_F(OrtFixture, ReaderHitChainsOnLastUser)
{
    send<DecodeOperandMsg>(op(1, 0), Dir::Out, 0xB000u, Bytes(512));
    send<DecodeOperandMsg>(op(2, 0), Dir::In, 0xB000u, Bytes(512));
    send<DecodeOperandMsg>(op(3, 0), Dir::In, 0xB000u, Bytes(512));

    auto infos = trsProbe.of<OperandInfoMsg>(MsgType::OperandInfo);
    ASSERT_EQ(infos.size(), 3u);
    // Reader 2 chains on the writer; reader 3 chains on reader 2.
    EXPECT_EQ(infos[1]->chainTo, op(1, 0));
    EXPECT_EQ(infos[2]->chainTo, op(2, 0));
    EXPECT_FALSE(infos[1]->readyNow);
    // Both readers were reported to the OVT.
    EXPECT_EQ(ovtProbe.count(MsgType::AddReader), 2u);
}

TEST_F(OrtFixture, WriterHitSupersedesAndConsumesSlotCredit)
{
    std::size_t slots = ort->freeVersionSlots();
    send<DecodeOperandMsg>(op(1, 0), Dir::Out, 0xC000u, Bytes(512));
    send<DecodeOperandMsg>(op(2, 0), Dir::InOut, 0xC000u, Bytes(512));
    EXPECT_EQ(ort->freeVersionSlots(), slots - 2);

    auto creates =
        ovtProbe.of<CreateVersionMsg>(MsgType::CreateVersion);
    ASSERT_EQ(creates.size(), 2u);
    EXPECT_TRUE(creates[0]->renamed);
    EXPECT_FALSE(creates[0]->hasPrev);
    EXPECT_FALSE(creates[1]->renamed); // inout: in place
    EXPECT_TRUE(creates[1]->hasPrev);
    EXPECT_EQ(creates[1]->prevSlot, creates[0]->slot);

    // The inout's info: chains on the writer, waits on the previous
    // version, produces its own.
    auto infos = trsProbe.of<OperandInfoMsg>(MsgType::OperandInfo);
    EXPECT_EQ(infos[1]->chainTo, op(1, 0));
    EXPECT_EQ(infos[1]->version.slot, creates[1]->slot);
    EXPECT_EQ(infos[1]->waitVersion.slot, creates[0]->slot);
}

TEST_F(OrtFixture, VersionDeadReturnsCreditAndReclaims)
{
    send<DecodeOperandMsg>(op(1, 0), Dir::Out, 0xD000u, Bytes(512));
    auto creates =
        ovtProbe.of<CreateVersionMsg>(MsgType::CreateVersion);
    std::size_t before = ort->freeVersionSlots();
    send<VersionDeadMsg>(creates[0]->slot, creates[0]->ortEntry);
    EXPECT_EQ(ort->freeVersionSlots(), before + 1);
}

TEST_F(OrtFixture, FullSetStallsGatewayAndRecovers)
{
    // Decode live writer objects until some 16-way set fills and the
    // next access to it parks at the queue head: with 2 sets this is
    // guaranteed within 33 distinct addresses (pigeonhole).
    unsigned sent = 0;
    while (gwProbe.count(MsgType::GatewayStall) == 0) {
        ASSERT_LT(sent, 40u) << "no stall after overfilling the ORT";
        send<DecodeOperandMsg>(op(1, 0), Dir::Out,
                               0x100000u + 0x1000u * sent,
                               Bytes(256));
        ++sent;
    }
    EXPECT_EQ(ort->stallEvents(), 1u);
    // The parked decode produced no version yet.
    std::size_t before =
        ovtProbe.of<CreateVersionMsg>(MsgType::CreateVersion).size();
    EXPECT_EQ(before, sent - 1);

    // Kill the live versions: VersionDead is a control message that
    // bypasses the parked head, reclaims entries, and unparks the
    // decode; the gateway resumes and the operand completes.
    auto creates =
        ovtProbe.of<CreateVersionMsg>(MsgType::CreateVersion);
    for (const auto *c : creates) {
        send<VersionDeadMsg>(c->slot, c->ortEntry);
        if (gwProbe.count(MsgType::GatewayResume) > 0)
            break;
    }
    EXPECT_EQ(gwProbe.count(MsgType::GatewayResume), 1u);
    EXPECT_EQ(
        trsProbe.of<OperandInfoMsg>(MsgType::OperandInfo).size(),
        sent);
}

TEST_F(OrtFixture, QuiescentHintGrantAndDeny)
{
    send<DecodeOperandMsg>(op(1, 0), Dir::Out, 0xE000u, Bytes(512));
    auto creates =
        ovtProbe.of<CreateVersionMsg>(MsgType::CreateVersion);
    std::uint32_t slot = creates[0]->slot;
    std::uint32_t entry = creates[0]->ortEntry;
    std::uint32_t epoch = creates[0]->epoch;

    // Deny: reader count mismatch (a registration is in flight).
    send<DecodeOperandMsg>(op(2, 0), Dir::In, 0xE000u, Bytes(512));
    send<VersionQuiescentMsg>(slot, epoch, 0u, entry);
    EXPECT_EQ(ovtProbe.count(MsgType::RetireVersion), 0u);

    // Grant: counts match and the version is still current.
    send<VersionQuiescentMsg>(slot, epoch, 1u, entry);
    auto grants =
        ovtProbe.of<RetireVersionMsg>(MsgType::RetireVersion);
    ASSERT_EQ(grants.size(), 1u);
    EXPECT_EQ(grants[0]->slot, slot);
    EXPECT_EQ(grants[0]->epoch, epoch);

    // After the grant the object has no current version: the next
    // reader misses and starts a fresh memory version.
    send<DecodeOperandMsg>(op(3, 0), Dir::In, 0xE000u, Bytes(512));
    auto infos = trsProbe.of<OperandInfoMsg>(MsgType::OperandInfo);
    EXPECT_TRUE(infos.back()->readyNow);
}

TEST_F(OrtFixture, StaleHintDeniedByEpoch)
{
    send<DecodeOperandMsg>(op(1, 0), Dir::Out, 0xF000u, Bytes(512));
    auto creates =
        ovtProbe.of<CreateVersionMsg>(MsgType::CreateVersion);
    std::uint32_t slot = creates[0]->slot;
    std::uint32_t entry = creates[0]->ortEntry;
    std::uint32_t epoch = creates[0]->epoch;
    // The version dies; the slot's epoch advances.
    send<VersionDeadMsg>(slot, entry);
    // A stale hint (old epoch) must not be granted even if the slot
    // were re-used by a newer current version.
    send<DecodeOperandMsg>(op(2, 0), Dir::Out, 0xF000u, Bytes(512));
    send<VersionQuiescentMsg>(slot, epoch, 0u, entry);
    EXPECT_EQ(ovtProbe.count(MsgType::RetireVersion), 0u);
}

} // namespace
} // namespace tss
