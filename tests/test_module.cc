/**
 * @file
 * Tests for the frontend-module framework itself, using a mock
 * module on a one-domain engine: single-server serialization,
 * control-queue bypass of a parked head packet, unpark resumption,
 * and outbox flush timing (replies leave, in order, in the one event
 * that ends a service).
 */

#include <gtest/gtest.h>

#include "core/module.hh"
#include "module_harness.hh"

namespace tss
{
namespace
{

/** Probe message reusing an existing type tag. */
struct ProbeMsg : ProtoMsg
{
    explicit ProbeMsg(int probe_id, bool control_msg = false)
        : ProtoMsg(control_msg ? MsgType::VersionDead
                               : MsgType::DecodeOperand, 8),
          id(probe_id)
    {}

    int id;
};

/**
 * Mock module: fixed service cost; parks while `blockHead` is set;
 * each serviced probe sends `repliesPerService` replies to node
 * `replyTo`, numbered id * 10 + k in send order.
 */
class MockModule : public FrontendModule
{
  public:
    MockModule(EventQueue &eq, Network &network, NodeId node)
        : FrontendModule("mock", eq, network, node)
    {}

    bool blockHead = false;
    unsigned repliesPerService = 0;
    NodeId replyTo = 2;
    std::vector<std::pair<int, Cycle>> serviced;

  protected:
    Service
    process(ProtoMsg &msg) override
    {
        auto &probe = static_cast<ProbeMsg &>(msg);
        if (probe.type == MsgType::VersionDead) {
            // Control packet: unblocks the head.
            blockHead = false;
            unpark();
            serviced.emplace_back(probe.id, curCycle());
            return {5, false};
        }
        if (blockHead)
            return {5, true}; // park
        serviced.emplace_back(probe.id, curCycle());
        for (unsigned k = 0; k < repliesPerService; ++k)
            sendMsg(replyTo, std::make_unique<ProbeMsg>(
                                 probe.id * 10 + static_cast<int>(k)));
        return {10, false};
    }

    bool
    isControl(MsgType type) const override
    {
        return type == MsgType::VersionDead;
    }
};

/** Endpoint that records each delivered probe's id and cycle. */
struct Recorder : Endpoint
{
    explicit Recorder(EventQueue &queue) : eq(queue) {}

    void
    receive(MessagePtr msg) override
    {
        arrivals.emplace_back(static_cast<ProbeMsg &>(*msg).id, eq.now());
    }

    EventQueue &eq;
    std::vector<std::pair<int, Cycle>> arrivals;
};

struct ModuleFixture : ::testing::Test, OneDomain
{
    ModuleFixture() : OneDomain(0, 1.0), module(eq, net, 1), replies(eq)
    {
        net.attach(module.replyTo, replies);
    }

    void
    inject(int id, bool control = false, Cycle when = 0)
    {
        eq.schedule(when, [this, id, control] {
            auto msg = std::make_unique<ProbeMsg>(id, control);
            msg->src = 0;
            msg->dst = 1;
            net.send(MessagePtr(msg.release()));
        });
    }

    MockModule module;
    Recorder replies;
};

TEST_F(ModuleFixture, ServicesSerially)
{
    inject(1);
    inject(2);
    inject(3);
    engine.run();
    ASSERT_EQ(module.serviced.size(), 3u);
    // Service start times are >= 10 cycles apart (single server).
    EXPECT_GE(module.serviced[1].second,
              module.serviced[0].second + 10);
    EXPECT_GE(module.serviced[2].second,
              module.serviced[1].second + 10);
    EXPECT_EQ(module.packetsProcessed(), 3u);
    EXPECT_GE(module.busyCycles(), 30u);
}

TEST_F(ModuleFixture, ParkedHeadWaitsForControl)
{
    module.blockHead = true;
    inject(1);
    inject(2);
    inject(100, /*control=*/true, /*when=*/500);
    engine.run();
    ASSERT_EQ(module.serviced.size(), 3u);
    // The control packet is serviced first (head was parked)...
    EXPECT_EQ(module.serviced[0].first, 100);
    EXPECT_GE(module.serviced[0].second, 500u);
    // ...then the parked packet and its successor, in order.
    EXPECT_EQ(module.serviced[1].first, 1);
    EXPECT_EQ(module.serviced[2].first, 2);
}

TEST_F(ModuleFixture, ControlBypassesQueueEvenUnparked)
{
    // Long service of packet 1; packet 2 and a control packet arrive
    // while busy: control goes first.
    inject(1);
    inject(2, false, 1);
    inject(100, true, 2);
    engine.run();
    ASSERT_EQ(module.serviced.size(), 3u);
    EXPECT_EQ(module.serviced[0].first, 1);
    EXPECT_EQ(module.serviced[1].first, 100);
    EXPECT_EQ(module.serviced[2].first, 2);
}

/**
 * The service contract: a service's replies leave when it ends, in
 * send order, and ending a service is one event — N serviced packets
 * execute N events besides the deliveries.
 */
TEST_F(ModuleFixture, RepliesLeaveInOrderWhenServiceEnds)
{
    constexpr int packets = 5;
    constexpr Cycle cost = 10;
    // Fixed fabric (latency 0, 1 byte/cycle): an 8-byte probe takes
    // 8 cycles of serialization.
    constexpr Cycle delay = 8;
    module.repliesPerService = 2;
    for (int id = 1; id <= packets; ++id) {
        auto msg = std::make_unique<ProbeMsg>(id);
        msg->src = 0;
        msg->dst = 1;
        net.sendAt(0, MessagePtr(msg.release()));
    }
    engine.run();

    ASSERT_EQ(module.serviced.size(), std::size_t(packets));
    ASSERT_EQ(replies.arrivals.size(), std::size_t(2 * packets));
    for (int i = 0; i < packets; ++i) {
        const auto &[id, start] = module.serviced[i];
        const auto &first = replies.arrivals[2 * i];
        const auto &second = replies.arrivals[2 * i + 1];
        EXPECT_EQ(first.first, id * 10);
        EXPECT_EQ(second.first, id * 10 + 1);
        EXPECT_EQ(first.second, start + cost + delay) << "probe " << id;
        EXPECT_EQ(second.second, start + cost + delay) << "probe " << id;
    }

    const std::uint64_t deliveries =
        module.packetsProcessed() + replies.arrivals.size();
    EXPECT_EQ(eq.executed() - deliveries, std::uint64_t(packets));
}

TEST_F(ModuleFixture, QueueLengthStatTracksOccupancy)
{
    for (int i = 0; i < 10; ++i)
        inject(i);
    engine.run();
    EXPECT_GT(module.avgQueueLength(eq.now()), 0.0);
}

} // namespace
} // namespace tss
