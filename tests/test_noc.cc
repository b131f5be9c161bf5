/**
 * @file
 * Unit tests for the NoC topology layer: node lookup, hop counting,
 * delivery, per-pair FIFO ordering and contention on the two-level
 * ring, the 2D mesh, and the fixed-latency degenerate topology, plus
 * the station placement policies. Test bodies inject with sendAt;
 * send() runs only inside an engine event.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "noc/mesh.hh"
#include "noc/network.hh"
#include "noc/placement.hh"
#include "noc/ring.hh"
#include "noc/topology.hh"
#include "module_harness.hh"
#include "sim/random.hh"

namespace tss
{
namespace
{

/** Endpoint recording delivery times. */
class Sink : public Endpoint
{
  public:
    explicit Sink(EventQueue &queue) : eq(queue) {}

    void
    receive(MessagePtr msg) override
    {
        arrivals.push_back(eq.now());
        sources.push_back(msg->src);
    }

    EventQueue &eq;
    std::vector<Cycle> arrivals;
    std::vector<NodeId> sources;
};

NocParams
smallRing()
{
    NocParams p;
    p.numCores = 32;
    p.coresPerRing = 8;
    p.numL2Banks = 8;
    p.numMemCtrls = 2;
    p.numFrontendTiles = 4;
    return p;
}

TEST(RingTopology, NodeIdsAreDistinct)
{
    EventQueue eq;
    RingNetwork net("noc", eq, smallRing());
    std::vector<NodeId> all;
    for (unsigned i = 0; i < 32; ++i)
        all.push_back(net.coreNode(i));
    for (unsigned i = 0; i < 4; ++i)
        all.push_back(net.frontendNode(i));
    for (unsigned i = 0; i < 8; ++i)
        all.push_back(net.l2Node(i));
    for (unsigned i = 0; i < 2; ++i)
        all.push_back(net.memCtrlNode(i));
    std::sort(all.begin(), all.end());
    EXPECT_TRUE(std::adjacent_find(all.begin(), all.end()) ==
                all.end());
}

TEST(RingTopology, HopCounts)
{
    EventQueue eq;
    RingNetwork net("noc", eq, smallRing());
    // Same node: zero hops.
    EXPECT_EQ(net.hopCount(net.coreNode(0), net.coreNode(0)), 0u);
    // Neighbours on the same local ring: one hop.
    EXPECT_EQ(net.hopCount(net.coreNode(0), net.coreNode(1)), 1u);
    // Same ring, opposite side: shortest direction <= stops/2.
    EXPECT_LE(net.hopCount(net.coreNode(0), net.coreNode(4)), 5u);
    // Cross-ring paths go through both hubs.
    unsigned cross =
        net.hopCount(net.coreNode(0), net.coreNode(31));
    EXPECT_GT(cross, 2u);
    // Core to frontend: local ring to hub, hub to tile.
    EXPECT_GT(net.hopCount(net.coreNode(5), net.frontendNode(0)), 0u);
}

TEST(RingNetwork, DeliversWithLatency)
{
    EventQueue eq;
    RingNetwork net("noc", eq, smallRing());
    Sink sink(eq);
    net.attach(net.frontendNode(0), sink);

    auto msg = std::make_unique<Message>(net.coreNode(3),
                                         net.frontendNode(0), 16);
    net.sendAt(0, std::move(msg));
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), 1u);
    EXPECT_GT(sink.arrivals[0], 0u);
    EXPECT_EQ(net.messagesSent(), 1u);
}

TEST(RingNetwork, PerPairFifo)
{
    // Each message is sent from an engine event, so its routing
    // defers to the window barrier with the event's cycle.
    SimEngine engine(1);
    EventQueue &eq = engine.shard(0);
    RingNetwork net("noc", eq, smallRing());
    engine.setLookahead(net.minDeliveryDelay());
    Sink sink(eq);
    net.attach(net.frontendNode(1), sink);

    // A large message followed by small ones; arrivals must stay in
    // send order despite different serialization times.
    for (int i = 0; i < 20; ++i) {
        Bytes size = i == 0 ? 512 : 8;
        eq.schedule(i, [&net, size, i] {
            auto msg = std::make_unique<Message>(0, 0, size);
            msg->src = net.coreNode(2);
            msg->dst = net.frontendNode(1);
            msg->bytes = size;
            net.send(std::move(msg));
        });
    }
    engine.run();
    ASSERT_EQ(sink.arrivals.size(), 20u);
    for (std::size_t i = 1; i < sink.arrivals.size(); ++i)
        EXPECT_GE(sink.arrivals[i], sink.arrivals[i - 1]);
}

TEST(RingNetwork, TwoHopPatternChargesExactlyTwoLinks)
{
    // Known traffic pattern: core 0 -> core 2 sits on local ring 0,
    // stops 0 -> 2 clockwise — exactly two ring segments (0 and 1).
    // Five spaced-out 16-byte messages (ser = 1 cycle each) must
    // charge those two links five one-cycle reservations apiece and
    // leave every other link in the fabric untouched.
    EventQueue eq;
    RingNetwork net("noc", eq, smallRing());
    Sink sink(eq);
    net.attach(net.coreNode(2), sink);
    ASSERT_EQ(net.hopCount(net.coreNode(0), net.coreNode(2)), 2u);

    constexpr unsigned sends = 5;
    for (unsigned i = 0; i < sends; ++i) {
        net.sendAt(i * 10, std::make_unique<Message>(net.coreNode(0),
                                                     net.coreNode(2), 16));
    }
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), sends);

    std::vector<std::uint64_t> traversals = net.linkTraversals();
    ASSERT_GT(traversals.size(), 2u);
    EXPECT_EQ(traversals[0], sends); // ring 0, segment 0
    EXPECT_EQ(traversals[1], sends); // ring 0, segment 1
    for (std::size_t i = 2; i < traversals.size(); ++i)
        EXPECT_EQ(traversals[i], 0u) << "link " << i;

    Cycle now = eq.now();
    std::vector<double> utils = net.linkUtilizations(now);
    ASSERT_EQ(utils.size(), traversals.size());
    double lanes = smallRing().lanesPerSegment;
    double expected =
        static_cast<double>(sends) / (static_cast<double>(now) * lanes);
    EXPECT_NEAR(utils[0], expected, 1e-12);
    EXPECT_NEAR(utils[1], expected, 1e-12);
    for (std::size_t i = 2; i < utils.size(); ++i)
        EXPECT_EQ(utils[i], 0.0) << "link " << i;

    // Everything is under 10% busy, so the histogram must put every
    // link of the fabric in the first bucket.
    obs::HistogramSnapshot hist = net.utilizationHistogram(now);
    ASSERT_EQ(hist.counts.size(), 10u);
    EXPECT_EQ(hist.counts[0], utils.size());
    EXPECT_EQ(hist.totalCount(), utils.size());
}

TEST(RingNetwork, SaturatedLinkLandsInTopHistogramBucket)
{
    // Back-to-back neighbour traffic keeps segment 0 busy nearly the
    // whole run on one lane. With lanesPerSegment = 1 its utilization
    // approaches 1.0, which must land in the closed top bucket
    // [90%, 100%] while idle links stay in [0%, 10%).
    EventQueue eq;
    NocParams p = smallRing();
    p.lanesPerSegment = 1;
    RingNetwork net("noc", eq, p);
    Sink sink(eq);
    net.attach(net.coreNode(1), sink);

    constexpr unsigned sends = 64;
    for (unsigned i = 0; i < sends; ++i) {
        auto msg = std::make_unique<Message>(net.coreNode(0),
                                             net.coreNode(1), 256);
        net.sendAt(0, std::move(msg));
    }
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), sends);

    std::vector<double> utils = net.linkUtilizations(eq.now());
    EXPECT_GT(utils[0], 0.9);
    obs::HistogramSnapshot hist = net.utilizationHistogram(eq.now());
    ASSERT_EQ(hist.counts.size(), 10u);
    EXPECT_EQ(hist.counts[9], 1u);
    EXPECT_EQ(hist.counts[0], utils.size() - 1);
}

TEST(RingNetwork, ContentionDelaysTraffic)
{
    EventQueue eq;
    RingNetwork net("noc", eq, smallRing());
    Sink sink(eq);
    net.attach(net.l2Node(0), sink);

    // Single probe.
    auto probe = std::make_unique<Message>(net.coreNode(0),
                                           net.l2Node(0), 64);
    net.sendAt(0, std::move(probe));
    eq.run();
    Cycle uncontended = sink.arrivals[0];

    // Same probe while 64 big messages hammer the same path.
    EventQueue eq2;
    RingNetwork net2("noc", eq2, smallRing());
    Sink sink2(eq2);
    Sink other(eq2);
    net2.attach(net2.l2Node(0), sink2);
    net2.attach(net2.l2Node(1), other);
    for (int i = 0; i < 64; ++i) {
        auto noise = std::make_unique<Message>(net2.coreNode(1),
                                               net2.l2Node(1), 1024);
        net2.sendAt(0, std::move(noise));
    }
    auto probe2 = std::make_unique<Message>(net2.coreNode(0),
                                            net2.l2Node(0), 64);
    net2.sendAt(0, std::move(probe2));
    eq2.run();
    EXPECT_GT(sink2.arrivals[0], uncontended);
}

TEST(RingNetwork, LargeMessagesTakeLonger)
{
    EventQueue eq;
    RingNetwork net("noc", eq, smallRing());
    Sink sink(eq);
    net.attach(net.memCtrlNode(0), sink);

    auto small = std::make_unique<Message>(net.coreNode(0),
                                           net.memCtrlNode(0), 16);
    net.sendAt(0, std::move(small));
    eq.run();
    Cycle small_t = sink.arrivals[0];

    EventQueue eq2;
    RingNetwork net2("noc", eq2, smallRing());
    Sink sink2(eq2);
    net2.attach(net2.memCtrlNode(0), sink2);
    auto big = std::make_unique<Message>(net2.coreNode(0),
                                         net2.memCtrlNode(0), 4096);
    net2.sendAt(0, std::move(big));
    eq2.run();
    EXPECT_GT(sink2.arrivals[0], small_t);
}

TEST(FixedNetwork, ExactLatency)
{
    EventQueue eq;
    FixedNetwork net("fixed", eq, fixedFabric(10, 16.0));
    Sink sink(eq);
    net.attach(42, sink);
    auto msg = std::make_unique<Message>(7, 42, 32);
    net.sendAt(0, std::move(msg));
    eq.run();
    ASSERT_EQ(sink.arrivals.size(), 1u);
    EXPECT_EQ(sink.arrivals[0], 12u); // 10 + ceil(32/16)
}

TEST(FixedNetwork, SparseHighNodeIdsKeepPerPairFifo)
{
    // Delivery state is a table indexed by node id; ids far apart
    // (and a source that never attached) must still route and clamp.
    EventQueue eq;
    FixedNetwork net("fixed", eq, fixedFabric(10, 16.0));
    Sink low(eq);
    Sink high(eq);
    net.attach(3, low);
    net.attach(1000, high);

    // 1000 -> 3: a 512 B message (arrives 0 + 10 + 32 = 42), then an
    // 8 B one injected a cycle later that would arrive at 12 — the
    // per-pair clamp holds it behind the first.
    net.sendAt(0, std::make_unique<Message>(1000, 3, 512));
    net.sendAt(1, std::make_unique<Message>(1000, 3, 8));
    // Other pairs are not clamped by 1000 -> 3 traffic.
    net.sendAt(1, std::make_unique<Message>(3, 1000, 8));
    net.sendAt(1, std::make_unique<Message>(2000, 3, 8));
    eq.run();

    EXPECT_EQ(low.arrivals, (std::vector<Cycle>{12, 42, 42}));
    EXPECT_EQ(low.sources, (std::vector<NodeId>{2000, 1000, 1000}));
    EXPECT_EQ(high.arrivals, (std::vector<Cycle>{12}));
    EXPECT_EQ(net.messagesSent(), 4u);
}

TEST(FixedNetworkDeathTest, SendToUnattachedNodeAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    EventQueue eq;
    FixedNetwork net("fixed", eq, fixedFabric(10, 16.0));
    Sink sink(eq);
    net.attach(5, sink);
    // Inside the table's range but never attached, then past its end.
    EXPECT_DEATH(net.sendAt(0, std::make_unique<Message>(5, 2, 8)),
                 "message to unattached node 2");
    EXPECT_DEATH(net.sendAt(0, std::make_unique<Message>(5, 77, 8)),
                 "message to unattached node 77");
}

TEST(NetworkDeathTest, SendOutsideAnEngineEventAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    OneDomain one(10, 16.0);
    Sink sink(one.eq);
    one.net.attach(5, sink);
    EXPECT_DEATH(one.net.send(std::make_unique<Message>(2, 5, 8)),
                 "Network::send called outside an engine event");
}

TEST(TopologyNetworkDeathTest, ZeroLanesPerSegmentAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    NocParams p = smallRing();
    p.lanesPerSegment = 0;
    for (TopologyKind kind : {TopologyKind::Ring, TopologyKind::Mesh}) {
        EventQueue eq;
        EXPECT_DEATH(makeTopology(kind, "noc", eq, p),
                     "lanesPerSegment must be > 0");
    }
}

TEST(TopologyNetworkDeathTest, MoreLanesThanALinkHoldsAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    NocParams p = smallRing();
    p.lanesPerSegment = TopologyNetwork::maxLanes + 1;
    for (TopologyKind kind : {TopologyKind::Ring, TopologyKind::Mesh}) {
        EventQueue eq;
        EXPECT_DEATH(makeTopology(kind, "noc", eq, p),
                     "lanesPerSegment must be <= 4, not 5");
    }
}

TEST(TopologyNetworkDeathTest, NonPositiveBytesPerCycleAborts)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    for (double bytes_per_cycle :
         {0.0, -16.0, std::numeric_limits<double>::infinity()}) {
        NocParams p = smallRing();
        p.bytesPerCycle = bytes_per_cycle;
        EventQueue eq;
        EXPECT_DEATH(makeTopology(TopologyKind::Ring, "noc", eq, p),
                     "bytesPerCycle must be positive and finite");
    }
}

TEST(RingNetwork, ManyCoreConfigurationWorks)
{
    EventQueue eq;
    NocParams p;
    p.numCores = 257; // 256 workers + master
    p.numFrontendTiles = 16;
    RingNetwork net("noc", eq, p);
    Sink sink(eq);
    net.attach(net.frontendNode(15), sink);
    auto msg = std::make_unique<Message>(net.coreNode(256),
                                         net.frontendNode(15), 64);
    net.sendAt(0, std::move(msg));
    eq.run();
    EXPECT_EQ(sink.arrivals.size(), 1u);
}

// ---------------------------------------------------------- placement

TEST(Placement, AdjacentReproducesHistoricalLayout)
{
    // Hubs first, then the frontend tiles as one block, then L2
    // banks, then memory controllers — the layout the pre-topology
    // RingNetwork hard-coded (and the golden stats pin).
    PlacementMap map =
        makePlacement(PlacementKind::Adjacent, 4, 3, 8, 2, 1);
    EXPECT_EQ(map.globalStops, 17u);
    for (unsigned h = 0; h < 4; ++h)
        EXPECT_EQ(map.hubStop[h], h);
    for (unsigned f = 0; f < 3; ++f)
        EXPECT_EQ(map.frontendStop[f], 4 + f);
    for (unsigned b = 0; b < 8; ++b)
        EXPECT_EQ(map.l2Stop[b], 7 + b);
    for (unsigned m = 0; m < 2; ++m)
        EXPECT_EQ(map.mcStop[m], 15 + m);
}

/** Every station occupies exactly one stop, all stops covered. */
void
expectPermutation(const PlacementMap &map)
{
    std::vector<unsigned> stops;
    for (unsigned s : map.hubStop)
        stops.push_back(s);
    for (unsigned s : map.frontendStop)
        stops.push_back(s);
    for (unsigned s : map.l2Stop)
        stops.push_back(s);
    for (unsigned s : map.mcStop)
        stops.push_back(s);
    ASSERT_EQ(stops.size(), map.globalStops);
    std::sort(stops.begin(), stops.end());
    for (unsigned i = 0; i < stops.size(); ++i)
        EXPECT_EQ(stops[i], i);
}

TEST(Placement, SpreadDispersesFrontendTiles)
{
    PlacementMap map =
        makePlacement(PlacementKind::Spread, 8, 12, 16, 4, 1);
    expectPermutation(map);

    // Frontend tiles keep their relative order but no longer form
    // one block: consecutive tiles are separated by other stations.
    std::vector<unsigned> tiles = map.frontendStop;
    EXPECT_TRUE(std::is_sorted(tiles.begin(), tiles.end()));
    unsigned adjacent_pairs = 0;
    for (std::size_t i = 1; i < tiles.size(); ++i)
        adjacent_pairs += tiles[i] == tiles[i - 1] + 1 ? 1 : 0;
    EXPECT_LT(adjacent_pairs, tiles.size() / 2)
        << "spread placement left the tiles mostly contiguous";
}

TEST(Placement, RandomIsASeededPermutation)
{
    PlacementMap a =
        makePlacement(PlacementKind::Random, 8, 12, 16, 4, 7);
    PlacementMap b =
        makePlacement(PlacementKind::Random, 8, 12, 16, 4, 7);
    PlacementMap c =
        makePlacement(PlacementKind::Random, 8, 12, 16, 4, 8);
    expectPermutation(a);
    expectPermutation(c);
    EXPECT_EQ(a.frontendStop, b.frontendStop) << "same seed differs";
    EXPECT_NE(a.frontendStop, c.frontendStop) << "seed ignored";
}

TEST(Placement, ParseRoundTrips)
{
    for (PlacementKind k :
         {PlacementKind::Adjacent, PlacementKind::Spread,
          PlacementKind::Random})
        EXPECT_EQ(placementFromString(toString(k)), k);
    for (TopologyKind k : {TopologyKind::Fixed, TopologyKind::Ring,
                           TopologyKind::Mesh})
        EXPECT_EQ(topologyFromString(toString(k)), k);
}

// --------------------------------------------------------------- mesh

TEST(MeshNetwork, GridGeometryAndHops)
{
    EventQueue eq;
    MeshNetwork net("mesh", eq, smallRing());
    // 4 rings -> 4 hubs; 4 + 4 + 8 + 2 = 18 stations -> 5x4 grid.
    EXPECT_EQ(net.meshWidth(), 5u);
    EXPECT_GE(net.meshWidth() * net.meshHeight(), 18u);

    // Global stations route XY: hop count is the Manhattan distance.
    const PlacementMap &place = net.placement();
    unsigned f0 = place.frontendStop[0];
    unsigned l7 = place.l2Stop[7];
    unsigned dx = net.stopX(f0) > net.stopX(l7)
        ? net.stopX(f0) - net.stopX(l7)
        : net.stopX(l7) - net.stopX(f0);
    unsigned dy = net.stopY(f0) > net.stopY(l7)
        ? net.stopY(f0) - net.stopY(l7)
        : net.stopY(l7) - net.stopY(f0);
    EXPECT_EQ(net.hopCount(net.frontendNode(0), net.l2Node(7)),
              dx + dy);

    // Core legs still ride the local processor rings.
    EXPECT_GT(net.hopCount(net.coreNode(0), net.frontendNode(0)), 0u);
    EXPECT_EQ(net.hopCount(net.coreNode(0), net.coreNode(1)), 1u);
}

TEST(MeshNetwork, DeliversAndRecordsContention)
{
    EventQueue eq;
    MeshNetwork net("mesh", eq, smallRing());
    Sink sink(eq);
    net.attach(net.l2Node(0), sink);
    for (int i = 0; i < 64; ++i) {
        auto msg = std::make_unique<Message>(net.coreNode(1),
                                             net.l2Node(0), 1024);
        net.sendAt(0, std::move(msg));
    }
    eq.run();
    EXPECT_EQ(sink.arrivals.size(), 64u);
    LinkStats links = net.linkStats(eq.now());
    EXPECT_GT(links.traversals, 0u);
    EXPECT_GT(links.laneWaitCycles, 0u)
        << "64 large same-path messages should contend for lanes";
    EXPECT_GT(links.maxUtilization, 0.0);
}

TEST(FixedNetwork, DistanceFreeDelivery)
{
    EventQueue eq;
    NocParams p = smallRing();
    p.fixedLatency = 10;
    FixedNetwork net("fixed", eq, p);
    Sink near(eq), far(eq);
    net.attach(net.frontendNode(0), near);
    net.attach(net.memCtrlNode(1), far);
    auto a = std::make_unique<Message>(net.coreNode(0),
                                       net.frontendNode(0), 32);
    auto b = std::make_unique<Message>(net.coreNode(0),
                                       net.memCtrlNode(1), 32);
    net.sendAt(0, std::move(a));
    net.sendAt(0, std::move(b));
    eq.run();
    ASSERT_EQ(near.arrivals.size(), 1u);
    ASSERT_EQ(far.arrivals.size(), 1u);
    EXPECT_EQ(near.arrivals[0], far.arrivals[0])
        << "fixed topology must ignore distance";
    EXPECT_EQ(net.hopCount(net.coreNode(0), net.memCtrlNode(1)), 0u);
}

/**
 * Regression for the shared per-pair FIFO clamp (Network::deliverAt):
 * no topology/placement may reorder messages between one
 * source/destination pair, no matter how serialization times and
 * contention interleave. Randomized traffic over every topology.
 */
TEST(TopologyNetwork, PerPairFifoUnderRandomTrafficAllTopologies)
{
    struct Probe : Message
    {
        Probe(NodeId s, NodeId d, Bytes b, std::uint64_t sequence)
            : Message(s, d, b), seq(sequence)
        {}
        std::uint64_t seq;
    };

    struct SeqSink : Endpoint
    {
        void
        receive(MessagePtr msg) override
        {
            auto &probe = static_cast<Probe &>(*msg);
            auto key = (std::uint64_t(std::uint32_t(probe.src)) << 32) |
                std::uint32_t(probe.dst);
            auto [it, inserted] = lastSeq.emplace(key, probe.seq);
            if (!inserted) {
                EXPECT_GT(probe.seq, it->second)
                    << "same-pair messages reordered";
                it->second = probe.seq;
            }
        }
        std::map<std::uint64_t, std::uint64_t> lastSeq;
    };

    struct Config
    {
        TopologyKind topology;
        PlacementKind placement;
    };
    const Config configs[] = {
        {TopologyKind::Ring, PlacementKind::Adjacent},
        {TopologyKind::Ring, PlacementKind::Spread},
        {TopologyKind::Mesh, PlacementKind::Spread},
        {TopologyKind::Mesh, PlacementKind::Random},
        {TopologyKind::Fixed, PlacementKind::Adjacent},
    };

    for (const Config &config : configs) {
        EventQueue eq;
        NocParams params = smallRing();
        params.placement = config.placement;
        auto net =
            makeTopology(config.topology, "noc", eq, params);
        SeqSink sink;
        std::vector<NodeId> nodes;
        for (unsigned i = 0; i < 4; ++i)
            nodes.push_back(net->frontendNode(i));
        for (unsigned i = 0; i < 8; ++i)
            nodes.push_back(net->coreNode(i * 4));
        for (unsigned i = 0; i < 4; ++i)
            nodes.push_back(net->l2Node(i));
        for (NodeId node : nodes)
            net->attach(node, sink);

        Rng rng(42);
        std::uint64_t seq = 0;
        for (unsigned burst = 0; burst < 40; ++burst) {
            Cycle when = burst * 3;
            unsigned count =
                static_cast<unsigned>(rng.rangeInclusive(1, 6));
            for (unsigned i = 0; i < count; ++i) {
                NodeId src = nodes[rng.range(nodes.size())];
                NodeId dst = nodes[rng.range(nodes.size())];
                auto bytes = static_cast<Bytes>(
                    8u << rng.range(7)); // 8..512 B
                net->sendAt(when,
                            std::make_unique<Probe>(src, dst, bytes, seq++));
            }
        }
        eq.run();
        EXPECT_FALSE(sink.lastSeq.empty());
    }
}

/**
 * Pins exact lane reservation, where the tests above check contention
 * only qualitatively. Seeded traffic of 8-4096 B messages, several
 * injected on the same cycle, crosses the ring (adjacent and spread
 * placement) and the mesh (spread) at 1, 3 and 4 lanes per link; an
 * odd lane count exercises the lane pick's tail. On the ring, probe
 * pairs cross the global ring's wrap segment in each direction; on
 * every fabric, a message leaving or entering a processor ring
 * crosses one of its hub's two segments. The arrival
 * digest and LinkStats totals below were captured on the
 * std::min_element lane pick and modulo ring walks that preceded the
 * branch-free pick and conditional-wrap walks, before either was
 * written: a message taking another lane, or the same lane at
 * another cycle, moves them.
 */
TEST(TopologyNetwork, ExactLaneReservationUnderSeededContention)
{
    struct Probe : Message
    {
        Probe(NodeId s, NodeId d, Bytes b, std::size_t sequence)
            : Message(s, d, b), seq(sequence)
        {}
        std::size_t seq;
    };

    struct Recorder : Endpoint
    {
        explicit Recorder(EventQueue &queue) : eq(queue) {}

        void
        receive(MessagePtr msg) override
        {
            arrivals.at(static_cast<Probe &>(*msg).seq) = eq.now();
        }

        EventQueue &eq;
        std::vector<Cycle> arrivals;
    };

    struct Case
    {
        TopologyKind topology;
        PlacementKind placement;
        unsigned lanes;
        std::uint64_t digest;     ///< FNV-1a of arrivals, in send order
        std::uint64_t traversals;
        Cycle busyLaneCycles;
        Cycle laneWaitCycles;
    };
    const Case cases[] = {
        {TopologyKind::Ring, PlacementKind::Adjacent, 1,
         0x66ae115d6d3a33f8ull, 3204, 391481, 6049527},
        {TopologyKind::Ring, PlacementKind::Adjacent, 3,
         0x07b3483367745200ull, 3204, 391481, 485323},
        {TopologyKind::Ring, PlacementKind::Adjacent, 4,
         0xdb960f703122bb32ull, 3204, 391481, 93361},
        {TopologyKind::Ring, PlacementKind::Spread, 1,
         0xd4caf055b0127ad3ull, 3168, 384369, 6209224},
        {TopologyKind::Ring, PlacementKind::Spread, 3,
         0x430787733081d8b9ull, 3168, 384369, 579056},
        {TopologyKind::Ring, PlacementKind::Spread, 4,
         0x2faaa9ac3b401b70ull, 3168, 384369, 93871},
        {TopologyKind::Mesh, PlacementKind::Spread, 1,
         0x4fd39d81a085fda5ull, 2720, 327257, 4788918},
        {TopologyKind::Mesh, PlacementKind::Spread, 3,
         0x80c06f156f9b4a50ull, 2720, 327257, 178455},
        {TopologyKind::Mesh, PlacementKind::Spread, 4,
         0x8ec602b54d5c4dd8ull, 2720, 327257, 19592},
    };

    for (const Case &c : cases) {
        SCOPED_TRACE(std::string(toString(c.topology)) + "/" +
                     toString(c.placement) + "/" +
                     std::to_string(c.lanes) + " lanes");
        EventQueue eq;
        NocParams params = smallRing();
        params.placement = c.placement;
        params.lanesPerSegment = c.lanes;
        auto net = makeTopology(c.topology, "noc", eq, params);
        Recorder sink(eq);
        const unsigned stations = params.numCores +
            params.numFrontendTiles + params.numL2Banks +
            params.numMemCtrls;
        for (unsigned n = 0; n < stations; ++n)
            net->attach(static_cast<NodeId>(n), sink);

        // A station at every global stop (a hub's is its ring's first
        // core), for the wrap-crossing probes.
        const PlacementMap &place = net->placement();
        std::vector<NodeId> at_stop(place.globalStops);
        for (unsigned r = 0; r < place.hubStop.size(); ++r)
            at_stop[place.hubStop[r]] =
                net->coreNode(r * params.coresPerRing);
        for (unsigned i = 0; i < params.numFrontendTiles; ++i)
            at_stop[place.frontendStop[i]] = net->frontendNode(i);
        for (unsigned i = 0; i < params.numL2Banks; ++i)
            at_stop[place.l2Stop[i]] = net->l2Node(i);
        for (unsigned i = 0; i < params.numMemCtrls; ++i)
            at_stop[place.mcStop[i]] = net->memCtrlNode(i);
        const NodeId last_stop = at_stop[place.globalStops - 1];
        const NodeId second_stop = at_stop[1];

        Rng rng(2010);
        std::size_t sent = 0;
        auto send = [&](Cycle when, NodeId src, NodeId dst, Bytes bytes) {
            sink.arrivals.push_back(invalidCycle);
            net->sendAt(when,
                        std::make_unique<Probe>(src, dst, bytes, sent++));
        };
        for (unsigned burst = 0; burst < 150; ++burst) {
            Cycle when = burst * 48;
            auto count = static_cast<unsigned>(rng.rangeInclusive(1, 5));
            for (unsigned i = 0; i < count; ++i) {
                auto src = static_cast<NodeId>(rng.range(stations));
                NodeId dst = src;
                while (dst == src)
                    dst = static_cast<NodeId>(rng.range(stations));
                send(when, src, dst,
                     static_cast<Bytes>(rng.rangeInclusive(8, 4096)));
            }
            if (burst % 10 == 0) {
                // Across the wrap segment clockwise, then back.
                send(when, last_stop, second_stop, 512);
                send(when, second_stop, last_stop, 512);
            }
        }
        eq.run();

        std::uint64_t digest = 0xcbf29ce484222325ull;
        for (Cycle arrival : sink.arrivals) {
            ASSERT_NE(arrival, invalidCycle) << "message not delivered";
            digest = (digest ^ arrival) * 0x100000001b3ull;
        }
        LinkStats stats = net->linkStats(eq.now());
        EXPECT_EQ(digest, c.digest);
        EXPECT_EQ(stats.traversals, c.traversals);
        EXPECT_EQ(stats.busyLaneCycles, c.busyLaneCycles);
        EXPECT_EQ(stats.laneWaitCycles, c.laneWaitCycles);
        EXPECT_GT(stats.laneWaitCycles, 0u) << "traffic must contend";
        std::vector<std::uint64_t> per_link = net->linkTraversals();
        EXPECT_GT(per_link[params.coresPerRing], 0u)
            << "local ring 0's hub segment must carry traffic";
        if (c.topology == TopologyKind::Ring) {
            EXPECT_GT(per_link.back(), 0u)
                << "the global ring's wrap segment must carry traffic";
        }
    }
}

} // namespace
} // namespace tss
