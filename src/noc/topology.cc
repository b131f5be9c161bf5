#include "topology.hh"

#include <algorithm>
#include <cmath>

#include "noc/mesh.hh"
#include "noc/ring.hh"

namespace tss
{

const char *
toString(TopologyKind kind)
{
    switch (kind) {
      case TopologyKind::Fixed: return "fixed";
      case TopologyKind::Ring: return "ring";
      case TopologyKind::Mesh: return "mesh";
    }
    return "?";
}

TopologyKind
topologyFromString(const std::string &name)
{
    if (name == "fixed")
        return TopologyKind::Fixed;
    if (name == "ring")
        return TopologyKind::Ring;
    if (name == "mesh")
        return TopologyKind::Mesh;
    fatal("unknown topology '%s' (fixed|ring|mesh)", name.c_str());
}

unsigned
TopologyNetwork::ringDistance(unsigned from, unsigned to, unsigned n,
                              bool &clockwise)
{
    unsigned fwd = to >= from ? to - from : to + n - from;
    unsigned bwd = n - fwd;
    if (fwd == 0) {
        clockwise = true;
        return 0;
    }
    clockwise = fwd <= bwd;
    return clockwise ? fwd : bwd;
}

TopologyNetwork::TopologyNetwork(std::string name, EventQueue &eq,
                                 NocParams params)
    : Network(std::move(name), eq), _params(params)
{
    TSS_ASSERT(_params.coresPerRing > 0, "coresPerRing must be > 0");
    // reserveLane reads lane 0 of every link, and serializationCycles
    // converts bytes / bytesPerCycle to an integer cycle count.
    TSS_ASSERT(_params.lanesPerSegment > 0, "lanesPerSegment must be > 0");
    TSS_ASSERT(_params.lanesPerSegment <= maxLanes,
               "lanesPerSegment must be <= %u, not %u", maxLanes,
               _params.lanesPerSegment);
    TSS_ASSERT(std::isfinite(_params.bytesPerCycle) &&
                   _params.bytesPerCycle > 0,
               "bytesPerCycle must be positive and finite, not %g",
               _params.bytesPerCycle);
    numRings = (_params.numCores + _params.coresPerRing - 1) /
        _params.coresPerRing;

    place = makePlacement(_params.placement, numRings,
                          _params.numFrontendTiles, _params.numL2Banks,
                          _params.numMemCtrls, _params.placementSeed);

    localSegments.resize(numRings);
    for (auto &segments : localSegments)
        segments.resize(_params.coresPerRing + 1);
}

NodeId
TopologyNetwork::coreNode(unsigned core) const
{
    TSS_ASSERT(core < _params.numCores, "core %u out of range", core);
    return static_cast<NodeId>(core);
}

NodeId
TopologyNetwork::frontendNode(unsigned tile) const
{
    TSS_ASSERT(tile < _params.numFrontendTiles, "tile %u out of range",
               tile);
    return static_cast<NodeId>(_params.numCores + tile);
}

NodeId
TopologyNetwork::l2Node(unsigned bank) const
{
    TSS_ASSERT(bank < _params.numL2Banks, "bank %u out of range", bank);
    return static_cast<NodeId>(_params.numCores +
                               _params.numFrontendTiles + bank);
}

NodeId
TopologyNetwork::memCtrlNode(unsigned mc) const
{
    TSS_ASSERT(mc < _params.numMemCtrls, "mc %u out of range", mc);
    return static_cast<NodeId>(_params.numCores +
                               _params.numFrontendTiles +
                               _params.numL2Banks + mc);
}

TopologyNetwork::Location
TopologyNetwork::locate(NodeId node) const
{
    auto n = static_cast<unsigned>(node);
    if (n < _params.numCores) {
        unsigned ring = n / _params.coresPerRing;
        unsigned stop = n % _params.coresPerRing;
        return Location{static_cast<int>(ring), stop,
                        place.hubStop[ring]};
    }
    n -= _params.numCores;
    if (n < _params.numFrontendTiles) {
        return Location{-1, place.frontendStop[n],
                        place.frontendStop[n]};
    }
    n -= _params.numFrontendTiles;
    if (n < _params.numL2Banks)
        return Location{-1, place.l2Stop[n], place.l2Stop[n]};
    n -= _params.numL2Banks;
    TSS_ASSERT(n < _params.numMemCtrls, "node %d out of range", node);
    return Location{-1, place.mcStop[n], place.mcStop[n]};
}

void
TopologyNetwork::traceLaneWait(Cycle t, Cycle wait)
{
    obs::trace(obs::TraceEvent::NocLaneWait, t, 0, wait);
}

Cycle
TopologyNetwork::walkRing(std::vector<Link> &segments, unsigned from,
                          unsigned to, Cycle start, Cycle ser)
{
    auto stops = static_cast<unsigned>(segments.size());
    bool clockwise = true;
    unsigned dist = ringDistance(from, to, stops, clockwise);

    // Step with a conditional wrap: stops is not a power of two, and
    // a modulo per hop would cost an integer division.
    Cycle t = start;
    unsigned stop = from;
    for (unsigned i = 0; i < dist; ++i) {
        unsigned seg = clockwise ? stop : (stop == 0 ? stops : stop) - 1;
        t = reserveLane(segments[seg], t, ser) + _params.hopLatency;
        stop = clockwise ? (stop + 1 == stops ? 0 : stop + 1) : seg;
    }
    return t;
}

Cycle
TopologyNetwork::route(NodeId src_node, NodeId dst_node, Cycle inject,
                       Cycle ser)
{
    Location src = locate(src_node);
    Location dst = locate(dst_node);

    Cycle t = inject + ser; // injection serialization

    if (src.localRing >= 0 && src.localRing == dst.localRing) {
        // Same processor ring: purely local traversal.
        return walkRing(localSegments[src.localRing], src.stop,
                        dst.stop, t, ser);
    }

    unsigned hub_pos = _params.coresPerRing; // hub stop index
    if (src.localRing >= 0) {
        t = walkRing(localSegments[src.localRing], src.stop, hub_pos, t,
                     ser);
    }
    unsigned gfrom = src.localRing >= 0 ? src.hubStop : src.stop;
    unsigned gto = dst.localRing >= 0 ? dst.hubStop : dst.stop;
    t = routeGlobal(gfrom, gto, t, ser);
    if (dst.localRing >= 0) {
        t = walkRing(localSegments[dst.localRing], hub_pos, dst.stop, t,
                     ser);
    }
    return t;
}

Cycle
TopologyNetwork::serializationCycles(Bytes bytes) const
{
    auto ser = static_cast<Cycle>(
        (static_cast<double>(bytes) + _params.bytesPerCycle - 1) /
        _params.bytesPerCycle);
    return std::max<Cycle>(ser, 1);
}

void
TopologyNetwork::sendAt(Cycle inject, MessagePtr msg)
{
    msg->sentAt = inject;

    Cycle ser = serializationCycles(msg->bytes);

    obs::trace(obs::TraceEvent::NocSend, inject,
               (static_cast<std::uint32_t>(
                    static_cast<std::uint16_t>(msg->src))
                << 16) |
                   static_cast<std::uint16_t>(msg->dst),
               msg->bytes);
    Cycle t = route(msg->src, msg->dst, inject, ser);
    deliverAt(t, std::move(msg));
}

Cycle
TopologyNetwork::minDeliveryDelay() const
{
    // Injection serialization is clamped to >= 1 cycle (sendAt), and
    // any route between distinct stations crosses at least one link.
    return _params.hopLatency + 1;
}

unsigned
TopologyNetwork::hopCount(NodeId src_node, NodeId dst_node) const
{
    Location src = locate(src_node);
    Location dst = locate(dst_node);
    bool cw = true;
    unsigned count = 0;
    unsigned local_stops = _params.coresPerRing + 1;
    unsigned hub_pos = _params.coresPerRing;

    if (src.localRing >= 0 && src.localRing == dst.localRing)
        return ringDistance(src.stop, dst.stop, local_stops, cw);

    if (src.localRing >= 0)
        count += ringDistance(src.stop, hub_pos, local_stops, cw);
    unsigned gfrom = src.localRing >= 0 ? src.hubStop : src.stop;
    unsigned gto = dst.localRing >= 0 ? dst.hubStop : dst.stop;
    count += globalHops(gfrom, gto);
    if (dst.localRing >= 0)
        count += ringDistance(hub_pos, dst.stop, local_stops, cw);
    return count;
}

void
TopologyNetwork::visitLinks(
    const std::function<void(const Link &)> &fn) const
{
    for (const auto &segments : localSegments)
        for (const auto &link : segments)
            fn(link);
    visitGlobalLinks(fn);
}

double
TopologyNetwork::utilization(const Link &link, Cycle now) const
{
    double capacity = static_cast<double>(now) *
        static_cast<double>(_params.lanesPerSegment);
    return capacity > 0 ? static_cast<double>(link.busyCycles) / capacity
                        : 0.0;
}

LinkStats
TopologyNetwork::linkStats(Cycle now) const
{
    LinkStats stats;
    visitLinks([&](const Link &link) {
        ++stats.links;
        stats.traversals += link.traversals;
        stats.busyLaneCycles += link.busyCycles;
        stats.laneWaitCycles += link.waitCycles;
        stats.maxUtilization =
            std::max(stats.maxUtilization, utilization(link, now));
    });
    return stats;
}

std::vector<double>
TopologyNetwork::linkUtilizations(Cycle now) const
{
    std::vector<double> utils;
    visitLinks(
        [&](const Link &link) { utils.push_back(utilization(link, now)); });
    return utils;
}

std::vector<std::uint64_t>
TopologyNetwork::linkTraversals() const
{
    std::vector<std::uint64_t> counts;
    visitLinks([&](const Link &link) { counts.push_back(link.traversals); });
    return counts;
}

obs::HistogramSnapshot
TopologyNetwork::utilizationHistogram(Cycle now) const
{
    constexpr unsigned buckets = 10;
    obs::HistogramSnapshot h;
    h.lowerBounds.resize(buckets);
    h.counts.assign(buckets, 0);
    for (unsigned b = 0; b < buckets; ++b)
        h.lowerBounds[b] = b * 10;
    for (double u : linkUtilizations(now)) {
        auto b = static_cast<unsigned>(u * buckets);
        h.counts[std::min(b, buckets - 1)]++;
    }
    return h;
}

std::unique_ptr<TopologyNetwork>
makeTopology(TopologyKind kind, std::string name, EventQueue &eq,
             NocParams params)
{
    switch (kind) {
      case TopologyKind::Fixed:
        return std::make_unique<FixedNetwork>(std::move(name), eq,
                                              params);
      case TopologyKind::Ring:
        return std::make_unique<RingNetwork>(std::move(name), eq,
                                             params);
      case TopologyKind::Mesh:
        return std::make_unique<MeshNetwork>(std::move(name), eq,
                                             params);
    }
    fatal("unknown topology kind %d", static_cast<int>(kind));
}

} // namespace tss
