#include "topology.hh"

#include <algorithm>

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
    unsigned fwd = (to + n - from) % n;
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
    numRings = (_params.numCores + _params.coresPerRing - 1) /
        _params.coresPerRing;

    place = makePlacement(_params.placement, numRings,
                          _params.numFrontendTiles, _params.numL2Banks,
                          _params.numMemCtrls, _params.placementSeed);

    localSegments.resize(numRings);
    for (auto &segments : localSegments)
        segments.assign(_params.coresPerRing + 1, makeLink());
}

TopologyNetwork::Link
TopologyNetwork::makeLink() const
{
    Link link;
    link.lanes.assign(_params.lanesPerSegment, 0);
    return link;
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

Cycle
TopologyNetwork::reserveLane(Link &link, Cycle t, Cycle ser)
{
    auto best = std::min_element(link.lanes.begin(), link.lanes.end());
    Cycle begin = std::max(t, *best);
    *best = begin + ser;
    ++link.traversals;
    link.busyCycles += ser;
    link.waitCycles += begin - t;
    if (begin > t)
        obs::trace(obs::TraceEvent::NocLaneWait, t, 0, begin - t);
    return begin;
}

Cycle
TopologyNetwork::traverseLocalRing(unsigned ring, unsigned from,
                                   unsigned to, Cycle start, Cycle ser)
{
    auto &segments = localSegments[ring];
    auto stops = static_cast<unsigned>(segments.size());
    bool clockwise = true;
    unsigned dist = ringDistance(from, to, stops, clockwise);

    Cycle t = start;
    unsigned stop = from;
    for (unsigned i = 0; i < dist; ++i) {
        unsigned seg = clockwise ? stop : (stop + stops - 1) % stops;
        t = reserveLane(segments[seg], t, ser) + _params.hopLatency;
        stop = clockwise ? (stop + 1) % stops
                         : (stop + stops - 1) % stops;
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
        return traverseLocalRing(static_cast<unsigned>(src.localRing),
                                 src.stop, dst.stop, t, ser);
    }

    unsigned hub_pos = _params.coresPerRing; // hub stop index
    if (src.localRing >= 0) {
        t = traverseLocalRing(static_cast<unsigned>(src.localRing),
                              src.stop, hub_pos, t, ser);
    }
    unsigned gfrom = src.localRing >= 0 ? src.hubStop : src.stop;
    unsigned gto = dst.localRing >= 0 ? dst.hubStop : dst.stop;
    t = routeGlobal(gfrom, gto, t, ser);
    if (dst.localRing >= 0) {
        t = traverseLocalRing(static_cast<unsigned>(dst.localRing),
                              hub_pos, dst.stop, t, ser);
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

Cycle
TopologyNetwork::pairDelay(NodeId src, NodeId dst) const
{
    if (src == dst)
        return selfDelay(0);
    // Minimum delivery: one cycle of injection serialization plus an
    // uncontended traversal of every link on the route. Clamped at
    // the machine-wide minimum so a degenerate placement (two
    // stations sharing a stop) can never shrink a window below the
    // global-lookahead bound.
    return std::max(minDeliveryDelay(),
                    Cycle(1) +
                        _params.hopLatency * hopCount(src, dst));
}

Cycle
TopologyNetwork::selfDelay(Bytes bytes) const
{
    return serializationCycles(bytes);
}

std::vector<Cycle>
TopologyNetwork::domainLookahead(
    const std::vector<std::pair<NodeId, NodeId>> &edges,
    const std::vector<int> &domain_of, unsigned num_domains,
    const std::vector<NodeId> &self_senders) const
{
    std::vector<Cycle> la(num_domains, invalidCycle);
    const auto n = domain_of.size();
    for (const auto &[u, v] : edges) {
        if (u == v)
            continue; // self-deliveries are floored, not bounded
        auto dst = static_cast<std::size_t>(v);
        TSS_ASSERT(static_cast<std::size_t>(u) < n && dst < n,
                   "edge %d -> %d names an unmapped station", u, v);
        int d = domain_of[dst];
        if (d < 0 || domain_of[static_cast<std::size_t>(u)] < 0)
            continue;
        TSS_ASSERT(static_cast<unsigned>(d) < num_domains,
                   "domain %d out of range", d);
        la[d] = std::min(la[d], pairDelay(u, v));
    }
    // Self-sending domains never run ahead of the grid: their own
    // floored self-deliveries could land behind a run-ahead frontier
    // (see the header comment).
    for (NodeId v : self_senders) {
        auto index = static_cast<std::size_t>(v);
        TSS_ASSERT(index < n, "self-sender %d unbound", v);
        int d = domain_of[index];
        if (d >= 0)
            la[static_cast<unsigned>(d)] = minDeliveryDelay();
    }
    for (Cycle &l : la) {
        if (l == invalidCycle)
            l = minDeliveryDelay();
    }
    return la;
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

LinkStats
TopologyNetwork::linkStats(Cycle now) const
{
    LinkStats stats;
    auto visit = [&](const Link &link) {
        ++stats.links;
        stats.traversals += link.traversals;
        stats.busyLaneCycles += link.busyCycles;
        stats.laneWaitCycles += link.waitCycles;
        if (now > 0 && !link.lanes.empty()) {
            double util = static_cast<double>(link.busyCycles) /
                (static_cast<double>(now) *
                 static_cast<double>(link.lanes.size()));
            stats.maxUtilization = std::max(stats.maxUtilization, util);
        }
    };
    for (const auto &segments : localSegments)
        for (const auto &link : segments)
            visit(link);
    visitGlobalLinks(visit);
    return stats;
}

std::vector<double>
TopologyNetwork::linkUtilizations(Cycle now) const
{
    std::vector<double> utils;
    auto visit = [&](const Link &link) {
        double capacity = static_cast<double>(now) *
            static_cast<double>(link.lanes.size());
        utils.push_back(capacity > 0
                            ? static_cast<double>(link.busyCycles) /
                                  capacity
                            : 0.0);
    };
    for (const auto &segments : localSegments)
        for (const auto &link : segments)
            visit(link);
    visitGlobalLinks(visit);
    return utils;
}

std::vector<std::uint64_t>
TopologyNetwork::linkTraversals() const
{
    std::vector<std::uint64_t> counts;
    auto visit = [&](const Link &link) {
        counts.push_back(link.traversals);
    };
    for (const auto &segments : localSegments)
        for (const auto &link : segments)
            visit(link);
    visitGlobalLinks(visit);
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

void
TopologyNetwork::writeStatsJson(std::ostream &os, Cycle now,
                                int indent) const
{
    std::string pad(static_cast<std::size_t>(indent), ' ');
    LinkStats agg = linkStats(now);
    obs::HistogramSnapshot hist = utilizationHistogram(now);
    os << pad << "{\n";
    os << pad << "  \"links\": " << agg.links << ",\n";
    os << pad << "  \"traversals\": " << agg.traversals << ",\n";
    os << pad << "  \"busy_lane_cycles\": " << agg.busyLaneCycles
       << ",\n";
    os << pad << "  \"lane_wait_cycles\": " << agg.laneWaitCycles
       << ",\n";
    os << pad << "  \"max_utilization\": "
       << obs::formatMetricValue(agg.maxUtilization) << ",\n";
    os << pad << "  \"utilization_histogram\": {\"lower_bounds_pct\": [";
    for (std::size_t i = 0; i < hist.lowerBounds.size(); ++i)
        os << (i ? ", " : "") << hist.lowerBounds[i];
    os << "], \"counts\": [";
    for (std::size_t i = 0; i < hist.counts.size(); ++i)
        os << (i ? ", " : "") << hist.counts[i];
    os << "]}\n";
    os << pad << "}";
}

void
TopologyNetwork::dumpStats(std::ostream &os, Cycle now) const
{
    LinkStats agg = linkStats(now);
    os << name() << " links: " << agg.links
       << "  traversals: " << agg.traversals
       << "  lane-wait cycles: " << agg.laneWaitCycles
       << "  peak utilization: " << agg.maxUtilization << "\n";

    // Text is a formatter over the same snapshot the registry
    // exports; the bucket bounds come from the snapshot itself.
    obs::HistogramSnapshot hist = utilizationHistogram(now);
    os << name() << " link utilization histogram:\n";
    for (std::size_t b = 0; b < hist.counts.size(); ++b) {
        if (hist.counts[b] == 0)
            continue;
        bool last = b + 1 == hist.counts.size();
        os << "  [" << hist.lowerBounds[b] << "%, "
           << (last ? 100 : hist.lowerBounds[b + 1])
           << (last ? "%]: " : "%): ") << hist.counts[b]
           << " links\n";
    }
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
