#include "ring.hh"

namespace tss
{

RingNetwork::RingNetwork(std::string name, EventQueue &eq,
                         NocParams params)
    : TopologyNetwork(std::move(name), eq, params)
{
    globalSegments.assign(place.globalStops, makeLink());
}

Cycle
RingNetwork::routeGlobal(unsigned from, unsigned to, Cycle start,
                         Cycle ser)
{
    auto stops = static_cast<unsigned>(globalSegments.size());
    bool clockwise = true;
    unsigned dist = ringDistance(from, to, stops, clockwise);

    Cycle t = start;
    unsigned stop = from;
    for (unsigned i = 0; i < dist; ++i) {
        unsigned seg = clockwise ? stop : (stop + stops - 1) % stops;
        t = reserveLane(globalSegments[seg], t, ser) +
            _params.hopLatency;
        stop = clockwise ? (stop + 1) % stops
                         : (stop + stops - 1) % stops;
    }
    return t;
}

unsigned
RingNetwork::globalHops(unsigned from, unsigned to) const
{
    bool cw = true;
    return ringDistance(from, to,
                        static_cast<unsigned>(globalSegments.size()),
                        cw);
}

void
RingNetwork::visitGlobalLinks(
    const std::function<void(const Link &)> &fn) const
{
    for (const auto &link : globalSegments)
        fn(link);
}

} // namespace tss
