#include "ring.hh"

namespace tss
{

RingNetwork::RingNetwork(std::string name, EventQueue &eq,
                         NocParams params)
    : TopologyNetwork(std::move(name), eq, params)
{
    globalSegments.resize(place.globalStops);
}

Cycle
RingNetwork::routeGlobal(unsigned from, unsigned to, Cycle start,
                         Cycle ser)
{
    return walkRing(globalSegments, from, to, start, ser);
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
