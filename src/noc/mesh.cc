#include "mesh.hh"

#include <cmath>

namespace tss
{

MeshNetwork::MeshNetwork(std::string name, EventQueue &eq,
                         NocParams params)
    : TopologyNetwork(std::move(name), eq, params)
{
    unsigned stops = std::max(1u, place.globalStops);
    width = static_cast<unsigned>(
        std::ceil(std::sqrt(static_cast<double>(stops))));
    height = (stops + width - 1) / width;

    if (width > 1)
        horizontal.resize(std::size_t(width - 1) * height);
    if (height > 1)
        vertical.resize(std::size_t(width) * (height - 1));
}

TopologyNetwork::Link &
MeshNetwork::horizontalLink(unsigned x, unsigned y)
{
    return horizontal[std::size_t(y) * (width - 1) + x];
}

TopologyNetwork::Link &
MeshNetwork::verticalLink(unsigned x, unsigned y)
{
    return vertical[std::size_t(y) * width + x];
}

Cycle
MeshNetwork::routeGlobal(unsigned from, unsigned to, Cycle start,
                         Cycle ser)
{
    unsigned x = stopX(from), y = stopY(from);
    unsigned tx = stopX(to), ty = stopY(to);

    Cycle t = start;
    // Dimension-ordered: walk X to the target column, then Y.
    while (x != tx) {
        unsigned edge = x < tx ? x : x - 1;
        t = reserveLane(horizontalLink(edge, y), t, ser) +
            _params.hopLatency;
        x = x < tx ? x + 1 : x - 1;
    }
    while (y != ty) {
        unsigned edge_y = y < ty ? y : y - 1;
        t = reserveLane(verticalLink(x, edge_y), t, ser) +
            _params.hopLatency;
        y = y < ty ? y + 1 : y - 1;
    }
    return t;
}

unsigned
MeshNetwork::globalHops(unsigned from, unsigned to) const
{
    unsigned dx = stopX(from) > stopX(to) ? stopX(from) - stopX(to)
                                          : stopX(to) - stopX(from);
    unsigned dy = stopY(from) > stopY(to) ? stopY(from) - stopY(to)
                                          : stopY(to) - stopY(from);
    return dx + dy;
}

void
MeshNetwork::visitGlobalLinks(
    const std::function<void(const Link &)> &fn) const
{
    for (const auto &link : horizontal)
        fn(link);
    for (const auto &link : vertical)
        fn(link);
}

} // namespace tss
