/**
 * @file
 * The pluggable NoC topology layer. A TopologyNetwork is a Network
 * whose stations (worker/master cores, frontend tiles, L2 banks,
 * memory controllers) occupy *stops* of a modeled fabric:
 *
 *  - cores sit on local processor rings of `coresPerRing` stops plus
 *    a hub (the paper's two-level interconnect, Table II); the local
 *    legs are shared by every topology;
 *  - the global fabric connecting hubs, frontend tiles, L2 banks and
 *    memory controllers is the pluggable part — a global ring
 *    (RingNetwork, noc/ring.hh), a 2D mesh with XY routing
 *    (MeshNetwork, noc/mesh.hh), or the fixed-latency degenerate
 *    case (FixedNetwork, below);
 *  - which station occupies which global stop is a PlacementPolicy
 *    decision (noc/placement.hh), so slice distance is a modeled
 *    quantity rather than a hard-coded adjacency.
 *
 * Every traversed link charges hop latency and reserves one of its
 * `lanesPerSegment` lanes (the link's credits) for the message's
 * serialization time; waiting for a lane is recorded as backpressure
 * so contention is observable (LinkStats).
 */

#ifndef TSS_NOC_TOPOLOGY_HH
#define TSS_NOC_TOPOLOGY_HH

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "noc/network.hh"
#include "noc/placement.hh"
#include "obs/metrics.hh"

namespace tss
{

/** Which global fabric connects the stations. */
enum class TopologyKind : std::uint8_t
{
    Fixed, ///< distance-free fixed latency (idealized interconnect)
    Ring,  ///< the paper's segmented global ring
    Mesh,  ///< 2D mesh, dimension-ordered (XY) routing
};

const char *toString(TopologyKind kind);

/** Parse "fixed" / "ring" / "mesh"; calls fatal() otherwise. */
TopologyKind topologyFromString(const std::string &name);

/** Station counts and link parameters shared by all topologies. */
struct NocParams
{
    unsigned numCores = 256;
    unsigned coresPerRing = 8;
    unsigned numL2Banks = 32;
    unsigned numMemCtrls = 4;
    unsigned numFrontendTiles = 16;

    /** Cycles to traverse one link. */
    Cycle hopLatency = 1;

    /** Link bandwidth in bytes per cycle. */
    double bytesPerCycle = 16.0;

    /**
     * Concurrent connections (lanes) per link, 1 to
     * TopologyNetwork::maxLanes.
     */
    unsigned lanesPerSegment = 4;

    /** End-to-end latency of the Fixed topology. */
    Cycle fixedLatency = 8;

    /** Station -> global stop assignment. */
    PlacementKind placement = PlacementKind::Adjacent;
    std::uint64_t placementSeed = 1;
};

/** Aggregated link contention counters (see TopologyNetwork). */
struct LinkStats
{
    std::uint64_t links = 0;        ///< links in the fabric
    std::uint64_t traversals = 0;   ///< lane reservations made
    Cycle busyLaneCycles = 0;       ///< lane-cycles of serialization
    Cycle laneWaitCycles = 0;       ///< backpressure: waits for a lane
    double maxUtilization = 0;      ///< busiest link's busy fraction
};

/**
 * Network over a placed topology. Subclasses model the global fabric
 * (routeGlobal); local processor-ring legs, station node-id mapping,
 * placement, lane accounting and the per-pair FIFO delivery clamp
 * (Network::deliverAt) are shared here, so no topology can reorder
 * same-pair messages or diverge in how contention is charged.
 */
class TopologyNetwork : public Network
{
  public:
    TopologyNetwork(std::string name, EventQueue &eq, NocParams params);

    /// @name Node id lookup for the different station types.
    /// @{
    NodeId coreNode(unsigned core) const;
    NodeId frontendNode(unsigned tile) const;
    NodeId l2Node(unsigned bank) const;
    NodeId memCtrlNode(unsigned mc) const;
    /// @}

    void sendAt(Cycle inject, MessagePtr msg) final;

    /**
     * Minimum inject-to-delivery delay between distinct stations:
     * injection serialization (>= 1 cycle) plus at least one link
     * traversal. The engine's window length.
     */
    Cycle minDeliveryDelay() const override;

    /** Hop count between two nodes (route enumeration, no state). */
    virtual unsigned hopCount(NodeId src, NodeId dst) const;

    const NocParams &params() const { return _params; }
    const PlacementMap &placement() const { return place; }

    /** Aggregate link contention over [0, @p now]. */
    LinkStats linkStats(Cycle now) const;

    /**
     * Per-link lane utilization (busy lane-cycles / (now * lanes))
     * over [0, @p now]: local processor-ring segments first (ring 0's
     * segments in stop order, then ring 1's, ...), then the global
     * fabric's links in the subclass's visitGlobalLinks order.
     */
    std::vector<double> linkUtilizations(Cycle now) const;

    /** Per-link traversal counts, in linkUtilizations() order. */
    std::vector<std::uint64_t> linkTraversals() const;

    /**
     * The per-link utilization histogram over [0, @p now]: ten
     * 10%-wide buckets with explicit lower bounds (percent:
     * 0, 10, ..., 90; the last bucket is closed at 100%). Every
     * bucket is reported, including empty ones, so consumers never
     * have to guess the binning, and the counts total one per link.
     */
    obs::HistogramSnapshot utilizationHistogram(Cycle now) const;

    /**
     * Lanes a link can hold: the paper's four concurrent connections
     * per segment (Table II). The constructor rejects a larger
     * NocParams::lanesPerSegment.
     */
    static constexpr unsigned maxLanes = 4;

  protected:
    /// One link: lane credits shared by both directions, plus
    /// contention counters, inline in one cache line.
    struct alignas(64) Link
    {
        /// Busy-until per lane; only the first lanesPerSegment are
        /// used.
        std::array<Cycle, maxLanes> lanes{};
        std::uint64_t traversals = 0;
        Cycle busyCycles = 0;     ///< serialization reserved
        Cycle waitCycles = 0;     ///< backpressure waiting for a lane
    };

    /// Location of a node: which processor ring it is on (or -1 for
    /// global stations) and its stop indices.
    struct Location
    {
        int localRing;    ///< -1 when the node sits on the global fabric
        unsigned stop;    ///< stop index within its ring / the fabric
        unsigned hubStop; ///< this ring's hub stop on the global fabric
    };

    Location locate(NodeId node) const;

    /**
     * Shortest distance and direction around a ring of @p n stops
     * (ties break clockwise). Shared by the local-ring legs and the
     * global-ring fabric so modeled distance (hopCount) and charged
     * latency (route) can never disagree on direction.
     */
    static unsigned ringDistance(unsigned from, unsigned to,
                                 unsigned n, bool &clockwise);

    /**
     * Walk a ring of @p segments (segment i joins stop i to stop
     * i + 1, modulo the ring) from stop @p from to stop @p to in the
     * ringDistance() direction, starting at @p start and reserving a
     * lane of every segment crossed; returns the arrival cycle. The
     * local processor rings and the global ring share it.
     */
    Cycle walkRing(std::vector<Link> &segments, unsigned from,
                   unsigned to, Cycle start, Cycle ser);

    /** Injection serialization of a @p bytes message (>= 1 cycle). */
    Cycle serializationCycles(Bytes bytes) const;

    /**
     * Reserve the earliest-free lane of @p link from @p t for
     * @p ser cycles; returns when the message starts crossing. The
     * pick is std::min_element's — the first lane with the smallest
     * busy-until, so only a strictly smaller lane replaces the best —
     * but selects with conditional moves: the lanes' order is
     * unpredictable, and a compare branch would mispredict. The loop
     * stops at lanesPerSegment: a constant maxLanes trip count
     * measured slower (GCC 12, 20–25 instead of 17–18 ns per
     * BM_NocRoute ring traversal). Defined here so every route walk
     * inlines it.
     */
    Cycle
    reserveLane(Link &link, Cycle t, Cycle ser)
    {
        Cycle *lane = link.lanes.data();
        std::size_t best = 0;
        Cycle free = lane[0];
        const std::size_t lanes = _params.lanesPerSegment;
        for (std::size_t i = 1; i < lanes; ++i) {
            const bool less = lane[i] < free;
            best = less ? i : best;
            free = less ? lane[i] : free;
        }
        const Cycle begin = std::max(t, free);
        lane[best] = begin + ser;
        ++link.traversals;
        link.busyCycles += ser;
        link.waitCycles += begin - t;
        if (begin > t) [[unlikely]]
            traceLaneWait(t, begin - t);
        return begin;
    }

    /** Emit the NocLaneWait record of a @p wait -cycle lane wait. */
    [[gnu::cold, gnu::noinline]] static void traceLaneWait(Cycle t,
                                                           Cycle wait);

    /**
     * Full route of a message injected at @p inject: local ring leg,
     * global fabric, local ring leg. Overridden only by the
     * distance-free Fixed topology.
     */
    virtual Cycle route(NodeId src, NodeId dst, Cycle inject,
                        Cycle ser);

    /**
     * Route between two *global* stops starting at @p start,
     * reserving lanes along the way; returns the arrival cycle.
     */
    virtual Cycle routeGlobal(unsigned from, unsigned to, Cycle start,
                              Cycle ser) = 0;

    /** Stateless hop count between two global stops. */
    virtual unsigned globalHops(unsigned from, unsigned to) const = 0;

    /** Enumerate the subclass's global-fabric links for LinkStats. */
    virtual void visitGlobalLinks(
        const std::function<void(const Link &)> &fn) const = 0;

    NocParams _params;
    unsigned numRings;
    PlacementMap place;

  private:
    /**
     * Visit every link in linkUtilizations() order: the local ring
     * segments, then the global fabric's links.
     */
    void visitLinks(const std::function<void(const Link &)> &fn) const;

    /** @p link's busy fraction of its lane capacity over [0, now]. */
    double utilization(const Link &link, Cycle now) const;

    /// Per processor ring: coresPerRing + 1 link segments.
    std::vector<std::vector<Link>> localSegments;
};

/**
 * The degenerate topology: every message arrives
 * `fixedLatency + ceil(bytes/bytesPerCycle)` cycles after injection
 * (serialization at least one cycle), independent of placement — the
 * idealized-interconnect bound of the topology sweeps. It maps no
 * station to a stop, so any node id routes: the protocol unit tests
 * drive their mock endpoints over it.
 */
class FixedNetwork : public TopologyNetwork
{
  public:
    FixedNetwork(std::string name, EventQueue &eq, NocParams params)
        : TopologyNetwork(std::move(name), eq, params)
    {}

    unsigned hopCount(NodeId, NodeId) const override { return 0; }

    /** Distance-free: the end-to-end latency plus serialization. */
    Cycle
    minDeliveryDelay() const override
    {
        return _params.fixedLatency + 1;
    }

  protected:
    Cycle
    route(NodeId, NodeId, Cycle inject, Cycle ser) override
    {
        return inject + _params.fixedLatency + ser;
    }

    Cycle
    routeGlobal(unsigned, unsigned, Cycle start, Cycle) override
    {
        return start;
    }

    unsigned globalHops(unsigned, unsigned) const override { return 0; }

    void visitGlobalLinks(
        const std::function<void(const Link &)> &) const override
    {}
};

/**
 * Build the topology selected by @p kind over @p params. The result
 * is attached to modules through the Network interface, so callers
 * other than SystemBuilder rarely need the concrete type.
 */
std::unique_ptr<TopologyNetwork> makeTopology(TopologyKind kind,
                                              std::string name,
                                              EventQueue &eq,
                                              NocParams params);

} // namespace tss

#endif // TSS_NOC_TOPOLOGY_HH
