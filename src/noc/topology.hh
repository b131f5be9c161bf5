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

    /** Concurrent connections (lanes) per link. */
    unsigned lanesPerSegment = 4;

    /** End-to-end latency of the Fixed topology. */
    Cycle fixedLatency = 8;

    /** Station -> global stop assignment. */
    PlacementKind placement = PlacementKind::Adjacent;
    std::uint64_t placementSeed = 1;
};

/** Historical name: the params struct predates the topology layer. */
using RingParams = NocParams;

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
     * traversal. The parallel engine's lookahead.
     */
    Cycle minDeliveryDelay() const override;

    /**
     * Per-pair lower bound behind the delay-matrix lookahead:
     * injection serialization (>= 1 cycle) plus hop latency over the
     * modeled route of @p src -> @p dst, never below the machine-wide
     * minimum. A pure function of placement — no lane state.
     */
    Cycle pairDelay(NodeId src, NodeId dst) const override;

    /**
     * Self-messages never cross a link on the placed topologies:
     * pure serialization. The Fixed override adds its end-to-end
     * latency.
     */
    Cycle selfDelay(Bytes bytes) const override;

    /**
     * Build the per-domain lookahead vector of the delay-matrix
     * engine mode: domain d's drain limit is the minimum
     * pairDelay(u, v) over every *communication* edge u -> v with v
     * in d — the shortest incoming edge of the domain, intra-domain
     * edges included. @p edges is the directed sender/receiver
     * relation SystemBuilder wires (who can ever send to whom) — NOT
     * all station pairs: co-located stations that never exchange a
     * message must not clamp a domain's run-ahead.
     *
     * Domains holding a station of @p self_senders (stations that
     * inject messages to themselves) are held at exactly
     * minDeliveryDelay() — one grid window, no run-ahead. A station's
     * message to itself can compute below the grid window floor (the
     * engine clamps it there; see sim/sim_engine.hh), so a
     * self-sending domain that ran ahead could execute past a
     * delivery it is yet to receive — only self-send-free domains may
     * outrun the grid. @p domain_of maps node ids to domains
     * (-1 = unbound station); domains with no incoming edge fall
     * back to minDeliveryDelay().
     */
    std::vector<Cycle> domainLookahead(
        const std::vector<std::pair<NodeId, NodeId>> &edges,
        const std::vector<int> &domain_of, unsigned num_domains,
        const std::vector<NodeId> &self_senders) const;

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
     * have to guess the binning.
     */
    obs::HistogramSnapshot utilizationHistogram(Cycle now) const;

    /**
     * Structured form of dumpStats(): link aggregates plus the
     * bounded utilization histogram as a JSON object, indented by
     * @p indent spaces per line for nesting in larger reports.
     */
    void writeStatsJson(std::ostream &os, Cycle now,
                        int indent = 0) const;

    /**
     * Write the per-link utilization histogram (plus traversal and
     * backpressure aggregates) for the run ending at @p now. A pure
     * text formatter over linkStats() + utilizationHistogram().
     */
    void dumpStats(std::ostream &os, Cycle now) const;

  protected:
    /// One link: lane credits shared by both directions, plus
    /// contention counters.
    struct Link
    {
        std::vector<Cycle> lanes; ///< busy-until per lane
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

    Link makeLink() const;

    /**
     * Shortest distance and direction around a ring of @p n stops
     * (ties break clockwise). Shared by the local-ring legs and the
     * global-ring fabric so modeled distance (hopCount) and charged
     * latency (route) can never disagree on direction.
     */
    static unsigned ringDistance(unsigned from, unsigned to,
                                 unsigned n, bool &clockwise);

    /** Injection serialization of a @p bytes message (>= 1 cycle). */
    Cycle serializationCycles(Bytes bytes) const;

    /**
     * Reserve the earliest-free lane of @p link from @p t for
     * @p ser cycles; returns when the message starts crossing.
     */
    Cycle reserveLane(Link &link, Cycle t, Cycle ser);

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

    /** Traverse a local processor ring (shortest direction). */
    Cycle traverseLocalRing(unsigned ring, unsigned from, unsigned to,
                            Cycle start, Cycle ser);

    NocParams _params;
    unsigned numRings;
    PlacementMap place;

  private:
    /// Per processor ring: coresPerRing + 1 link segments.
    std::vector<std::vector<Link>> localSegments;
};

/**
 * The degenerate topology: every message arrives
 * `fixedLatency + ceil(bytes/bytesPerCycle)` cycles after injection,
 * independent of placement — the idealized-interconnect bound of the
 * topology sweeps. (SimpleNetwork in noc/network.hh is the same model
 * without station mapping, kept for protocol unit tests.)
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

    /** Self-messages pay the end-to-end latency too (route below). */
    Cycle
    selfDelay(Bytes bytes) const override
    {
        return _params.fixedLatency + serializationCycles(bytes);
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
