/**
 * @file
 * The abstract network interface: endpoints, per-node delivery
 * queues, and the deferred send every module uses. The fabrics that
 * route messages are TopologyNetworks (noc/topology.hh).
 */

#ifndef TSS_NOC_NETWORK_HH
#define TSS_NOC_NETWORK_HH

#include <vector>

#include "noc/message.hh"
#include "obs/trace.hh"
#include "sim/exec_context.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace tss
{

/**
 * A network delivers messages between attached endpoints after some
 * modeled delay, preserving per source->destination FIFO order.
 *
 * The network is shared global state: routing mutates lane
 * reservations and the FIFO clamp. send() therefore defers — it
 * records the injection into the calling engine event's DeferSink
 * (deferToBarrier, sim/exec_context.hh), and the actual routing
 * (sendAt) runs at the window barrier, single-threaded, in
 * deterministic key order. send() outside an engine event panics.
 */
class Network : public SimObject
{
  public:
    using SimObject::SimObject;

    /** Attach @p ep as the receiver for node @p node. */
    void
    attach(NodeId node, Endpoint &ep)
    {
        station(node).endpoint = &ep;
    }

    /**
     * Route deliveries for @p node through @p eq — the event-queue
     * shard of the node's NoC domain. Unbound nodes deliver on the
     * network's own queue (the single-queue configuration).
     */
    void
    bindQueue(NodeId node, EventQueue &eq)
    {
        station(node).queue = &eq;
    }

    /**
     * Inject @p msg from the executing engine event; ownership passes
     * to the network. The routing is deferred to the window barrier.
     */
    void
    send(MessagePtr msg)
    {
        deferToBarrier("Network::send",
                       [this, inject = execCtx.when,
                        m = std::move(msg)]() mutable {
                           sendAt(inject, std::move(m));
                       });
    }

    /**
     * Route @p msg as if injected at cycle @p inject. Only the window
     * barrier (deferred ops) and code outside any event, such as a
     * test injecting a packet before the engine runs, may invoke this
     * directly: it touches shared routing state.
     */
    virtual void sendAt(Cycle inject, MessagePtr msg) = 0;

    /**
     * Lower bound on inject-to-delivery delay between two *distinct*
     * stations; the engine's conservative lookahead window length.
     */
    virtual Cycle minDeliveryDelay() const = 0;

    std::uint64_t messagesSent() const { return numMessages.value(); }
    const Distribution &latencyStat() const { return latencies; }

  protected:
    /**
     * Deliver @p msg at absolute @p when, clamped so that messages
     * between the same pair of nodes never reorder, and floored at
     * the destination shard's window end (EventQueue::windowFloor;
     * only same-station self-messages can compute below it — see
     * sim/sim_engine.hh). The delivery event is scheduled on the
     * destination's bound queue, stamped with the destination
     * station.
     */
    void
    deliverAt(Cycle when, MessagePtr msg)
    {
        auto d = static_cast<std::uint32_t>(msg->dst);
        TSS_ASSERT(d < stations.size() && stations[d].endpoint,
                   "message to unattached node %d", msg->dst);
        TSS_ASSERT(msg->src >= 0, "message from invalid node %d",
                   msg->src);
        Station &st = stations[d];
        EventQueue &q = st.queue ? *st.queue : eventQueue();
        if (when < q.windowFloor())
            when = q.windowFloor();

        auto s = static_cast<std::size_t>(msg->src);
        if (s >= st.lastFrom.size())
            st.lastFrom.resize(s + 1, 0);
        Cycle &last = st.lastFrom[s];
        if (when < last)
            when = last;
        last = when;

        ++numMessages;
        latencies.sample(static_cast<double>(when - msg->sentAt));
        obs::trace(obs::TraceEvent::NocDeliver, when,
                   (static_cast<std::uint32_t>(
                        static_cast<std::uint16_t>(msg->src))
                    << 16) |
                       static_cast<std::uint16_t>(msg->dst),
                   when - msg->sentAt);

        Endpoint *ep = st.endpoint;
        NodeId dst = msg->dst;
        q.scheduleStation(when, dst, [ep, m = std::move(msg)]() mutable {
            ep->receive(std::move(m));
        });
    }

  private:
    /**
     * Per-node delivery state, indexed by NodeId (topology ids are
     * dense from 0).
     */
    struct Station
    {
        Endpoint *endpoint = nullptr;
        EventQueue *queue = nullptr; ///< nullptr: the network's queue
        /// Last delivery cycle from each source node (the per-pair
        /// FIFO clamp), indexed by source NodeId, grown on demand.
        std::vector<Cycle> lastFrom;
    };

    /** @p node's entry, growing the table to hold it. */
    Station &
    station(NodeId node)
    {
        TSS_ASSERT(node >= 0, "invalid node id %d", node);
        auto i = static_cast<std::size_t>(node);
        if (i >= stations.size())
            stations.resize(i + 1);
        return stations[i];
    }

    std::vector<Station> stations;
    Counter numMessages;
    Distribution latencies;
};

} // namespace tss

#endif // TSS_NOC_NETWORK_HH
