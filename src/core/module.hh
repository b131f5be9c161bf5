/**
 * @file
 * Base class for frontend modules. Every module (gateway, TRS, ORT,
 * OVT, scheduler) is a single-server FIFO: packets queue at the
 * input, and servicing a packet occupies the module's controller for
 * `16 cycles x operands involved` plus any eDRAM accesses — the
 * occupancy model behind the decode-rate scaling of Figures 12/13.
 * The replies a service queues leave when it ends: one completion
 * event injects them, in send order, and then frees the server.
 */

#ifndef TSS_CORE_MODULE_HH
#define TSS_CORE_MODULE_HH

#include <deque>
#include <vector>

#include "core/protocol.hh"
#include "noc/network.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace tss
{

/** Single-server message-processing module attached to the NoC. */
class FrontendModule : public SimObject, public Endpoint
{
  public:
    FrontendModule(std::string name, EventQueue &eq, Network &network,
                   NodeId node)
        : SimObject(std::move(name), eq), net(network), _node(node)
    {
        net.attach(node, *this);
        setStation(node);
    }

    NodeId nodeId() const { return _node; }

    /** NoC delivery: enqueue and kick the server. */
    void
    receive(MessagePtr msg) override
    {
        auto *proto = static_cast<ProtoMsg *>(msg.release());
        if (isControl(proto->type))
            controlq.emplace_back(proto);
        else
            inq.emplace_back(proto);
        occupancy.update(curCycle(),
                         static_cast<double>(inq.size() +
                                             controlq.size()));
        startNext();
    }

    /// @name Statistics.
    /// @{
    std::uint64_t packetsProcessed() const { return processed.value(); }
    Cycle busyCycles() const { return totalBusy; }
    double avgQueueLength(Cycle now) const
    {
        return occupancy.average(now);
    }
    /// @}

  protected:
    /** Result of servicing one packet. */
    struct Service
    {
        Cycle cost;       ///< controller occupancy in cycles
        bool parked;      ///< true: leave the packet at the head and
                          ///< idle until unpark() (ORT stalls)
    };

    /**
     * Service a packet: mutate module state, queue outbound messages
     * with sendMsg(), and return the occupancy. May be re-invoked for
     * the same packet after a park/unpark cycle.
     */
    virtual Service process(ProtoMsg &msg) = 0;

    /**
     * True for message types that must bypass a parked head packet
     * (e.g. the version-death notifications that unblock a full ORT).
     */
    virtual bool isControl(MsgType /*type*/) const { return false; }

    /** Queue an outbound message; injected when servicing completes. */
    void
    sendMsg(NodeId dst, std::unique_ptr<ProtoMsg> msg)
    {
        msg->src = _node;
        msg->dst = dst;
        outbox.push_back(std::move(msg));
    }

    /** Resume the parked head packet (called from process()). */
    void
    unpark()
    {
        if (!headParked)
            return;
        headParked = false;
        // The server may be busy with a control packet right now;
        // startNext() is re-entered after it completes.
    }

    bool parked() const { return headParked; }

    /** The attached network (for direct sendAt, bypassing the outbox). */
    Network &network() { return net; }

    /**
     * Inject any queued outbound messages immediately. Needed when a
     * module generates messages outside packet servicing (e.g. from a
     * DMA completion callback); otherwise they would sit in the
     * outbox until the next packet arrives.
     */
    void
    flushOutboxNow()
    {
        if (outbox.empty())
            return;
        // Its own station-stamped event, so its deferred sends key on
        // this module, not on whichever object's event called here.
        scheduleAt(curCycle(), [this, batch = std::move(outbox)]() mutable {
            for (auto &m : batch)
                net.send(MessagePtr(m.release()));
        });
        outbox.clear();
    }

  private:
    void
    startNext()
    {
        if (busy)
            return;
        ProtoMsg *msg = nullptr;
        bool from_control = false;
        if (!controlq.empty()) {
            msg = controlq.front().get();
            from_control = true;
        } else if (!inq.empty() && !headParked) {
            msg = inq.front().get();
        } else {
            return;
        }

        busy = true;
        Service svc = process(*msg);
        TSS_ASSERT(svc.cost > 0, "zero-cost packet service");
        TSS_ASSERT(!(svc.parked && from_control),
                   "control packets must not park");

        if (svc.parked) {
            headParked = true;
        } else {
            if (from_control)
                controlq.pop_front();
            else
                inq.pop_front();
            occupancy.update(curCycle(),
                             static_cast<double>(inq.size() +
                                                 controlq.size()));
            ++processed;
        }
        // The server is idle between completions, so inflight is
        // empty here; swapping keeps both vectors' capacity.
        outbox.swap(inflight);
        scheduleIn(svc.cost, [this, cost = svc.cost] { complete(cost); });
    }

    /** End of a service: inject its replies, then free the server. */
    void
    complete(Cycle cost)
    {
        for (auto &m : inflight)
            net.send(MessagePtr(m.release()));
        inflight.clear();
        busy = false;
        totalBusy += cost;
        startNext();
    }

    Network &net;
    NodeId _node;

    std::deque<std::unique_ptr<ProtoMsg>> inq;
    std::deque<std::unique_ptr<ProtoMsg>> controlq;
    std::vector<std::unique_ptr<ProtoMsg>> outbox;
    /// The replies of the service in progress, sent by complete().
    std::vector<std::unique_ptr<ProtoMsg>> inflight;

    bool busy = false;
    bool headParked = false;
    Cycle totalBusy = 0;

    Counter processed;
    TimeWeighted occupancy;
};

} // namespace tss

#endif // TSS_CORE_MODULE_HH
