/**
 * @file
 * How a unit test drives modules: on a one-domain SimEngine, the
 * execution mode of every System, so each cross-tile operation (a
 * send, a DMA reservation, a registry retirement) defers to the
 * window barrier exactly as in a full run. The test injects packets
 * from outside an event with Network::sendAt, runs the engine, and
 * reads what mock endpoints (ProtoProbe) received.
 */

#ifndef TSS_TESTS_MODULE_HARNESS_HH
#define TSS_TESTS_MODULE_HARNESS_HH

#include <memory>
#include <vector>

#include "core/protocol.hh"
#include "noc/topology.hh"
#include "sim/sim_engine.hh"

namespace tss
{

/** The fixed-latency fabric: latency + ceil(bytes / bandwidth). */
inline NocParams
fixedFabric(Cycle latency, double bytes_per_cycle)
{
    NocParams p;
    p.fixedLatency = latency;
    p.bytesPerCycle = bytes_per_cycle;
    return p;
}

/**
 * One engine domain and a FixedNetwork on its shard, with the window
 * set to the fabric's minimum delivery delay.
 */
struct OneDomain
{
    OneDomain(Cycle latency, double bytes_per_cycle)
        : net("net", eq, fixedFabric(latency, bytes_per_cycle))
    {
        engine.setLookahead(net.minDeliveryDelay());
    }

    SimEngine engine{1};
    EventQueue &eq = engine.shard(0);
    FixedNetwork net;
};

/** Mock endpoint recording every protocol message delivered to it. */
class ProtoProbe : public Endpoint
{
  public:
    void
    receive(MessagePtr msg) override
    {
        msgs.emplace_back(static_cast<ProtoMsg *>(msg.release()));
    }

    /** Messages of a given type, in arrival order. */
    template <typename T>
    std::vector<const T *>
    of(MsgType type) const
    {
        std::vector<const T *> out;
        for (const auto &m : msgs)
            if (m->type == type)
                out.push_back(static_cast<const T *>(m.get()));
        return out;
    }

    std::size_t
    count(MsgType type) const
    {
        std::size_t n = 0;
        for (const auto &m : msgs)
            n += m->type == type ? 1 : 0;
        return n;
    }

    std::vector<std::unique_ptr<ProtoMsg>> msgs;
};

} // namespace tss

#endif // TSS_TESTS_MODULE_HARNESS_HH
