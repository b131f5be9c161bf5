/**
 * @file
 * The external DMA engine that copies renamed operand buffers back to
 * their original object addresses when a final renamed version dies
 * (paper section IV, OVT description). Its one channel is shared by
 * every OVT, so a transfer is a cross-tile operation: requested from
 * an engine event, reserved at the window barrier.
 */

#ifndef TSS_MEM_DMA_ENGINE_HH
#define TSS_MEM_DMA_ENGINE_HH

#include <deque>
#include <functional>

#include "sim/exec_context.hh"
#include "sim/sim_object.hh"
#include "sim/stats.hh"

namespace tss
{

/**
 * A single-channel DMA engine: transfers are serviced in order at a
 * fixed bandwidth with a fixed startup latency. Completion callbacks
 * fire in simulated time.
 */
class DmaEngine : public SimObject
{
  public:
    using Callback = std::function<void()>;

    /**
     * @param bytes_per_cycle Sustained copy bandwidth.
     * @param startup Latency added to every transfer.
     */
    DmaEngine(std::string name, EventQueue &eq,
              double bytes_per_cycle = 16.0, Cycle startup = 200)
        : SimObject(std::move(name), eq),
          bandwidth(bytes_per_cycle), startupLatency(startup)
    {}

    /**
     * Enqueue a copy of @p bytes from the executing engine event;
     * @p done fires at completion. The channel is shared global
     * state, so the reservation is deferred to the window barrier
     * (like Network::send), and the completion callback is scheduled
     * back onto the requesting station's own queue shard. Outside an
     * engine event this panics.
     */
    void
    transfer(Bytes bytes, Callback done = nullptr)
    {
        deferToBarrier("DmaEngine::transfer",
                       [this, bytes, req = execCtx.when,
                        q = execCtx.queue, station = execCtx.station,
                        cb = std::move(done)]() mutable {
                           applyTransfer(bytes, std::move(cb), req, *q,
                                         station);
                       });
    }

    std::uint64_t numTransfers() const { return transfers.value(); }
    std::uint64_t totalBytes() const { return bytesCopied.value(); }

  private:
    void
    applyTransfer(Bytes bytes, Callback done, Cycle req,
                  EventQueue &q, std::int32_t station)
    {
        Cycle duration = startupLatency +
            static_cast<Cycle>(static_cast<double>(bytes) / bandwidth);
        Cycle start = std::max(req, channelFreeAt);
        channelFreeAt = start + duration;
        ++transfers;
        bytesCopied += bytes;
        if (done) {
            Cycle at = std::max(channelFreeAt, q.windowFloor());
            q.scheduleStation(at, station,
                              [cb = std::move(done)] { cb(); });
        }
    }

    double bandwidth;
    Cycle startupLatency;
    Cycle channelFreeAt = 0;
    Counter transfers;
    Counter bytesCopied;
};

} // namespace tss

#endif // TSS_MEM_DMA_ENGINE_HH
