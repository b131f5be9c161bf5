#include "ovt.hh"

#include "obs/trace.hh"

namespace tss
{

Ovt::Ovt(std::string name, EventQueue &eq, Network &network, NodeId node,
         unsigned ovt_index, const PipelineConfig &config,
         FrontendStats &frontend_stats, DmaEngine &dma_engine)
    : FrontendModule(std::move(name), eq, network, node),
      ovtIndex(ovt_index), cfg(config), stats(frontend_stats),
      edram(config.ovtTotalBytes / config.totalOrt(),
            config.edramLatency),
      buffers(0x4000'0000ULL + (std::uint64_t(ovt_index) << 36),
              bufferRegionBytes),
      dma(dma_engine)
{
    versions.assign(cfg.slotsPerOvt(), Version{});
}

std::size_t
Ovt::liveVersions() const
{
    std::size_t n = 0;
    for (const auto &v : versions)
        n += v.valid ? 1 : 0;
    return n;
}

Ovt::Service
Ovt::process(ProtoMsg &msg)
{
    switch (msg.type) {
      case MsgType::CreateVersion:
        return handleCreate(static_cast<CreateVersionMsg &>(msg));
      case MsgType::AddReader:
        return handleAddReader(static_cast<AddReaderMsg &>(msg));
      case MsgType::ReleaseUse:
        return handleRelease(static_cast<ReleaseUseMsg &>(msg));
      case MsgType::ProducerDone:
        return handleProducerDone(static_cast<ProducerDoneMsg &>(msg));
      case MsgType::RegisterConsumer:
        return handleRegisterConsumer(
            static_cast<RegisterConsumerMsg &>(msg));
      case MsgType::RetireVersion:
        return handleRetire(static_cast<RetireVersionMsg &>(msg));
      default:
        panic("OVT %u: unexpected message type %d", ovtIndex,
              static_cast<int>(msg.type));
    }
}

void
Ovt::sendDataReady(const OperandId &op, ReadySide side,
                   std::uint64_t buffer)
{
    sendMsg(trsNodes[op.task.trs],
            std::make_unique<DataReadyMsg>(op, side, buffer));
}

Ovt::Service
Ovt::handleCreate(CreateVersionMsg &msg)
{
    Version &v = versions[msg.slot];
    TSS_ASSERT(!v.valid, "OVT %u: version slot %u reused while live",
               ovtIndex, msg.slot);
    v = Version{};
    v.valid = true;
    v.addr = msg.addr;
    v.bytes = msg.objectBytes;
    v.producer = msg.producer;
    v.renamed = msg.renamed;
    v.epoch = msg.epoch;
    v.ortEntry = msg.ortEntry;
    ++stats.versionsCreated;
    obs::trace(obs::TraceEvent::VersionCreate, curCycle(), ovtIndex,
               msg.slot);

    Cycle cost = cfg.packetLatency + edram.write();

    if (!msg.producer.valid()) {
        // Memory version (v0): the data already rests at the object's
        // address; there is no producer to wait for.
        v.producerDone = true;
        v.buffer = msg.addr;
        v.bufferAssigned = true;
        return {cost, false};
    }

    if (msg.renamed) {
        // Allocate a fresh rename buffer: the output operand is ready
        // immediately (Figure 7), breaking WaR/WaW hazards.
        auto alloc = buffers.allocate(msg.objectBytes);
        TSS_ASSERT(alloc.has_value(),
                   "OVT %u rename region exhausted", ovtIndex);
        v.buffer = alloc->address;
        v.bucketBytes = alloc->bucketSize;
        v.bufferAssigned = true;
        cost += alloc->cost;
        ++stats.versionsRenamed;
        sendDataReady(msg.producer, ReadySide::Output, v.buffer);
    } else if (!msg.hasPrev) {
        // First version written in place: the object's own storage is
        // exclusively available.
        v.buffer = msg.addr;
        v.bufferAssigned = true;
        sendDataReady(msg.producer, ReadySide::Output, v.buffer);
    }
    // else: in-place writer chained behind a live version; its
    // output-ready is sent when the previous version releases.

    if (msg.hasPrev) {
        Version &prev = versions[msg.prevSlot];
        TSS_ASSERT(prev.valid, "chained after a dead version");
        TSS_ASSERT(!prev.superseded, "version superseded twice");
        prev.superseded = true;
        prev.hasNext = true;
        prev.nextSlot = msg.slot;
        prev.nextInPlace = !msg.renamed;
        tryRelease(msg.prevSlot);
    }
    return {cost, false};
}

Ovt::Service
Ovt::handleAddReader(AddReaderMsg &msg)
{
    Version &v = versions[msg.slot];
    TSS_ASSERT(v.valid, "reader added to dead version");
    TSS_ASSERT(!v.retireAuthorized, "reader added to retiring version");
    ++v.usage;
    ++v.readersSeen;
    // A reader was in flight when the quiescent hint went out; the
    // ORT will deny it, so a fresh hint is needed on the next drain.
    v.hintPending = false;
    return {cfg.packetLatency + edram.write(), false};
}

Ovt::Service
Ovt::handleRelease(ReleaseUseMsg &msg)
{
    Version &v = versions[msg.slot];
    TSS_ASSERT(v.valid && v.usage > 0, "release of unused version");
    --v.usage;
    tryRelease(msg.slot);
    return {cfg.packetLatency + edram.write(), false};
}

Ovt::Service
Ovt::handleProducerDone(ProducerDoneMsg &msg)
{
    Version &v = versions[msg.slot];
    TSS_ASSERT(v.valid, "producer-done for dead version");
    TSS_ASSERT(!v.producerDone, "duplicate producer-done");
    v.producerDone = true;

    // No-chaining ablation: fan the data-ready out to every waiter.
    Cycle cost = cfg.packetLatency + edram.write();
    if (!v.waiters.empty()) {
        cost += cfg.packetLatency *
            static_cast<Cycle>(v.waiters.size());
        for (const OperandId &w : v.waiters)
            sendDataReady(w, ReadySide::Input, v.buffer);
        v.waiters.clear();
    }

    tryRelease(msg.slot);
    return {cost, false};
}

Ovt::Service
Ovt::handleRegisterConsumer(RegisterConsumerMsg &msg)
{
    // Only reachable in the no-chaining ablation: a reader waits at
    // the version itself rather than on the previous user's chain.
    Version &v = versions[msg.slot];
    TSS_ASSERT(v.valid, "consumer registered on dead version");
    Cycle cost = cfg.packetLatency + edram.write();
    if (v.producerDone) {
        sendDataReady(msg.consumer, ReadySide::Input, v.buffer);
    } else {
        v.waiters.push_back(msg.consumer);
    }
    return {cost, false};
}

Ovt::Service
Ovt::handleRetire(RetireVersionMsg &msg)
{
    Version &v = versions[msg.slot];
    if (!v.valid || v.epoch != msg.epoch) {
        // Stale grant: the version died through the superseded path
        // while the hint/grant round trip was in flight.
        return {cfg.packetLatency, false};
    }
    TSS_ASSERT(v.producerDone && v.usage == 0,
               "retire granted for a non-quiescent version");
    TSS_ASSERT(!v.superseded, "retire granted for superseded version");
    v.retireAuthorized = true;
    tryRelease(msg.slot);
    return {cfg.packetLatency + edram.write(), false};
}

void
Ovt::tryRelease(std::uint32_t slot)
{
    Version &v = versions[slot];
    if (!v.valid || v.dmaInFlight || !v.producerDone || v.usage > 0)
        return;

    if (v.superseded) {
        if (v.nextInPlace) {
            // Hand the buffer to the chained in-place writer and
            // unblock it (the second data-ready of Figure 9). This
            // in-order unblocking enforces the WaR hazard.
            Version &next = versions[v.nextSlot];
            TSS_ASSERT(next.valid, "in-place successor vanished");
            next.buffer = v.buffer;
            next.bucketBytes = v.bucketBytes;
            next.renamed = v.renamed;
            next.bufferAssigned = true;
            v.bucketBytes = 0; // ownership moved
            TSS_ASSERT(next.producer.valid(),
                       "in-place successor without a producer");
            sendDataReady(next.producer, ReadySide::Output, next.buffer);
        }
        die(slot);
        return;
    }

    // Final version of its object: it may only die once the ORT
    // grants retirement (no reader registrations in flight). Until
    // then, send a quiescent hint at every drain. The hint goes out
    // regardless of the writeback policy — dead versions recycle
    // their slot at retirement, never at trace end, which the
    // version-slot liveness protocol (core/ort.hh) depends on.
    if (!v.retireAuthorized) {
        if (!v.hintPending) {
            v.hintPending = true;
            sendMsg(ortNode, std::make_unique<VersionQuiescentMsg>(
                slot, v.epoch, v.readersSeen, v.ortEntry));
        }
        return;
    }

    // Retirement granted. With eager writeback (the paper's policy)
    // a renamed buffer is copied back to the object's home address by
    // the DMA engine first; the lazy ablation skips the copy (modeled
    // as a bulk off-critical-path transfer after the run) and lets
    // the slot recycle immediately.
    if (cfg.eagerWriteback && v.renamed && v.bufferAssigned &&
        v.buffer != v.addr) {
        v.dmaInFlight = true;
        dma.transfer(v.bytes, [this, slot] {
            Version &ver = versions[slot];
            ver.dmaInFlight = false;
            ver.renamed = false; // data now also at the home address
            tryRelease(slot);
            // The callback runs outside packet servicing; push any
            // resulting VersionDead/DataReady out right away.
            flushOutboxNow();
        });
        return;
    }

    die(slot);
}

void
Ovt::die(std::uint32_t slot)
{
    Version &v = versions[slot];
    if (v.bucketBytes > 0)
        buffers.release(v.buffer, v.bucketBytes);
    std::uint32_t ort_entry = v.ortEntry;
    v = Version{};
    obs::trace(obs::TraceEvent::VersionDead, curCycle(), ovtIndex,
               slot);
    sendMsg(ortNode,
            std::make_unique<VersionDeadMsg>(slot, ort_entry));
}

} // namespace tss
