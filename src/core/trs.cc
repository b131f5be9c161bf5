#include "trs.hh"

#include "obs/trace.hh"

#include <algorithm>

namespace tss
{

Trs::Trs(std::string name, EventQueue &eq, Network &network, NodeId node,
         unsigned trs_index, const PipelineConfig &config,
         TaskRegistry &task_registry, FrontendStats &frontend_stats,
         const Footprint *footprint)
    : FrontendModule(std::move(name), eq, network, node),
      trsIndex(trs_index), cfg(config), registry(task_registry),
      stats(frontend_stats),
      edram(config.trsTotalBytes / config.numTrs, config.edramLatency),
      freeList(config.blocksPerTrs(), &edram,
               footprint ? footprint->trsBlocks : config.blocksPerTrs())
{
}

FrontendModule::Service
Trs::process(ProtoMsg &msg)
{
    switch (msg.type) {
      case MsgType::AllocRequest:
        return handleAlloc(static_cast<AllocRequestMsg &>(msg));
      case MsgType::SliceStarved:
        return handleSliceStarved(msg);
      case MsgType::ScalarOperand:
        return handleScalar(static_cast<ScalarOperandMsg &>(msg));
      case MsgType::OperandInfo:
        return handleOperandInfo(static_cast<OperandInfoMsg &>(msg));
      case MsgType::RegisterConsumer:
        return handleRegisterConsumer(
            static_cast<RegisterConsumerMsg &>(msg));
      case MsgType::DataReady:
        return handleDataReady(static_cast<DataReadyMsg &>(msg));
      case MsgType::TaskFinished:
        return handleTaskFinished(static_cast<TaskFinishedMsg &>(msg));
      default:
        panic("TRS %u: unexpected message type %d", trsIndex,
              static_cast<int>(msg.type));
    }
}

Trs::TaskSlot *
Trs::findSlot(const TaskId &id)
{
    if (id.slot >= storage.size())
        return nullptr;
    TaskSlot &slot = storage[id.slot].task;
    if (!slot.live || slot.generation != id.generation)
        return nullptr;
    return &slot;
}

Trs::OperandState &
Trs::operand(const TaskSlot &slot, unsigned index)
{
    TSS_ASSERT(index < slot.numOperands, "TRS %u: operand %u of a "
               "%u-operand task", trsIndex, index, slot.numOperands);
    return storage[slot.blocks[layout::blockOf(index)]]
        .ops[layout::entryOf(index)];
}

bool
Trs::operandReady(const OperandState &op)
{
    if (!op.infoSeen)
        return false;
    switch (op.dir) {
      case Dir::Scalar:
        return true;
      case Dir::In:
        return op.inputReady;
      case Dir::Out:
        return op.outputReady;
      case Dir::InOut:
        return op.inputReady && op.outputReady;
    }
    return false;
}

Trs::Service
Trs::handleAlloc(AllocRequestMsg &msg)
{
    TSS_ASSERT(msg.numOperands <= layout::maxOperands,
               "TRS %u: %u operands exceed the layout", trsIndex,
               msg.numOperands);
    unsigned blocks = layout::blocksForOperands(msg.numOperands);
    TSS_ASSERT(freeList.numFree() >= blocks,
               "TRS %u out of blocks despite gateway accounting",
               trsIndex);

    Cycle cost = cfg.packetLatency;
    decltype(TaskSlot::blocks) taken{};
    for (unsigned i = 0; i < blocks; ++i) {
        auto alloc = freeList.allocate();
        TSS_ASSERT(alloc.has_value(), "freeList allocation failed");
        cost += alloc->cost;
        taken[i] = alloc->block;
        if (alloc->block >= storage.size())
            storage.resize(alloc->block + 1);
    }
    std::uint32_t main_block = taken[0];
    TaskSlot &slot = storage[main_block].task;
    TSS_ASSERT(!slot.live, "TRS %u block %u allocated twice", trsIndex,
               main_block);
    slot.live = true;
    slot.traceIndex = msg.traceIndex;
    slot.numOperands = msg.numOperands;
    slot.infoCount = 0;
    slot.readyCount = 0;
    slot.readySent = false;
    slot.numBlocks = blocks;
    slot.blocks = taken;
    for (unsigned i = 0; i < msg.numOperands; ++i)
        operand(slot, i) = OperandState{};
    // Initialize the main block (task globals).
    cost += edram.write();

    std::uint32_t generation = ++slot.generation;
    ++numLive;

    TaskId id;
    id.trs = static_cast<std::uint16_t>(trsIndex);
    id.slot = main_block;
    id.generation = generation;

    registry.bind(id, msg.traceIndex);
    obs::trace(obs::TraceEvent::TaskAlloc, curCycle(), msg.traceIndex,
               static_cast<std::uint64_t>(nodeId()));
    ++stats.tasksAllocated;
    addTasksInFlight(+1.0);
    stats.fragmentation.sample(
        1.0 - static_cast<double>(layout::usedBytes(msg.numOperands)) /
            static_cast<double>(layout::allocatedBytes(msg.numOperands)));

    sendMsg(gatewayNode,
            std::make_unique<AllocReplyMsg>(msg.traceIndex, id));

    // Degenerate but legal: a task with no operands is ready at once.
    if (msg.numOperands == 0) {
        slot.readySent = true;
        registry.record(id).decodeDone = curCycle();
        obs::trace(obs::TraceEvent::TaskDecodeDone, curCycle(),
                   msg.traceIndex, 0);
        obs::trace(obs::TraceEvent::TaskReady, curCycle(),
                   msg.traceIndex);
        sendMsg(schedulerNode, std::make_unique<TaskReadyMsg>(id));
    }
    return {cost, false};
}

Trs::Service
Trs::handleSliceStarved(const ProtoMsg &msg)
{
    // A directory slice's version-slot pool starved: forward every
    // future watermark advance to it (see SliceStarvedMsg). Ack with
    // an immediate wakeup — the watermark may have advanced while the
    // subscription was in flight, and that advance must not be a
    // missed wakeup (the slice re-checks eligibility on any wakeup,
    // so a spurious one is harmless).
    if (std::find(starvedOrtNodes.begin(), starvedOrtNodes.end(),
                  msg.src) == starvedOrtNodes.end()) {
        starvedOrtNodes.push_back(msg.src);
    }
    sendMsg(msg.src, std::make_unique<WatermarkAdvanceMsg>());
    return {cfg.packetLatency, false};
}

void
Trs::noteDecodeProgress(TaskSlot &slot)
{
    if (slot.infoCount == slot.numOperands) {
        TaskRecord &rec = registry.record(slot.traceIndex);
        if (rec.decodeDone == invalidCycle) {
            rec.decodeDone = curCycle();
            obs::trace(obs::TraceEvent::TaskDecodeDone, curCycle(),
                       slot.traceIndex, slot.numOperands);
            if (rec.submitted != invalidCycle) {
                stats.decodeLatency.sample(static_cast<double>(
                    rec.decodeDone - rec.submitted));
            }
        }
    }
}

void
Trs::maybeTaskReady(TaskSlot &slot, const TaskId &id)
{
    if (slot.readySent || slot.readyCount != slot.numOperands)
        return;
    slot.readySent = true;
    obs::trace(obs::TraceEvent::TaskReady, curCycle(),
               slot.traceIndex);
    sendMsg(schedulerNode, std::make_unique<TaskReadyMsg>(id));
}

void
Trs::reevaluate(TaskSlot &slot, const TaskId &id, unsigned index,
                bool was_ready)
{
    bool now_ready = operandReady(operand(slot, index));
    if (!was_ready && now_ready)
        ++slot.readyCount;
    maybeTaskReady(slot, id);
}

Trs::Service
Trs::handleScalar(ScalarOperandMsg &msg)
{
    TaskSlot *slot = findSlot(msg.op.task);
    TSS_ASSERT(slot, "scalar operand for unknown task %s",
               toString(msg.op.task).c_str());
    OperandState &op = operand(*slot, msg.op.index);
    TSS_ASSERT(!op.infoSeen, "duplicate operand %s",
               toString(msg.op).c_str());
    bool was_ready = operandReady(op);
    op.dir = Dir::Scalar;
    op.infoSeen = true;
    ++slot->infoCount;
    noteDecodeProgress(*slot);
    reevaluate(*slot, msg.op.task, msg.op.index, was_ready);
    return {cfg.packetLatency + edram.read() + edram.write(), false};
}

Trs::Service
Trs::handleOperandInfo(OperandInfoMsg &msg)
{
    TaskSlot *slot = findSlot(msg.op.task);
    TSS_ASSERT(slot, "operand info for unknown task %s",
               toString(msg.op.task).c_str());
    OperandState &op = operand(*slot, msg.op.index);
    TSS_ASSERT(!op.infoSeen, "duplicate operand info %s",
               toString(msg.op).c_str());

    bool was_ready = operandReady(op);
    op.dir = msg.dir;
    op.infoSeen = true;
    op.version = msg.version;
    ++slot->infoCount;

    if (msg.readyNow) {
        op.inputReady = true;
        op.buffer = msg.buffer;
    } else if (readsObject(msg.dir)) {
        if (msg.chainTo.valid()) {
            // Join the consumer chain of the previous user.
            sendMsg(trsNodes[msg.chainTo.task.trs],
                    std::make_unique<RegisterConsumerMsg>(msg.chainTo,
                                                          msg.op));
        } else {
            // Chaining disabled: wait at the OVT instead.
            sendMsg(ovtNodes[msg.waitVersion.ovt],
                    std::make_unique<RegisterConsumerMsg>(
                        OperandId{}, msg.op, msg.waitVersion.slot));
        }
    }

    noteDecodeProgress(*slot);
    reevaluate(*slot, msg.op.task, msg.op.index, was_ready);
    return {cfg.packetLatency + edram.read() + edram.write(), false};
}

void
Trs::forwardReady(const OperandState &op)
{
    if (!op.hasChainNext)
        return;
    ++stats.dataReadyForwards;
    sendMsg(trsNodes[op.chainNext.task.trs],
            std::make_unique<DataReadyMsg>(op.chainNext,
                                           ReadySide::Input, op.buffer));
}

Trs::Service
Trs::handleRegisterConsumer(RegisterConsumerMsg &msg)
{
    Cycle cost = cfg.packetLatency + edram.read() + edram.write();
    TaskSlot *slot = findSlot(msg.producer.task);
    if (!slot) {
        // The previous user already finished and freed its slot. Its
        // data (or the data it consumed) is necessarily available, so
        // answer on its behalf (DESIGN.md deviation #2).
        ++stats.tombstoneReplies;
        sendMsg(trsNodes[msg.consumer.task.trs],
                std::make_unique<DataReadyMsg>(msg.consumer,
                                               ReadySide::Input, 0));
        return {cost, false};
    }

    OperandState &op = operand(*slot, msg.producer.index);
    bool available = writesObject(op.dir)
        ? false            // writers publish at task finish
        : op.inputReady;   // readers relay what they received
    if (available) {
        sendMsg(trsNodes[msg.consumer.task.trs],
                std::make_unique<DataReadyMsg>(msg.consumer,
                                               ReadySide::Input,
                                               op.buffer));
    } else {
        TSS_ASSERT(!op.hasChainNext,
                   "operand %s chained twice",
                   toString(msg.producer).c_str());
        op.hasChainNext = true;
        op.chainNext = msg.consumer;
    }
    return {cost, false};
}

Trs::Service
Trs::handleDataReady(DataReadyMsg &msg)
{
    TaskSlot *slot = findSlot(msg.op.task);
    TSS_ASSERT(slot, "data ready for unknown task %s",
               toString(msg.op.task).c_str());
    OperandState &op = operand(*slot, msg.op.index);
    bool was_ready = operandReady(op);

    if (msg.side == ReadySide::Input) {
        TSS_ASSERT(!op.inputReady, "duplicate input ready for %s",
                   toString(msg.op).c_str());
        op.inputReady = true;
        if (op.buffer == 0)
            op.buffer = msg.buffer;
        // Pure readers relay the version's readiness along the
        // consumer chain (Figure 10). Writers (inout) do not: their
        // chained consumers wait for the *produced* version, which is
        // published at task finish.
        if (!writesObject(op.dir))
            forwardReady(op);
    } else {
        TSS_ASSERT(!op.outputReady, "duplicate output ready for %s",
                   toString(msg.op).c_str());
        op.outputReady = true;
        op.buffer = msg.buffer;
    }

    reevaluate(*slot, msg.op.task, msg.op.index, was_ready);
    return {cfg.packetLatency + edram.read() + edram.write(), false};
}

Trs::Service
Trs::handleTaskFinished(TaskFinishedMsg &msg)
{
    TaskSlot *slot = findSlot(msg.id);
    TSS_ASSERT(slot, "finish for unknown task %s",
               toString(msg.id).c_str());
    TSS_ASSERT(slot->readySent, "finish for task that never ran");

    ++stats.tasksFinished;
    addTasksInFlight(-1.0);

    // Walk the operands: publish produced data to waiting chains and
    // release version usage at the OVTs.
    Cycle cost = cfg.packetLatency *
        std::max<unsigned>(1, slot->numOperands);
    cost += edram.read(slot->numBlocks);

    for (unsigned i = 0; i < slot->numOperands; ++i) {
        const OperandState &op = operand(*slot, i);
        if (op.dir == Dir::Scalar)
            continue;
        if (writesObject(op.dir)) {
            forwardReady(op);
            sendMsg(ovtNodes[op.version.ovt],
                    std::make_unique<ProducerDoneMsg>(op.version.slot));
        } else {
            sendMsg(ovtNodes[op.version.ovt],
                    std::make_unique<ReleaseUseMsg>(op.version.slot));
        }
    }

    // Free the task's storage and refresh the gateway's credit view.
    std::uint32_t freed = slot->numBlocks;
    for (unsigned b = 0; b < slot->numBlocks; ++b)
        cost += freeList.release(slot->blocks[b]);
    sendMsg(gatewayNode,
            std::make_unique<TrsSpaceMsg>(trsIndex, freed));

    // The registry watermark is machine-wide state: advance it (and
    // broadcast the advance) at the window barrier, stamped with this
    // packet's full service time so the wakeup is not observable
    // before the retirement completed.
    Cycle flush_at = curCycle() + cost;
    deferToBarrier("Trs::handleTaskFinished",
                   [this, trace_index = slot->traceIndex, flush_at] {
                       applyFinish(trace_index, flush_at);
                   });

    registry.unbind(msg.id);
    slot->live = false;
    --numLive;
    return {cost, false};
}

void
Trs::applyFinish(std::uint32_t trace_index, Cycle flush_at)
{
    // Retiring the watermark task re-arms every gateway's ROB-head
    // reserve: broadcast the advance (shared-data mode), or a
    // reserve-gated allocation on another pipeline would never learn
    // its task became the machine-wide oldest (missed wakeup).
    std::uint32_t old_min = registry.minUnfinishedIndex();
    registry.markFinished(trace_index);
    if (registry.minUnfinishedIndex() == old_min)
        return;
    // Inject at the packet's flush time through the normal send()
    // path — scheduling the send as an event keeps lane reservations
    // in global inject order (routing directly here, with a future
    // inject cycle, would reserve lanes ahead of earlier traffic and
    // charge spurious contention).
    scheduleAt(std::max(flush_at, eventQueue().windowFloor()), [this] {
        auto wake = [this](NodeId dst) {
            auto m = std::make_unique<WatermarkAdvanceMsg>();
            m->src = nodeId();
            m->dst = dst;
            network().send(MessagePtr(m.release()));
        };
        for (NodeId gw : gatewayBroadcast)
            wake(gw);
        // Slot-starved directory slices subscribed for the same
        // wakeup: a capacity-parked operand whose task just became
        // the machine-oldest may now take the reserve escape.
        for (NodeId slice : starvedOrtNodes)
            wake(slice);
    });
}

void
Trs::addTasksInFlight(double delta)
{
    Cycle now = curCycle();
    deferToBarrier("Trs::addTasksInFlight", [this, now, delta] {
        stats.tasksInFlight.add(now, delta);
    });
}

} // namespace tss
